import inspect
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowinverse import cfm
from flowinverse import tensor as T
from flowinverse.data import Batch
from flowinverse.net import NetConfig, VelocityNet
from flowinverse.tasks import get_task
from flowinverse.tensor import AdamState, Tape, Tensor, adam_step, backward
from gradcheck import finite_difference_check


class TestLinear:
    def test_matches_numpy_product_plus_bias(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 4)).astype(np.float32)
        w = rng.normal(size=(4, 5)).astype(np.float32)
        b = rng.normal(size=(5,)).astype(np.float32)
        out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.shape == (2, 3, 5)
        np.testing.assert_allclose(out, x @ w + b, rtol=1e-5, atol=1e-6)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        with Tape() as tape:
            loss = T.mse(T.linear(x, w, b), np.zeros((2, 3, 5)))
        _, _, bwd = tape.records[0]
        gx, gw, gb = bwd(np.ones((2, 3, 5), dtype=np.float32))
        assert gx is None
        assert gw.shape == (4, 5) and gb.shape == (5,)
        np.testing.assert_allclose(gb, 6.0)
        backward(loss, tape)
        assert x.grad is None and w.grad is not None and b.grad is not None

    def test_shape_mismatch_message(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))

    def test_rejects_bias_of_another_shape(self):
        with pytest.raises(ValueError, match=r"\(3, 5\).*\(1, 5\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros((1, 5))))


class TestReluSquared:
    @pytest.mark.parametrize("x,y,g", [(-2.0, 0.0, 0.0), (3.0, 9.0, 6.0), (0.0, 0.0, 0.0)])
    def test_value_and_gradient(self, x, y, g):
        t = Tensor([x], requires_grad=True)
        with Tape() as tape:
            out = T.relu_squared(t)
        assert out.item() == pytest.approx(y)
        (gx,) = tape.records[0][2](np.ones(1, dtype=np.float32))
        assert gx[0] == pytest.approx(g)


class TestMse:
    @pytest.mark.parametrize("shape", [(3, 1), (1, 2), (6,), ()])
    def test_rejects_target_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=r"mse target must have shape \(3, 2\)"):
            T.mse(Tensor(np.zeros((3, 2))), np.zeros(shape))


class TestRmsNorm:
    def test_ones_stay_ones(self, monkeypatch):
        monkeypatch.setattr(T, "RMS_EPS", 1e-12)
        x = Tensor(np.ones((2, 4)))
        g = Tensor(np.ones(4))
        np.testing.assert_allclose(T.rms_norm(x, g).data, 1.0, atol=1e-6)

    def test_plus_minus_three(self, monkeypatch):
        monkeypatch.setattr(T, "RMS_EPS", 1e-12)
        x = Tensor([[3.0, -3.0]])
        g = Tensor(np.ones(2))
        np.testing.assert_allclose(T.rms_norm(x, g).data, [[1.0, -1.0]], atol=1e-6)

    def test_zero_gain_zero_output(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        g = Tensor(np.zeros(5))
        assert np.all(T.rms_norm(x, g).data == 0)

    def test_rejects_gain_of_another_shape(self):
        with pytest.raises(ValueError, match=r"\(4,\).*\(1, 4\)"):
            T.rms_norm(Tensor(np.ones((2, 4))), Tensor(np.ones((1, 4))))

    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1), st.floats(1e-2, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_unit_rms_property(self, dim, seed, scale):
        x = np.random.default_rng(seed).normal(size=(dim,))
        x = x / np.sqrt(np.mean(x * x)) * scale     # force RMS = scale >= 1e-2
        out = T.rms_norm(Tensor(x), Tensor(np.ones(dim))).data.astype(np.float64)
        assert np.sqrt(np.mean(out * out)) == pytest.approx(1.0, abs=1e-3)


def attend(qkv, n_head, dtype=np.float32):
    """The attention core of :func:`tensor.attention_block` on a packed
    q|k|v, without the norm and the projections around it."""
    return T._attention_fwd(np.asarray(qkv, dtype=dtype), n_head)[0]


def block_inputs(kind, rng, B, n_tok, E, dtype):
    """Random x and parameters of one fused sub-block, in argument order:
    x, gain, then the weight and bias of its two linear layers."""
    n = 3 * E if kind == "attention" else 4 * E
    shapes = [(B, n_tok, E), (E,), (E, n), (n,), (E, E) if kind == "attention" else (n, E), (E,)]
    return [rng.normal(size=shape).astype(dtype) for shape in shapes]


def attention_oracle(qkv, n_head):
    """Per-instance, per-head float64 loop over the documented formula."""
    B, n_tok, E3 = qkv.shape
    E = E3 // 3
    hd = E // n_head
    out = np.empty((B, n_tok, E))
    for b in range(B):
        for h in range(n_head):
            q, k, v = (qkv[b, :, i * E + h * hd:i * E + (h + 1) * hd].astype(np.float64)
                       for i in range(3))
            scores = q @ k.T / np.sqrt(hd)
            w = np.exp(scores - scores.max(-1, keepdims=True))
            out[b, :, h * hd:(h + 1) * hd] = (w / w.sum(-1, keepdims=True)) @ v
    return out


class TestAttention:
    @pytest.mark.parametrize("B,n_tok,n_head,hd", [(5, 3, 2, 4), (2, 9, 4, 8), (3, 1, 2, 3)])
    def test_batched_matches_loop(self, B, n_tok, n_head, hd):
        qkv = np.random.default_rng(1).normal(size=(B, n_tok, 3 * n_head * hd)).astype(np.float32)
        out = attend(qkv, n_head)
        assert out.shape == (B, n_tok, n_head * hd)
        np.testing.assert_allclose(out, attention_oracle(qkv, n_head), rtol=1e-5, atol=1e-6)

    def test_single_token_returns_its_value(self):
        qkv = np.random.default_rng(2).normal(size=(4, 1, 18)).astype(np.float32)
        np.testing.assert_allclose(attend(qkv, 2), qkv[..., 12:], rtol=1e-6)

    def test_permuting_tokens_permutes_the_output(self):
        qkv = np.random.default_rng(3).normal(size=(2, 6, 12))
        perm = np.array([4, 0, 5, 2, 1, 3])
        out = attend(qkv, 2, np.float64)
        permuted = attend(qkv[:, perm], 2, np.float64)
        np.testing.assert_allclose(permuted, out[:, perm], rtol=1e-12, atol=1e-14)

    def test_heads_do_not_mix(self):
        rng = np.random.default_rng(4)
        qkv = rng.normal(size=(2, 5, 24)).astype(np.float32)
        other = qkv.copy()
        other[..., 4:8] += 1.0          # q, k and v of head 1 only
        other[..., 12:16] -= 2.0
        other[..., 20:24] *= 3.0
        a = attend(qkv, 2)
        b = attend(other, 2)
        np.testing.assert_array_equal(a[..., :4], b[..., :4])
        assert np.abs(a[..., 4:] - b[..., 4:]).min() > 0

    def test_equal_values_give_queries_and_keys_no_gradient(self):
        # when every token has the same value, the weights do not matter
        qkv = np.random.default_rng(5).normal(size=(2, 4, 6))
        qkv[..., 4:] = [0.5, -1.5]
        _, cache = T._attention_fwd(qkv, 1)
        grad = T._attention_bwd(np.random.default_rng(6).normal(size=(2, 4, 2)), cache)
        np.testing.assert_allclose(grad[..., :4], 0.0, atol=1e-15)
        assert np.abs(grad[..., 4:]).min() > 0

    def test_shape_mismatch_message(self):
        inputs = [Tensor(a) for a in block_inputs("attention", np.random.default_rng(0),
                                                  2, 3, 4, np.float32)]
        for n_head in (3, 0):
            with pytest.raises(ValueError, match=rf"n_emb=4 with n_head={n_head}"):
                T.attention_block(*inputs, n_head)


class TestSoftmax:
    """The attention weights: with one-hot values (v_j = e_j) the context
    row of token i is its probability row."""

    @staticmethod
    def weights(q, k):
        n_tok, hd = q.shape
        v = np.eye(n_tok, hd)
        qkv = np.concatenate([q, k, v], axis=-1)[None]       # one head
        return attend(qkv, 1)[0, :, :n_tok]

    def test_uniform_input(self):
        # equal keys give equal scores, whatever the queries
        q = np.random.default_rng(0).normal(size=(5, 5))
        np.testing.assert_allclose(self.weights(q, np.full((5, 5), 3.0)), 0.2, atol=1e-7)

    def test_log3(self):
        # scores q.k / sqrt(2) = (0, log 3) for both queries
        k = np.array([[0.0, 0.0], [np.log(3.0) * np.sqrt(2.0), 0.0]])
        out = self.weights(np.array([[1.0, 0.0], [1.0, 5.0]]), k)
        np.testing.assert_allclose(out, [[0.25, 0.75]] * 2, atol=1e-6)

    def test_shift_invariance(self):
        # one vector added to every key adds q.c to each score row; so the
        # key bias gets no gradient
        rng = np.random.default_rng(2)
        q, k = rng.normal(size=(2, 6, 6)).astype(np.float32)
        shifted = k + rng.normal(scale=2.0, size=(1, 6)).astype(np.float32)
        np.testing.assert_allclose(self.weights(q, k), self.weights(q, shifted), atol=1e-6)

    @given(st.integers(1, 9), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, n_tok, seed):
        q, k = np.random.default_rng(seed).normal(scale=10, size=(2, n_tok, 9))
        out = self.weights(q, k)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(-1), 1.0, atol=1e-6)


# The unfused engine as plain numpy: its rms_norm, linear, attention and
# relu_squared formulas, each a forward value and a backward closure,
# composed with residual adds the way the net composed them before its
# sub-blocks became one op each.

def composed_rms_norm(x, gain, eps=1e-8):
    n = x.shape[-1]
    ms = np.einsum("...i,...i->...", x, x)[..., None] / n
    inv = 1.0 / np.sqrt(ms + x.dtype.type(eps))
    xhat = x * inv

    def bwd(g):
        gg = g * gain
        dot = np.einsum("...i,...i->...", gg, x)[..., None]
        g2 = (g * xhat).reshape(-1, n)
        return gg * inv - x * (inv ** 3) * (dot / n), np.ones(len(g2), dtype=g2.dtype) @ g2

    return xhat * gain, bwd


def composed_linear(x, w, b):
    k, n = w.shape
    x2 = x.reshape(-1, k)
    y = x2 @ w
    y += b

    def bwd(g):
        g2 = g.reshape(-1, n)
        return (g2 @ w.T).reshape(x.shape), x2.T @ g2, np.ones(len(g2), dtype=g2.dtype) @ g2

    return y.reshape(x.shape[:-1] + (n,)), bwd


def composed_attention(qkv, n_head):
    B, n_tok, E3 = qkv.shape
    hd = E3 // (3 * n_head)
    parts = qkv.reshape(B, n_tok, 3, n_head, hd).transpose(2, 0, 3, 1, 4)
    q = np.ascontiguousarray(parts[0])
    kt = np.ascontiguousarray(parts[1].swapaxes(-1, -2))
    v = np.ascontiguousarray(parts[2])
    c = qkv.dtype.type(1.0 / np.sqrt(hd))
    s = q @ kt
    s *= c
    s -= s.max(-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.einsum("...i->...", s)[..., None]

    def bwd(g):
        g = np.ascontiguousarray(g.reshape(B, n_tok, n_head, hd).transpose(0, 2, 1, 3))
        ds = g @ np.ascontiguousarray(v.swapaxes(-1, -2))
        ds -= np.einsum("...i,...i->...", ds, s)[..., None]
        ds *= s
        ds *= c
        d = np.empty((3, B, n_head, n_tok, hd), dtype=g.dtype)
        np.matmul(ds, np.ascontiguousarray(kt.swapaxes(-1, -2)), out=d[0])
        np.matmul(np.ascontiguousarray(ds.swapaxes(-1, -2)), q, out=d[1])
        np.matmul(np.ascontiguousarray(s.swapaxes(-1, -2)), g, out=d[2])
        return d.transpose(1, 3, 0, 2, 4).reshape(B, n_tok, E3)

    return (s @ v).transpose(0, 2, 1, 3).reshape(B, n_tok, E3 // 3), bwd


def composed_attention_block(x, gain, wqkv, bqkv, wo, bo, g, n_head):
    """Output and the six gradients, for output gradient ``g``."""
    h, norm_bwd = composed_rms_norm(x, gain)
    qkv, qkv_bwd = composed_linear(h, wqkv, bqkv)
    ctx, attn_bwd = composed_attention(qkv, n_head)
    a, wo_bwd = composed_linear(ctx, wo, bo)
    dctx, dwo, dbo = wo_bwd(g)
    dh, dwqkv, dbqkv = qkv_bwd(attn_bwd(dctx))
    dx, dgain = norm_bwd(dh)
    return x + a, (g + dx, dgain, dwqkv, dbqkv, dwo, dbo)


def composed_mlp_block(x, gain, w1, b1, w2, b2, g):
    h, norm_bwd = composed_rms_norm(x, gain)
    f, fc_bwd = composed_linear(h, w1, b1)
    r = np.maximum(f, 0)
    p, proj_bwd = composed_linear(r * r, w2, b2)
    dsq, dw2, db2 = proj_bwd(g)
    dh, dw1, db1 = fc_bwd(dsq * (2 * r))
    dx, dgain = norm_bwd(dh)
    return x + p, (g + dx, dgain, dw1, db1, dw2, db2)


def composed_mse(v, target, g):
    """mean((v - target)²) as sub, mul and mean_all, and v's gradient: the
    mean's gradient reaches both factors of diff · diff, which add up."""
    diff = v - target
    gsq = np.full(v.shape, g * v.dtype.type(1.0 / v.size), dtype=v.dtype)
    return np.asarray((diff * diff).mean(), dtype=v.dtype), gsq * diff + gsq * diff


def run_block(kind, arrays, g, **kw):
    """The fused sub-block's output and the six gradients of its record."""
    inputs = [Tensor(a, requires_grad=True, dtype=a.dtype) for a in arrays]
    with Tape() as tape:
        out = (T.attention_block(*inputs, 2, **kw) if kind == "attention"
               else T.mlp_block(*inputs))
    assert len(tape) == 1
    return out.data, tape.records[0][2](g)


class TestFusedBlocks:
    @pytest.mark.parametrize("kind", ["attention", "mlp"])
    def test_match_the_composition_bitwise(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        arrays = block_inputs(kind, rng, 5, 4, 8, np.float32)
        g = rng.normal(size=(5, 4, 8)).astype(np.float32)
        out, grads = run_block(kind, arrays, g)
        if kind == "attention":
            want, want_grads = composed_attention_block(*arrays, g, n_head=2)
        else:
            want, want_grads = composed_mlp_block(*arrays, g)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, want)
        assert len(grads) == 6
        for got, expected in zip(grads, want_grads):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, expected)

    def test_mse_matches_the_composition_bitwise(self):
        rng = np.random.default_rng(10)
        v, target = rng.normal(size=(2, 64, 6)).astype(np.float32)
        g = np.asarray(rng.normal(), dtype=np.float32)
        with Tape() as tape:
            out = T.mse(Tensor(v, requires_grad=True), target)
        (grad,) = tape.records[0][2](g)
        want, want_grad = composed_mse(v, target, g)
        assert out.data.dtype == grad.dtype == np.float32
        np.testing.assert_array_equal(out.data, want)
        np.testing.assert_array_equal(grad, want_grad)

    def test_state_only_is_the_last_row(self):
        rng = np.random.default_rng(8)
        arrays = block_inputs("attention", rng, 5, 4, 8, np.float64)
        g = np.zeros((5, 4, 8))
        g[:, -1] = rng.normal(size=(5, 8))
        full, full_grads = run_block("attention", arrays, g)
        last, last_grads = run_block("attention", arrays, g[:, -1], state_only=True)
        assert last.shape == (5, 8)
        np.testing.assert_allclose(last, full[:, -1], rtol=0, atol=1e-12)
        for got, want in zip(last_grads, full_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["attention", "mlp"])
    def test_reject_mismatched_shapes(self, kind):
        rng = np.random.default_rng(9)
        x, gain, w1, b1, w2, b2 = (Tensor(a) for a in block_inputs(kind, rng, 2, 3, 4, np.float32))
        block = (lambda *a: T.attention_block(*a, 2)) if kind == "attention" else T.mlp_block
        wide = Tensor(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=r"gain must have shape \(4,\)"):
            block(x, Tensor(np.ones(5)), w1, b1, w2, b2)
        with pytest.raises(ValueError, match="linear shapes"):       # first weight
            block(x, gain, Tensor(np.zeros((5,) + w1.shape[1:])), b1, w2, b2)
        with pytest.raises(ValueError, match="linear shapes"):       # first bias
            block(x, gain, w1, Tensor(np.zeros(1)), w2, b2)
        with pytest.raises(ValueError, match="linear shapes"):       # output width
            block(x, gain, w1, b1, Tensor(np.zeros(w2.shape[:1] + (5,))), Tensor(np.zeros(5)))
        if kind == "attention":                                      # q|k|v width
            with pytest.raises(ValueError, match="linear shapes"):
                block(x, gain, wide, Tensor(np.zeros(5)), w2, b2)


class TestBackward:
    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = T.mse(x, np.zeros(1))
        backward(loss, tape)
        assert x.grad[0] == pytest.approx(6.0)

    def test_constant_has_zero_gradient(self):
        # x is on the tape, but the loss does not depend on it
        x = Tensor([3.0], requires_grad=True)
        c = Tensor([5.0], requires_grad=True)
        with Tape() as tape:
            T.add(x, x)
            loss = T.mse(c, np.zeros(1))
        backward(loss, tape)
        assert x.grad is None
        assert c.grad[0] == pytest.approx(10.0)

    def test_loss_that_is_a_leaf_gets_no_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            pass
        backward(x, tape)
        assert x.grad is None

    def test_a_tape_cannot_open_inside_another(self):
        # nested, `add` would land on the inner tape and the outer tape's
        # backward would leave x.grad None without a word
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="tapes do not nest"):
            with Tape() as outer:
                with Tape():
                    y = T.add(x, x)
                loss = T.mse(y, np.zeros(3))
            backward(loss, outer)
        assert x.grad is None
        # the failed attempt leaves no tape open
        with Tape() as tape:
            loss = T.mse(T.add(x, x), np.zeros(3))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, np.full(3, 8.0 / 3.0))

    def test_requires_scalar_loss(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = T.add(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_sweep_empties_the_tape(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = T.mse(T.relu_squared(T.add(x, x)), np.zeros((2, 3)))
        assert len(tape) == 3
        backward(loss, tape)
        assert len(tape) == 0
        assert x.grad is not None

    def test_second_backward_adds_to_the_gradient(self):
        x = Tensor([1.0], requires_grad=True)

        def grad_after_pass():
            with Tape() as tape:
                loss = T.mse(x, np.zeros(1))
            backward(loss, tape)
            return x.grad[0]

        assert grad_after_pass() == 2.0
        assert grad_after_pass() == 4.0     # d(x^2)/dx = 2, summed over two passes
        x.zero_grad()
        assert grad_after_pass() == 2.0

    def test_leaves_get_their_own_writable_gradients(self):
        # add passes its incoming gradient to both inputs as one array
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = T.mse(T.add(a, b), np.zeros(3))
        backward(loss, tape)
        assert a.grad is not b.grad
        assert a.grad.flags.writeable and b.grad.flags.writeable
        third = b.grad.copy()
        a.grad *= 2.0
        np.testing.assert_array_equal(a.grad, 2.0 * third)
        np.testing.assert_array_equal(b.grad, third)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        xv, a, b = rng.normal(size=(3, 4)).astype(np.float32)

        def grad_of(fn):
            x = Tensor(xv, requires_grad=True)
            with Tape() as tape:
                loss = fn(x)
            backward(loss, tape)
            return x.grad.astype(np.float64)

        f = lambda x: T.mse(x, a)
        g = lambda x: T.mse(T.relu_squared(x), b)
        combo = lambda x: T.add(f(x), g(x))
        np.testing.assert_allclose(grad_of(combo), grad_of(f) + grad_of(g), atol=1e-6)

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        params = {
            "w": Tensor(rng.normal(size=(5, 4)).astype(np.float32), requires_grad=True),
            "b": Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True),
            "g": Tensor(rng.uniform(0.5, 1.5, 4).astype(np.float32), requires_grad=True),
        }
        for kind in ("attention", "mlp"):
            for i, a in enumerate(block_inputs(kind, rng, 1, 1, 4, np.float32)[1:]):
                params[f"{kind}{i}"] = Tensor(a, requires_grad=True)
        x = rng.normal(size=(2, 3, 5))

        def fn(p):
            h = T.linear(Tensor(x, dtype=p["w"].dtype), p["w"], p["b"])
            h = T.attention_block(T.relu_squared(h), *(p[f"attention{i}"] for i in range(5)), 2)
            h = T.rms_norm(T.mlp_block(h, *(p[f"mlp{i}"] for i in range(5))), p["g"])
            return T.mse(h, np.zeros(h.shape))

        assert finite_difference_check(fn, params) < 1e-4

    def test_determinism(self):
        x, *weights = block_inputs("attention", np.random.default_rng(5), 4, 6, 12, np.float32)

        def run():
            t = Tensor(x, requires_grad=True)
            with Tape() as tape:
                loss = T.mse(T.relu_squared(T.attention_block(t, *map(Tensor, weights), 2)),
                             np.zeros(x.shape))
            backward(loss, tape)
            return loss.item(), t.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


def with_grad(value, grad):
    """A parameter holding ``grad`` in its gradient buffer."""
    p = Tensor(np.array(value), requires_grad=True)
    p.grad = np.array(grad, dtype=np.float32)
    return p


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": with_grad([1.0, -2.0], [0.0, 0.0])}
        state = AdamState(p, lr=0.1)
        before = p["w"].data.copy()
        adam_step(p, state)
        np.testing.assert_array_equal(p["w"].data, before)
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        p = {"w": with_grad([0.5], [1.0])}
        state = AdamState(p, lr=0.1)
        adam_step(p, state)
        # bias correction makes the first update ~ lr * g / |g|
        assert p["w"].data[0] == pytest.approx(0.5 - 0.1, abs=1e-6)

    def test_identical_params_update_identically(self):
        p = {"a": with_grad([1.0], [0.3]), "b": with_grad([1.0], [0.3])}
        state = AdamState(p, lr=0.05)
        for _ in range(7):
            adam_step(p, state)
        np.testing.assert_array_equal(p["a"].data, p["b"].data)

    def test_shape_mismatch(self):
        p = {"w": with_grad(np.ones(3), np.ones(4))}
        state = AdamState(p, lr=0.1)
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(p, state)

    def test_missing_gradient(self):
        p = {"w": Tensor(np.ones(3), requires_grad=True)}
        state = AdamState(p, lr=0.1)
        with pytest.raises(ValueError, match="vs grad None"):
            adam_step(p, state)

    def test_moments_start_at_zero(self):
        p = {"w": Tensor(np.ones((2, 2)), requires_grad=True)}
        state = AdamState(p, lr=0.1)
        assert state.step == 0
        assert np.all(state.m["w"] == 0) and np.all(state.v["w"] == 0)


# Finite-difference case -> the public tape ops it checks.
GRADIENT_CASES = {
    "add": ("add",),
    "linear": ("linear",),
    "relu_squared": ("relu_squared",),
    "rms_norm": ("rms_norm",),
    "attention_block": ("attention_block",),
    "mlp_block": ("mlp_block",),
    "concat": ("concat",),
    "mse": ("mse",),
}
NOT_TAPE_OPS = {"backward", "adam_step"}


def tape_ops():
    """The public functions of ``tensor`` that record on a tape."""
    public = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
              if fn.__module__ == T.__name__ and not name.startswith("_")}
    return public - NOT_TAPE_OPS


def test_every_tape_op_has_a_gradient_case():
    assert tape_ops() - {op for ops in GRADIENT_CASES.values() for op in ops} == set()


def test_the_net_and_its_loss_record_every_tape_op():
    # an op that nothing in the velocity net or its loss records has no
    # caller left, and should go
    recorded = set()
    for name in ("seir", "darcy"):
        task = get_task(name)
        cfg = NetConfig(n_emb=8, n_head=2, n_layer=2, dim_m=task.dim_m,
                        obs_token_dim=task.obs_token_dim,
                        design_token_dim=task.design_token_dim)
        rng = np.random.default_rng(12)
        B, n_obs = 3, 4
        if name == "seir":
            d, e = rng.uniform(0, 100, (B, 2 * n_obs)), np.sort(rng.uniform(1, 3, (B, n_obs)))
        else:
            d, e = rng.normal(size=(B, n_obs)), rng.uniform(0, 1, (B, 2 + 2 * n_obs))
        batch = Batch(n_obs=n_obs, m=rng.normal(size=(B, task.dim_m)), e=e, d=d,
                      index=np.arange(B))
        with Tape() as tape:
            cfm.cfm_loss(VelocityNet(task, cfg, seed=0), batch, rng.uniform(0, 1, B),
                         rng.normal(size=(B, task.dim_m)))
        recorded |= {bwd.__qualname__.split(".", 1)[0] for _, _, bwd in tape.records}
    assert recorded == tape_ops()


class TestPrimitiveGradients:
    """Finite-difference checks for every tape op, on random small shapes."""

    @pytest.mark.parametrize("op_name", list(GRADIENT_CASES))
    def test_op(self, op_name):
        rng = np.random.default_rng(zlib.crc32(op_name.encode()))
        a = rng.normal(size=(3, 4, 6)).astype(np.float32)
        b = rng.normal(size=(3, 4, 6)).astype(np.float32)
        params = {"a": Tensor(a, requires_grad=True), "b": Tensor(b, requires_grad=True)}
        if op_name == "linear":
            params["w"] = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
            params["c"] = Tensor(rng.normal(size=(5,)), requires_grad=True)
        if op_name == "rms_norm":
            params["g"] = Tensor(rng.normal(size=(6,)), requires_grad=True)
        if op_name.endswith("_block"):     # E 6; attention: 2 heads of 3
            kind = op_name.removesuffix("_block")
            for i, w in enumerate(block_inputs(kind, rng, 3, 1, 6, np.float64)):
                params[f"w{i}"] = Tensor(w, requires_grad=True)
            if kind == "attention":
                # the key bias is held fixed: softmax is shift-invariant, so its
                # gradient is 0 and its finite differences are rounding noise
                bq, key_bias, bv = np.split(params.pop("w3").data, 3)
                params["bq"] = Tensor(bq, requires_grad=True)
                params["bv"] = Tensor(bv, requires_grad=True)

        def sq(out):
            return T.mse(out, np.zeros(out.shape))

        def fn(p):
            if op_name == "add":
                out = T.add(p["a"], p["b"])
            elif op_name == "linear":
                out = T.linear(p["a"], p["w"], p["c"])
            elif op_name == "relu_squared":
                out = T.relu_squared(p["a"])
            elif op_name == "rms_norm":
                out = T.rms_norm(p["a"], p["g"])
            elif op_name == "attention_block":     # 4 tokens, the last one's query, 1 token
                bqkv = T.concat([p["bq"], Tensor(key_bias, dtype=p["bq"].dtype), p["bv"]], axis=0)
                w = [p["w1"], p["w2"], bqkv, p["w4"], p["w5"]]
                return T.add(T.add(sq(T.attention_block(p["a"], *w, 2)),
                                   sq(T.attention_block(p["a"], *w, 2, state_only=True))),
                             sq(T.attention_block(p["w0"], *w, 2)))
            elif op_name == "mlp_block":
                out = T.mlp_block(p["a"], *(p[f"w{i}"] for i in range(1, 6)))
            elif op_name == "concat":
                out = T.concat([p["a"], p["b"]], axis=1)
            elif op_name == "mse":                 # a gradient of the loss other than 1
                out = T.mse(p["a"], b)
            return sq(out)

        # every entry of a fused block's inputs, 20 of each other op's
        max_entries = None if op_name.endswith("_block") else 20
        assert finite_difference_check(fn, params, max_entries=max_entries) < 1e-4
