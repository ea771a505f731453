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


def rms_norm(x, gain):
    """rms_norm(x, gain) as :func:`tensor.head` with an identity read-out."""
    n = gain.shape[0]
    return T.head(x, gain, Tensor(np.eye(n), dtype=x.dtype), Tensor(np.zeros(n), dtype=x.dtype))


def pass_through(x):
    """x itself, as one tape record: time_embedding with zero weights."""
    E = x.shape[-1]
    w, b = Tensor(np.zeros((E, E)), dtype=x.dtype), Tensor(np.zeros(E), dtype=x.dtype)
    return T.time_embedding(x, np.zeros((x.shape[0], 1, E)), w, b, w, b)


class TestLinear:
    """The linear layer of a :func:`tensor.token_embedding` group."""

    def test_matches_numpy_product_plus_bias(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 4)).astype(np.float32)
        w = rng.normal(size=(4, 5)).astype(np.float32)
        b = rng.normal(size=(5,)).astype(np.float32)
        out = T.token_embedding([(Tensor(x), Tensor(w), Tensor(b))]).data
        assert out.shape == (2, 3, 5)
        np.testing.assert_allclose(out, x @ w + b, rtol=1e-5, atol=1e-6)

    def test_joins_the_groups_along_the_token_axis(self):
        rng = np.random.default_rng(11)
        xs = [rng.normal(size=(2, n, k)) for n, k in ((3, 4), (1, 2))]
        ws = [rng.normal(size=(k, 5)) for k in (4, 2)]
        bs = [rng.normal(size=5) for _ in range(2)]
        out = T.token_embedding([(Tensor(x), Tensor(w), Tensor(b))
                                 for x, w, b in zip(xs, ws, bs)]).data
        assert out.shape == (2, 4, 5)
        for got, x, w, b in zip((out[:, :3], out[:, 3:]), xs, ws, bs):
            np.testing.assert_allclose(got, x @ w + b, rtol=1e-5, atol=1e-5)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        with Tape() as tape:
            loss = T.mse(T.token_embedding([(x, w, b)]), np.zeros((2, 3, 5)))
        _, _, bwd = tape.records[0]
        gx, gw, gb = bwd(np.ones((2, 3, 5), dtype=np.float32))
        assert gx is None
        assert gw.shape == (4, 5) and gb.shape == (5,)
        np.testing.assert_allclose(gb, 6.0)
        backward(loss, tape)
        assert x.grad is None and w.grad is not None and b.grad is not None

    def test_shape_mismatch_message(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            T.token_embedding([(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))),
                                Tensor(np.zeros(5)))])

    def test_rejects_bias_of_another_shape(self):
        with pytest.raises(ValueError, match=r"\(3, 5\).*\(1, 5\)"):
            T.token_embedding([(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))),
                                Tensor(np.zeros((1, 5))))])

    def test_rejects_groups_of_another_width(self):
        ok = (Tensor(np.zeros((2, 1, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(5)))
        narrow = (Tensor(np.zeros((2, 1, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))
        with pytest.raises(ValueError, match=r"linear shapes.*\(3, 4\)"):
            T.token_embedding([ok, narrow])


class TestReluSquared:
    """relu² inside :func:`tensor.time_embedding`: a basis value v through
    unit weights embeds as relu(v)², and the first bias gets 2 relu(v)."""

    @pytest.mark.parametrize("x,y,g", [(-2.0, 0.0, 0.0), (3.0, 9.0, 6.0), (0.0, 0.0, 0.0)])
    def test_value_and_gradient(self, x, y, g):
        one, zero = Tensor([[1.0]]), Tensor([0.0], requires_grad=True)
        with Tape() as tape:
            out = T.time_embedding(Tensor(np.zeros((1, 1, 1))), [[[x]]], one, zero, one, zero)
        assert out.item() == pytest.approx(y)
        _, _, db1, _, _ = tape.records[0][2](np.ones((1, 1, 1), dtype=np.float32))
        assert db1[0] == pytest.approx(g)


class TestTimeEmbedding:
    def test_adds_the_embedding_to_the_state_token(self):
        # the observation tokens, all but the last, pass through unchanged
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 4, 6))
        basis = rng.normal(size=(3, 1, 6))
        w1, w2 = rng.normal(size=(2, 6, 6))
        b1, b2 = rng.normal(size=(2, 6))
        out = T.time_embedding(Tensor(x, dtype=np.float64), basis,
                               *(Tensor(a, dtype=np.float64) for a in (w1, b1, w2, b2))).data
        temb = np.maximum(basis @ w1 + b1, 0) ** 2 @ w2 + b2
        np.testing.assert_array_equal(out[:, :-1], x[:, :-1])
        np.testing.assert_allclose(out[:, -1:], x[:, -1:] + temb, rtol=1e-12, atol=1e-12)

    # (1, 1, 6): one time for all rows is not a basis of each row's time
    @pytest.mark.parametrize("shape", [(2, 1, 6), (3, 2, 6), (3, 6), (3, 1, 5), (1, 1, 6)])
    def test_rejects_a_basis_of_another_shape(self, shape):
        rng = np.random.default_rng(13)
        w, b = Tensor(rng.normal(size=(6, 6))), Tensor(np.zeros(6))
        match = r"linear shapes" if shape[-1] == 5 else r"basis must have shape \(3, 1, k\)"
        with pytest.raises(ValueError, match=match):
            T.time_embedding(Tensor(np.zeros((3, 4, 6))), np.zeros(shape), w, b, w, b)

    def test_rejects_an_embedding_of_another_width(self):
        w, b = Tensor(np.zeros((6, 6))), Tensor(np.zeros(6))
        with pytest.raises(ValueError, match="linear shapes"):
            T.time_embedding(Tensor(np.zeros((3, 4, 5))), np.zeros((3, 1, 6)), w, b, w, b)


class TestMse:
    @pytest.mark.parametrize("shape", [(3, 1), (1, 2), (6,), ()])
    def test_rejects_target_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=r"mse target must have shape \(3, 2\)"):
            T.mse(Tensor(np.zeros((3, 2))), np.zeros(shape))


class TestRmsNorm:
    """The norm of :func:`tensor.head`, read out through identity weights."""

    def test_ones_stay_ones(self, monkeypatch):
        monkeypatch.setattr(T, "RMS_EPS", 1e-12)
        x = Tensor(np.ones((2, 4)))
        g = Tensor(np.ones(4))
        np.testing.assert_allclose(rms_norm(x, g).data, 1.0, atol=1e-6)

    def test_plus_minus_three(self, monkeypatch):
        monkeypatch.setattr(T, "RMS_EPS", 1e-12)
        x = Tensor([[3.0, -3.0]])
        g = Tensor(np.ones(2))
        np.testing.assert_allclose(rms_norm(x, g).data, [[1.0, -1.0]], atol=1e-6)

    def test_zero_gain_zero_output(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        g = Tensor(np.zeros(5))
        assert np.all(rms_norm(x, g).data == 0)

    def test_rejects_gain_of_another_shape(self):
        with pytest.raises(ValueError, match=r"\(4,\).*\(1, 4\)"):
            rms_norm(Tensor(np.ones((2, 4))), Tensor(np.ones((1, 4))))

    def test_head_rejects_read_out_of_another_shape(self):
        x, g = Tensor(np.ones((2, 4))), Tensor(np.ones(4))
        with pytest.raises(ValueError, match=r"linear shapes.*\(3, 2\)"):
            T.head(x, g, Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match=r"linear shapes.*\(4, 2\), b \(3,\)"):
            T.head(x, g, Tensor(np.zeros((4, 2))), Tensor(np.zeros(3)))

    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1), st.floats(1e-2, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_unit_rms_property(self, dim, seed, scale):
        x = np.random.default_rng(seed).normal(size=(dim,))
        x = x / np.sqrt(np.mean(x * x)) * scale     # force RMS = scale >= 1e-2
        out = rms_norm(Tensor(x), Tensor(np.ones(dim))).data.astype(np.float64)
        assert np.sqrt(np.mean(out * out)) == pytest.approx(1.0, abs=1e-3)


def heads(qkv, n_head):
    """A packed (B, T, 3E) q|k|v as contiguous per-head q, kᵀ and v."""
    B, n_tok, E3 = qkv.shape
    hd = E3 // (3 * n_head)
    kt = np.empty((B, n_head, hd, n_tok), dtype=qkv.dtype)
    v = np.empty((B, n_head, n_tok, hd), dtype=qkv.dtype)
    return np.ascontiguousarray(T._heads(qkv, n_head, kt, v)), kt, v


def attend(qkv, n_head, dtype=np.float32):
    """The attention core of :func:`tensor.attention_block` on a packed
    q|k|v, without the norm and the projections around it."""
    return T._attention_fwd(*heads(np.asarray(qkv, dtype=dtype), n_head))[0]


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
    # (8, 9, 4, 2) has more than 1024 scores, so its row max runs the column loop
    @pytest.mark.parametrize("B,n_tok,n_head,hd", [(5, 3, 2, 4), (2, 9, 4, 8), (3, 1, 2, 3),
                                                   (8, 9, 4, 2)])
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
        q, kt, v = heads(qkv, 1)
        _, s = T._attention_fwd(q, kt, v)
        grad = T._attention_bwd(np.random.default_rng(6).normal(size=(2, 4, 2)), q, kt, v, s)
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
    """Two-stream attention: a (T, T) mask of −inf where a query of the
    first T - 1 tokens meets the last token's key, added to the scores."""
    B, n_tok, E3 = qkv.shape
    hd = E3 // (3 * n_head)
    parts = qkv.reshape(B, n_tok, 3, n_head, hd).transpose(2, 0, 3, 1, 4)
    q = np.ascontiguousarray(parts[0])
    kt = np.ascontiguousarray(parts[1].swapaxes(-1, -2))
    v = np.ascontiguousarray(parts[2])
    c = qkv.dtype.type(1.0 / np.sqrt(hd))
    mask = np.zeros((n_tok, n_tok), dtype=qkv.dtype)
    mask[:-1, -1] = -np.inf
    s = q @ kt
    s *= c
    s += mask
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


def composed_token_embedding(groups, g):
    """One linear layer per group, then a concat along the token axis."""
    ys, bwds = zip(*(composed_linear(*group) for group in groups))
    splits = np.cumsum([y.shape[1] for y in ys])[:-1]
    grads = [gi for bwd, gs in zip(bwds, np.split(g, splits, axis=1)) for gi in bwd(gs)]
    return np.concatenate(ys, axis=1), grads


def composed_time_embedding(x, basis, w1, b1, w2, b2, g):
    """linear, relu², linear, and the add of each row's embedding to its last
    token, the state; the other tokens are copied."""
    f, fc1_bwd = composed_linear(basis, w1, b1)
    r = np.maximum(f, 0)
    temb, fc2_bwd = composed_linear(r * r, w2, b2)
    dsq, dw2, db2 = fc2_bwd(g[:, -1:])
    _, dw1, db1 = fc1_bwd(dsq * (2 * r))
    return np.concatenate([x[:, :-1], x[:, -1:] + temb], axis=1), (g, dw1, db1, dw2, db2)


def composed_head(x, gain, w, b, g):
    h, norm_bwd = composed_rms_norm(x, gain)
    y, lin_bwd = composed_linear(h, w, b)
    dh, dw, db = lin_bwd(g)
    return y, norm_bwd(dh) + (dw, db)


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

    @pytest.mark.parametrize("case", ["token_embedding", "time_per_row", "time_one_row",
                                      "head"])
    def test_layers_match_the_composition_bitwise(self, case):
        rng = np.random.default_rng(zlib.crc32(case.encode()))

        def f32(*shape):
            return rng.normal(size=shape).astype(np.float32)

        B, E = (1 if case == "time_one_row" else 5), 8
        if case == "token_embedding":
            # constant observation features, then state features with a gradient
            arrays = [f32(B, 4, 3), f32(3, E), f32(E), f32(B, 1, 2), f32(2, E), f32(E)]
            g = f32(B, 5, E)
            want, want_grads = composed_token_embedding([arrays[:3], arrays[3:]], g)
            want_grads[0] = None
            op = lambda t: T.token_embedding([t[:3], t[3:]])
        elif case == "head":
            arrays = [f32(B, E), f32(E), f32(E, 3), f32(3)]
            g = f32(B, 3)
            want, want_grads = composed_head(*arrays, g)
            op = lambda t: T.head(*t)
        else:                   # a (B, 1, E) basis, one flow time per row
            basis = f32(B, 1, E)
            arrays = [f32(B, 4, E), f32(E, E), f32(E), f32(E, E), f32(E)]
            g = f32(B, 4, E)
            want, want_grads = composed_time_embedding(arrays[0], basis, *arrays[1:], g)
            op = lambda t: T.time_embedding(t[0], basis, *t[1:])
        inputs = [Tensor(a, requires_grad=w is not None) for a, w in zip(arrays, want_grads)]
        with Tape() as tape:
            out = op(inputs)
        assert len(tape) == 1
        grads = tape.records[0][2](g)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, want)
        assert len(grads) == len(want_grads)
        for got, expected in zip(grads, want_grads):
            if expected is None:
                assert got is None
            else:
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

    def test_observation_rows_ignore_the_state_row(self):
        # the observation stream's outputs, and so the gradients that reach
        # the observation rows from them, do not depend on the last token
        rng = np.random.default_rng(11)
        arrays = block_inputs("attention", rng, 5, 4, 8, np.float32)
        g = rng.normal(size=(5, 4, 8)).astype(np.float32)
        g[:, -1] = 0
        out, grads = run_block("attention", arrays, g)
        moved = [a.copy() for a in arrays]
        moved[0][:, -1] += rng.normal(scale=3.0, size=(5, 8)).astype(np.float32)
        moved_out, moved_grads = run_block("attention", moved, g)
        assert np.abs(moved_out[:, -1] - out[:, -1]).min() > 0
        np.testing.assert_array_equal(moved_out[:, :-1], out[:, :-1])
        np.testing.assert_array_equal(moved_grads[0][:, :-1], grads[0][:, :-1])
        np.testing.assert_array_equal(moved_grads[0][:, -1], 0)

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
        x = Tensor(np.full((1, 3, 2), 3.0), requires_grad=True)
        c = Tensor([5.0], requires_grad=True)
        with Tape() as tape:
            pass_through(x)
            loss = T.mse(c, np.zeros(1))
        assert len(tape) == 2
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
        # nested, the pass-through would land on the inner tape and the outer
        # tape's backward would leave x.grad None without a word
        x = Tensor(np.ones((1, 3, 1)), requires_grad=True)
        with pytest.raises(RuntimeError, match="tapes do not nest"):
            with Tape() as outer:
                with Tape():
                    y = pass_through(x)
                loss = T.mse(y, np.zeros(y.shape))
            backward(loss, outer)
        assert x.grad is None
        # the failed attempt leaves no tape open
        with Tape() as tape:
            loss = T.mse(pass_through(x), np.zeros(x.shape))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, np.full(x.shape, 2.0 / 3.0))

    def test_requires_scalar_loss(self):
        x = Tensor(np.ones((1, 3, 1)), requires_grad=True)
        with Tape() as tape:
            y = pass_through(x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_sweep_empties_the_tape(self):
        x = Tensor(np.ones((2, 3, 2)), requires_grad=True)
        with Tape() as tape:
            loss = T.mse(rms_norm(pass_through(x), Tensor(np.ones(2))), np.zeros(x.shape))
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
        # time_embedding hands its output's gradient on to x as the same array
        x = Tensor(np.ones((2, 3, 2)), requires_grad=True)
        with Tape() as tape:
            loss = T.mse(pass_through(x), np.zeros(x.shape))
        out, inputs, bwd = tape.records[0]
        handed = []
        tape.records[0] = (out, inputs, lambda g: handed.append(bwd(g)) or handed[0])
        backward(loss, tape)
        passed = handed[0][0]
        assert not np.shares_memory(x.grad, passed)
        assert x.grad.flags.writeable
        before = passed.copy()
        x.grad *= 2.0
        np.testing.assert_array_equal(passed, before)
        np.testing.assert_array_equal(x.grad, 2.0 * before)

    def test_one_weight_in_two_groups_gets_both_gradients(self):
        rng = np.random.default_rng(14)
        xs = [Tensor(rng.normal(size=(2, n, 3)), dtype=np.float64) for n in (4, 1)]
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=5), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            out = T.token_embedding([(x, w, b) for x in xs])
            loss = T.mse(out, np.zeros(out.shape))
        backward(loss, tape)
        g = 2.0 * out.data / out.size
        np.testing.assert_allclose(w.grad, sum(x.data.reshape(-1, 3).T @ gi.reshape(-1, 5)
                                               for x, gi in zip(xs, (g[:, :4], g[:, 4:]))),
                                   rtol=1e-12)
        np.testing.assert_allclose(b.grad, g.sum(axis=(0, 1)), rtol=1e-12)

    def test_linearity(self):
        # the loss over two token groups is the mean of the two groups' losses,
        # and x reaches it through both groups and the nonlinear MLP
        rng = np.random.default_rng(3)
        xv = rng.normal(size=(2, 3, 4)).astype(np.float32)
        w1, w2 = (Tensor(a) for a in rng.normal(size=(2, 4, 6)).astype(np.float32))
        b1, b2 = (Tensor(a) for a in rng.normal(size=(2, 6)).astype(np.float32))
        mlp = [Tensor(a) for a in block_inputs("mlp", rng, 1, 1, 6, np.float32)[1:]]

        def grad_of(groups):
            x = Tensor(xv, requires_grad=True)
            with Tape() as tape:
                h = T.mlp_block(T.token_embedding([(x, w, b) for w, b in groups]), *mlp)
                loss = T.mse(h, np.zeros(h.shape))
            backward(loss, tape)
            return x.grad.astype(np.float64)

        both = grad_of([(w1, b1), (w2, b2)])
        np.testing.assert_allclose(2.0 * both, grad_of([(w1, b1)]) + grad_of([(w2, b2)]),
                                   atol=1e-6)

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        params = {k: Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
                  for k, shape in (("w", (5, 4)), ("b", (4,)), ("t1", (4, 4)), ("c1", (4,)),
                                   ("t2", (4, 4)), ("c2", (4,)), ("hw", (4, 2)), ("hb", (2,)))}
        params["g"] = Tensor(rng.uniform(0.5, 1.5, 4).astype(np.float32), requires_grad=True)
        for kind in ("attention", "mlp"):
            for i, a in enumerate(block_inputs(kind, rng, 1, 1, 4, np.float32)[1:]):
                params[f"{kind}{i}"] = Tensor(a, requires_grad=True)
        x = rng.normal(size=(2, 3, 5))
        basis = rng.normal(size=(2, 1, 4))

        def fn(p):
            h = T.token_embedding([(Tensor(x, dtype=p["w"].dtype), p["w"], p["b"])])
            h = T.time_embedding(h, basis, p["t1"], p["c1"], p["t2"], p["c2"])
            h = T.attention_block(h, *(p[f"attention{i}"] for i in range(5)), 2, state_only=True)
            h = T.head(T.mlp_block(h, *(p[f"mlp{i}"] for i in range(5))), p["g"], p["hw"], p["hb"])
            return T.mse(h, np.zeros(h.shape))

        assert finite_difference_check(fn, params) < 1e-4

    def test_determinism(self):
        x, *weights = block_inputs("attention", np.random.default_rng(5), 4, 6, 12, np.float32)

        def run():
            t = Tensor(x, requires_grad=True)
            with Tape() as tape:
                loss = T.mse(T.attention_block(t, *map(Tensor, weights), 2), np.zeros(x.shape))
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
    "token_embedding": ("token_embedding",),
    "time_embedding": ("time_embedding",),
    "attention_block": ("attention_block",),
    "mlp_block": ("mlp_block",),
    "head": ("head",),
    "mse": ("mse",),
    # the formulas the fused ops are built from, each on its own
    "linear": ("token_embedding",),
    "concat": ("token_embedding",),
    "add": ("time_embedding",),
    "relu_squared": ("time_embedding",),
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
    """Finite-difference checks for every tape op, on random small shapes,
    in float64."""

    @pytest.mark.parametrize("op_name", list(GRADIENT_CASES))
    def test_op(self, op_name):
        rng = np.random.default_rng(zlib.crc32(op_name.encode()))

        def param(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        def sq(out):
            return T.mse(out, np.zeros(out.shape))

        a = rng.normal(size=(3, 4, 6))
        params = {"a": param(3, 4, 6)}
        entries = None
        if op_name == "token_embedding":
            # constant observation features; the state features require a gradient
            params = {"s": param(3, 1, 2), "w": param(6, 5), "c": param(5), "ws": param(2, 5),
                      "cs": param(5)}
            variants = [lambda p: sq(T.token_embedding([
                (Tensor(a, dtype=p["w"].dtype), p["w"], p["c"]), (p["s"], p["ws"], p["cs"])]))]
        elif op_name == "time_embedding":
            # a time per row, then another, through the same weights
            rows, later = rng.normal(size=(2, 3, 1, 6))
            params.update((k, param(*shape)) for k, shape in
                          (("w1", (6, 6)), ("b1", (6,)), ("w2", (6, 6)), ("b2", (6,))))

            def embed_twice(p):
                w = [p[k] for k in ("w1", "b1", "w2", "b2")]
                return sq(T.time_embedding(T.time_embedding(p["a"], rows, *w), later, *w))

            variants = [embed_twice]
        elif op_name == "linear":
            # one group, float64 state features that require a gradient, k != E
            params = {"s": param(3, 2, 4), "w": param(4, 5), "c": param(5)}
            variants = [lambda p: sq(T.token_embedding([(p["s"], p["w"], p["c"])]))]
        elif op_name == "concat":
            # groups of 3, 1 and 2 tokens; one weight fans out to two of them
            params = {"u": param(3, 1, 4), "v": param(3, 2, 4), "w": param(6, 5),
                      "wv": param(4, 5), "c": param(5), "cu": param(5), "cv": param(5)}
            variants = [lambda p: sq(T.token_embedding([
                (Tensor(a[:, :3], dtype=p["w"].dtype), p["w"], p["c"]),
                (p["u"], p["wv"], p["cu"]), (p["v"], p["wv"], p["cv"])]))]
        elif op_name == "add":
            # a (1, 1, E) basis on the state token of one row
            params = {k: param(*shape) for k, shape in
                      (("x1", (1, 4, 6)), ("w1", (6, 6)), ("b1", (6,)), ("w2", (6, 6)),
                       ("b2", (6,)))}
            one = rng.normal(size=(1, 1, 6))
            w = ["w1", "b1", "w2", "b2"]
            variants = [lambda p: sq(T.time_embedding(p["x1"], one, *(p[k] for k in w)))]
        elif op_name == "relu_squared":
            # pre-activations of both signs: half the first-layer units are off
            params = {"x": param(3, 2, 6), "w1": param(6, 8), "b1": param(8), "w2": param(8, 6),
                      "b2": param(6)}
            rows = rng.normal(size=(3, 1, 6))
            pre = rows.reshape(3, 6) @ params["w1"].data + params["b1"].data
            assert (pre < 0).any() and (pre > 0).any()
            variants = [lambda p: sq(T.time_embedding(p["x"], rows, p["w1"], p["b1"], p["w2"],
                                                      p["b2"]))]
        elif op_name == "head":
            params = {"r": param(5, 6), "g": param(6), "w": param(6, 3), "c": param(3)}
            variants = [lambda p: sq(T.head(p["r"], p["g"], p["w"], p["c"]))]
        elif op_name == "attention_block":         # E 6; 2 heads of 3
            for i, w in enumerate(block_inputs("attention", rng, 3, 1, 6, np.float64)):
                params[f"w{i}"] = Tensor(w, requires_grad=True)
            # the key bias is not checked: softmax is shift-invariant, so its
            # gradient is 0 and its finite differences are rounding noise
            entries = {"w3": np.r_[0:6, 12:18]}
            w = ["w1", "w2", "w3", "w4", "w5"]
            # 4 tokens (the three observation queries skip the state's key),
            # the last one's query, 1 token
            variants = [
                lambda p: sq(T.attention_block(p["a"], *(p[k] for k in w), 2)),
                lambda p: sq(T.attention_block(p["a"], *(p[k] for k in w), 2, state_only=True)),
                lambda p: sq(T.attention_block(p["w0"], *(p[k] for k in w), 2)),
            ]
        elif op_name == "mlp_block":
            for i, w in enumerate(block_inputs("mlp", rng, 3, 1, 6, np.float64)[1:], 1):
                params[f"w{i}"] = Tensor(w, requires_grad=True)
            variants = [lambda p: sq(T.mlp_block(p["a"], *(p[f"w{i}"] for i in range(1, 6))))]
        elif op_name == "mse":                     # a gradient of the loss other than 1
            b = rng.normal(size=(3, 4, 6))
            variants = [lambda p: sq(T.mse(p["a"], b))]

        # every entry of a fused block's inputs, 20 of each other op's
        max_entries = None if op_name.endswith("_block") else 20
        for fn in variants:
            assert finite_difference_check(fn, params, max_entries=max_entries,
                                           entries=entries) < 1e-4
