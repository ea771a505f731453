import inspect
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowinverse import tensor as T
from flowinverse.tensor import (AdamState, Tape, Tensor, adam_step, backward,
                                finite_difference_check)


def scalar_loss(x):
    return T.mean_all(T.mul(x, x))


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        eye = Tensor(np.eye(4, dtype=np.float32))
        np.testing.assert_allclose(T.matmul(a, eye).data, a.data, rtol=1e-6)

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_zero_input_zero_gradient(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((3, 2)), requires_grad=True)
        with Tape() as tape:
            loss = T.mean_all(T.matmul(a, b))
        backward(loss, tape)
        assert np.all(a.grad == 0) and np.all(b.grad == 0)

    def test_shape_mismatch_message(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(a, b)

    def test_shared_weight_is_linear_not_matmul(self):
        with pytest.raises(ValueError, match=r"\(2, 3, 4\).*\(4, 5\)"):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3, 4)).astype(np.float32)
        b = rng.normal(size=(5, 4, 2)).astype(np.float32)
        out = T.matmul(Tensor(a), Tensor(b)).data
        for i in range(5):
            np.testing.assert_allclose(out[i], a[i] @ b[i], rtol=1e-5)


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
            loss = T.mean_all(T.linear(x, w, b))
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


class TestReluSquared:
    @pytest.mark.parametrize("x,y,g", [(-2.0, 0.0, 0.0), (3.0, 9.0, 6.0), (0.0, 0.0, 0.0)])
    def test_value_and_gradient(self, x, y, g):
        t = Tensor([x], requires_grad=True)
        with Tape() as tape:
            out = T.mean_all(T.relu_squared(t))
        assert out.item() == pytest.approx(y)
        backward(out, tape)
        assert t.grad[0] == pytest.approx(g)


class TestRmsNorm:
    def test_ones_stay_ones(self):
        x = Tensor(np.ones((2, 4)))
        g = Tensor(np.ones(4))
        np.testing.assert_allclose(T.rms_norm(x, g, eps=1e-12).data, 1.0, atol=1e-6)

    def test_plus_minus_three(self):
        x = Tensor([[3.0, -3.0]])
        g = Tensor(np.ones(2))
        np.testing.assert_allclose(T.rms_norm(x, g, eps=1e-12).data, [[1.0, -1.0]], atol=1e-6)

    def test_zero_gain_zero_output(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        g = Tensor(np.zeros(5))
        assert np.all(T.rms_norm(x, g).data == 0)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            T.rms_norm(Tensor(np.ones(3)), Tensor(np.ones(3)), eps=0.0)

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


class TestSoftmax:
    def test_uniform_input(self):
        out = T.softmax_lastdim(Tensor(np.full((2, 5), 3.0))).data
        np.testing.assert_allclose(out, 0.2, atol=1e-7)

    def test_log3(self):
        out = T.softmax_lastdim(Tensor([[0.0, np.log(3.0)]])).data
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-6)

    def test_shift_invariance(self):
        x = np.random.default_rng(2).normal(size=(3, 6)).astype(np.float32)
        a = T.softmax_lastdim(Tensor(x)).data
        b = T.softmax_lastdim(Tensor(x + 7.5)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    @given(st.integers(1, 6), st.integers(2, 9), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, rows, cols, seed):
        x = np.random.default_rng(seed).normal(scale=10, size=(rows, cols))
        out = T.softmax_lastdim(Tensor(x)).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(-1), 1.0, atol=1e-6)


class TestBackward:
    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = T.mean_all(T.mul(x, x))
        backward(loss, tape)
        assert x.grad[0] == pytest.approx(6.0)

    def test_constant_has_zero_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        c = Tensor([5.0], requires_grad=True)
        with Tape() as tape:
            loss = T.mean_all(T.add(c, T.sub(x, x)))
        backward(loss, tape)
        assert x.grad[0] == pytest.approx(0.0)

    def test_requires_scalar_loss(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_second_backward_adds_to_the_gradient(self):
        x = Tensor([1.0], requires_grad=True)

        def grad_after_pass():
            with Tape() as tape:
                loss = T.mean_all(T.mul(x, x))
            backward(loss, tape)
            return x.grad[0]

        assert grad_after_pass() == 2.0
        assert grad_after_pass() == 4.0     # d(x^2)/dx = 2, summed over two passes
        x.zero_grad()
        assert grad_after_pass() == 2.0

    def test_leaves_get_their_own_writable_gradients(self):
        # add passes its incoming gradient to both inputs unchanged, and
        # mean_all's is a read-only broadcast view
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = T.mean_all(T.add(a, b))
        backward(loss, tape)
        assert a.grad is not b.grad
        assert a.grad.flags.writeable and b.grad.flags.writeable
        third = b.grad.copy()
        a.grad *= 2.0
        np.testing.assert_array_equal(a.grad, 2.0 * third)
        np.testing.assert_array_equal(b.grad, third)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        xv = rng.normal(size=(4,)).astype(np.float32)

        def grad_of(fn):
            x = Tensor(xv, requires_grad=True)
            with Tape() as tape:
                loss = fn(x)
            backward(loss, tape)
            return x.grad.astype(np.float64)

        f = lambda x: T.mean_all(T.mul(x, x))
        g = lambda x: T.mean_all(T.relu_squared(x))
        two, minus_three = Tensor(np.float32(2.0)), Tensor(np.float32(-3.0))
        combo = lambda x: T.add(T.mul(f(x), two), T.mul(g(x), minus_three))
        lhs = grad_of(combo)
        rhs = 2.0 * grad_of(f) - 3.0 * grad_of(g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        params = {
            "w": Tensor(rng.normal(size=(5, 4)).astype(np.float32), requires_grad=True),
            "b": Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True),
            "g": Tensor(rng.uniform(0.5, 1.5, 4).astype(np.float32), requires_grad=True),
        }
        x = rng.normal(size=(3, 5))

        def fn(p):
            h = T.add(T.matmul(Tensor(x, dtype=p["w"].dtype), p["w"]), p["b"])
            h = T.rms_norm(h, p["g"])
            h = T.softmax_lastdim(T.relu_squared(h))
            return T.mean_all(T.mul(h, h))

        assert finite_difference_check(fn, params) < 1e-4

    def test_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 6)).astype(np.float32)

        def run():
            t = Tensor(x, requires_grad=True)
            with Tape() as tape:
                loss = T.mean_all(T.softmax_lastdim(T.matmul(t, t)))
            backward(loss, tape)
            return loss.item(), t.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        state = AdamState(p, lr=0.1)
        before = p["w"].data.copy()
        adam_step(p, {"w": np.zeros(2, dtype=np.float32)}, state)
        np.testing.assert_array_equal(p["w"].data, before)
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        p = {"w": Tensor(np.array([0.5]), requires_grad=True)}
        state = AdamState(p, lr=0.1)
        adam_step(p, {"w": np.ones(1, dtype=np.float32)}, state)
        # bias correction makes the first update ~ lr * g / |g|
        assert p["w"].data[0] == pytest.approx(0.5 - 0.1, abs=1e-6)

    def test_identical_params_update_identically(self):
        p = {"a": Tensor(np.array([1.0]), requires_grad=True),
             "b": Tensor(np.array([1.0]), requires_grad=True)}
        state = AdamState(p, lr=0.05)
        g = {"a": np.array([0.3], dtype=np.float32), "b": np.array([0.3], dtype=np.float32)}
        for _ in range(7):
            adam_step(p, g, state)
        np.testing.assert_array_equal(p["a"].data, p["b"].data)

    def test_shape_mismatch(self):
        p = {"w": Tensor(np.ones(3), requires_grad=True)}
        state = AdamState(p, lr=0.1)
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(p, {"w": np.ones(4, dtype=np.float32)}, state)

    def test_moments_start_at_zero(self):
        p = {"w": Tensor(np.ones((2, 2)), requires_grad=True)}
        state = AdamState(p, lr=0.1)
        assert state.step == 0
        assert np.all(state.m["w"] == 0) and np.all(state.v["w"] == 0)


# Finite-difference case -> the public tape ops it checks.
GRADIENT_CASES = {
    "add": ("add",),
    "sub": ("sub",),
    "mul": ("mul",),
    "matmul": ("matmul",),
    "linear": ("linear",),
    "relu_squared": ("relu_squared",),
    "rms_norm": ("rms_norm",),
    "softmax_lastdim": ("softmax_lastdim",),
    "softmax_scaled": ("softmax_lastdim",),
    "reshape_transpose": ("reshape", "transpose"),
    "concat_slice": ("concat", "slice_axis"),
    "mean_all": ("mean_all",),
}
NOT_TAPE_OPS = {"backward", "adam_step", "finite_difference_check"}


def test_every_tape_op_has_a_gradient_case():
    public = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
              if fn.__module__ == T.__name__ and not name.startswith("_")}
    covered = {op for ops in GRADIENT_CASES.values() for op in ops}
    assert public - NOT_TAPE_OPS - covered == set()


class TestPrimitiveGradients:
    """Finite-difference checks for every primitive, on random small shapes."""

    @pytest.mark.parametrize("op_name", list(GRADIENT_CASES))
    def test_op(self, op_name):
        rng = np.random.default_rng(zlib.crc32(op_name.encode()))
        a = rng.normal(size=(3, 4, 6)).astype(np.float32)
        b = rng.normal(size=(3, 4, 6)).astype(np.float32)
        params = {"a": Tensor(a, requires_grad=True), "b": Tensor(b, requires_grad=True)}
        if op_name == "linear":
            params["w"] = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
            params["c"] = Tensor(rng.normal(size=(5,)), requires_grad=True)

        def fn(p):
            if op_name == "add":
                out = T.add(p["a"], p["b"])
            elif op_name == "sub":
                out = T.sub(p["a"], p["b"])
            elif op_name == "mul":
                out = T.mul(p["a"], p["b"])
            elif op_name == "matmul":
                out = T.matmul(p["a"], T.transpose(p["b"], (0, 2, 1)))
            elif op_name == "linear":
                out = T.linear(p["a"], p["w"], p["c"])
            elif op_name == "relu_squared":
                out = T.relu_squared(p["a"])
            elif op_name == "rms_norm":
                out = T.rms_norm(p["a"], T.reshape(T.slice_axis(
                    T.reshape(p["b"], (72,)), 0, 0, 6), (6,)))
            elif op_name == "softmax_lastdim":
                out = T.softmax_lastdim(p["a"])
            elif op_name == "softmax_scaled":
                out = T.softmax_lastdim(p["a"], 2.5)
            elif op_name == "reshape_transpose":
                out = T.transpose(T.reshape(p["a"], (3, 8, 3)), (2, 0, 1))
            elif op_name == "concat_slice":
                out = T.concat([T.slice_axis(p["a"], 1, 0, 2), p["b"]], axis=1)
            elif op_name == "mean_all":
                out = T.mean_all(T.mul(p["a"], p["b"]))
            return T.mean_all(T.mul(out, out))

        assert finite_difference_check(fn, params, max_entries=20) < 1e-4
