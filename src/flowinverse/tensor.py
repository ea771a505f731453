"""Dense tensors with reverse-mode automatic differentiation.

A minimal define-by-run engine on top of numpy, just large enough to train
the velocity networks in this package. Arrays are float32 by default; a
float64 mode exists for finite-difference gradient checking. The graph is
recorded on an explicit :class:`Tape` that is rebuilt for every forward pass,
so batches with different sequence lengths pose no problem.

Reductions use numpy's fixed evaluation order, so results are bitwise
reproducible for identical inputs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float32


class Tensor:
    """A dense n-dimensional array that can participate in autodiff.

    ``requires_grad`` marks leaf tensors (parameters) whose ``grad`` buffer
    :func:`backward` adds to. Tensors produced by operations carry
    ``requires_grad=True`` transitively but never receive a ``grad`` buffer
    themselves.
    """

    __slots__ = ("data", "requires_grad", "grad", "is_leaf")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.is_leaf = True

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        """Clear the gradient buffer; the next backward pass starts from zero."""
        self.grad = None

    def item(self):
        return self.data.item()

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag})"


class Tape:
    """Ordered record of operations for one forward pass.

    Operations are appended in execution order, so inputs of any record were
    produced earlier; the reverse sweep therefore sees gradients in valid
    topological order. Use as a context manager::

        with Tape() as tape:
            loss = ...
        backward(loss, tape)      # adds into each leaf's ``grad``

    Tapes nest; the innermost open one records, and they must exit in order.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if _TAPE_STACK.pop() is not self:
            raise RuntimeError("tape stack corrupted: exited tapes out of order")
        return False

    def __len__(self):
        return len(self.records)


_TAPE_STACK: list[Tape] = []


def _record(out, inputs, backward_fn):
    if _TAPE_STACK and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.is_leaf = False
        _TAPE_STACK[-1].records.append((out, inputs, backward_fn))
    return out


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, dtype=a.dtype)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, dtype=a.dtype)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, dtype=a.dtype)

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(..., k) @ (k, n) + (n,) as one 2-D GEMM; ``x`` gets a gradient only
    if it requires one (raw token features do not)."""
    k, n = w.shape
    xd = x.data
    if xd.shape[-1] != k or b.shape != (n,):
        raise ValueError(f"linear shapes do not match: x {xd.shape}, w {w.shape}, b {b.shape}")
    x2 = xd.reshape(-1, k)
    y = x2 @ w.data
    y += b.data
    out = Tensor(y.reshape(xd.shape[:-1] + (n,)), dtype=x.dtype)

    def bwd(g):
        g2 = g.reshape(-1, n)
        gx = (g2 @ w.data.T).reshape(xd.shape) if x.requires_grad else None
        return gx, x2.T @ g2, np.ones(len(g2), dtype=g2.dtype) @ g2

    return _record(out, (x, w, b), bwd)


def relu_squared(x: Tensor) -> Tensor:
    r = np.maximum(x.data, 0)
    out = Tensor(r * r, dtype=x.dtype)

    def bwd(g):
        return (g * (2 * r),)

    return _record(out, (x,), bwd)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-8) -> Tensor:
    """Scale each trailing-axis vector to unit root-mean-square, times gain."""
    if eps <= 0:
        raise ValueError(f"rms_norm eps must be > 0, got {eps}")
    if gain.shape != x.shape[-1:]:
        raise ValueError(f"rms_norm gain must have shape {x.shape[-1:]}, got {gain.shape}")
    xd = x.data
    n = xd.shape[-1]
    ms = np.einsum("...i,...i->...", xd, xd)[..., None] / n
    inv = 1.0 / np.sqrt(ms + xd.dtype.type(eps))
    xhat = xd * inv
    out = Tensor(xhat * gain.data, dtype=x.dtype)

    def bwd(g):
        gg = g * gain.data
        dot = np.einsum("...i,...i->...", gg, xd)[..., None]
        gx = gg * inv - xd * (inv ** 3) * (dot / n)
        g2 = (g * xhat).reshape(-1, n)
        return gx, np.ones(len(g2), dtype=g2.dtype) @ g2

    return _record(out, (x, gain), bwd)


def attention(qkv: Tensor, n_head: int) -> Tensor:
    """Bi-directional multi-head self-attention of a packed (B, T, 3E) q|k|v:
    each head's softmax(q kᵀ / √hd) v, merged back to (B, T, E).

    The head split, both products, the softmax and the head merge are one
    tape record; the backward reuses the stored probabilities.
    """
    B, n_tok, E3 = qkv.shape
    if n_head < 1 or E3 % (3 * n_head):
        raise ValueError(f"attention needs a last axis of 3 * n_head * head_dim, "
                         f"got {qkv.shape} with n_head={n_head}")
    E = E3 // 3
    hd = E // n_head
    # stacked matmul is ~3x slower on swapaxes views than on contiguous operands
    parts = qkv.data.reshape(B, n_tok, 3, n_head, hd).transpose(2, 0, 3, 1, 4)
    q = np.ascontiguousarray(parts[0])                       # (B, H, T, hd)
    kt = np.ascontiguousarray(parts[1].swapaxes(-1, -2))     # (B, H, hd, T)
    v = np.ascontiguousarray(parts[2])
    c = qkv.dtype.type(1.0 / np.sqrt(hd))
    s = q @ kt
    s *= c
    m = s[..., 0].copy()
    for i in range(1, n_tok):             # exact row max; fast on short rows
        np.maximum(m, s[..., i], out=m)
    s -= m[..., None]
    np.exp(s, out=s)
    s /= np.einsum("...i->...", s)[..., None]
    ctx = s @ v
    out = Tensor(ctx.transpose(0, 2, 1, 3).reshape(B, n_tok, E), dtype=qkv.dtype)

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
        return (d.transpose(1, 3, 0, 2, 4).reshape(B, n_tok, E3),)

    return _record(out, (qkv,), bwd)


def mean_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.mean(), dtype=x.dtype), dtype=x.dtype)
    inv = 1.0 / x.size

    def bwd(g):
        return (np.full(x.shape, g * x.dtype.type(inv), dtype=x.dtype),)

    return _record(out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape), dtype=x.dtype)

    def bwd(g):
        return (g.reshape(x.shape),)

    return _record(out, (x,), bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), dtype=tensors[0].dtype)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), bwd)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = Tensor(x.data[sl], dtype=x.dtype)

    def bwd(g):
        gx = np.zeros(x.shape, dtype=x.dtype)
        gx[sl] = g
        return (gx,)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def backward(loss: Tensor, tape: Tape):
    """Add d(loss)/d(leaf) to ``grad`` of every requires_grad leaf the sweep
    reaches.

    The loss must be scalar. A leaf with no ``grad`` gets its own writable
    copy of the gradient, so repeated passes sum their gradients until
    :meth:`Tensor.zero_grad` clears them.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    leaves: dict[int, Tensor] = {}
    for out, inputs, bwd in reversed(tape.records):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        if g.shape != out.shape:
            g = np.broadcast_to(g, out.shape)
        input_grads = bwd(g)
        for t, gi in zip(inputs, input_grads):
            if gi is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
            if t.is_leaf:
                leaves[key] = t
    for key, t in leaves.items():
        g = np.asarray(grads[key], dtype=t.dtype)
        # a copy: an op may hand one array, or a read-only view, to two inputs
        t.grad = np.array(g) if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second-moment buffers and step counter for Adam."""

    __slots__ = ("m", "v", "step", "lr")

    def __init__(self, params: dict, lr: float):
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.step = 0
        self.lr = lr


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected Adam update of ``params`` and ``state``, in place."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.data.shape:
            raise ValueError(f"adam_step shape mismatch for '{k}': param {p.data.shape} vs grad {g.shape}")
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= (state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.dtype)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def finite_difference_check(fn, params: dict, h: float = 1e-4, max_entries: int | None = None,
                            rng: np.random.Generator | None = None):
    """Compare analytic gradients of ``fn(params) -> scalar Tensor`` with
    central finite differences evaluated in float64.

    Returns the worst relative error over all checked parameter entries.
    ``max_entries`` limits the number of randomly chosen entries per tensor
    (None checks every entry).
    """
    shadow = {k: Tensor(p.data.astype(np.float64), requires_grad=True, dtype=np.float64)
              for k, p in params.items()}
    with Tape() as tape:
        loss = fn(shadow)
    backward(loss, tape)

    worst = 0.0
    for k, p in shadow.items():
        flat = p.data.reshape(-1)
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        gflat = grad.reshape(-1)
        idxs = np.arange(flat.size)
        if max_entries is not None and flat.size > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            fp = fn(shadow).item()
            flat[i] = orig - h
            fm = fn(shadow).item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            ref = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / ref)
    return worst
