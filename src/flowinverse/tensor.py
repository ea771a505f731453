"""Dense tensors with reverse-mode automatic differentiation.

A minimal define-by-run engine on top of numpy, just large enough to train
the velocity networks in this package. Arrays are float32 by default; float64
works too, for finite-difference gradient checks. The graph is recorded on an
explicit :class:`Tape` that is rebuilt for every forward pass, so batches
with different sequence lengths pose no problem.

The tape ops are the layers of the velocity net and its loss, one record
each: :func:`token_embedding`, :func:`time_embedding`, the transformer's two
pre-norm sub-blocks :func:`attention_block` and :func:`mlp_block`,
:func:`head` and the loss :func:`mse`. Each is a private array forward (the
net's tape-free conditioning calls them, and its velocity step the formulas
beneath them) plus a hand-written backward; intermediates are private, so
the blocks reuse buffers in place, and backwards recompute the cheap ones.

Reductions use numpy's fixed evaluation order, so results are bitwise
reproducible for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_DTYPE = np.float32


class Tensor:
    """A dense n-dimensional array that can participate in autodiff.

    ``requires_grad`` marks the leaves (tensors no op produced, such as
    parameters) whose ``grad`` buffer :func:`backward` adds to. Tensors
    produced by operations carry ``requires_grad=True`` transitively but
    never receive a ``grad`` buffer themselves.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

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

    The tape's leaves are the tensors that none of its records produced.
    One tape records at a time: entering a tape while another is open raises
    ``RuntimeError``, because a graph split over two tapes loses gradients.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records = []

    def __enter__(self):
        global _OPEN_TAPE
        if _OPEN_TAPE is not None:
            raise RuntimeError("another tape is already recording; tapes do not nest")
        _OPEN_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _OPEN_TAPE
        _OPEN_TAPE = None
        return False

    def __len__(self):
        return len(self.records)


_OPEN_TAPE: Tape | None = None


def _record(out, inputs, backward_fn):
    if _OPEN_TAPE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _OPEN_TAPE.records.append((out, inputs, backward_fn))
    return out


# ---------------------------------------------------------------------------
# shared formulas
# ---------------------------------------------------------------------------
# Each forward and backward formula is written once, on arrays; the ops
# below and the net's inference path call the same helpers.

RMS_EPS = 1e-8


def _sum_rows(g2):
    """Column sums of a 2-D array, as one GEMV."""
    return np.ones(len(g2), dtype=g2.dtype) @ g2


def _check_linear(x_shape, w, b, n_out=None):
    k, n = w.shape
    if x_shape[-1] != k or b.shape != (n,) or n_out not in (None, n):
        raise ValueError(f"linear shapes do not match: x {x_shape}, w {w.shape}, b {b.shape}")


def _linear_fwd(x2, w, b):
    """(rows, k) @ (k, n) + (n,) as one 2-D GEMM, the bias added in place."""
    y = x2 @ w
    y += b
    return y


def _linear_bwd(g2, x2, w, need_x=True):
    """Gradients of x2, w and b from a (rows, n) output gradient."""
    return (g2 @ w.T if need_x else None), x2.T @ g2, _sum_rows(g2)


def _check_rms(x_shape, gain):
    if gain.shape != x_shape[-1:]:
        raise ValueError(f"rms_norm gain must have shape {x_shape[-1:]}, got {gain.shape}")


def _rms_scale(xd, gain, inv):
    """(x / rms(x) · gain, x / rms(x))."""
    xhat = xd * inv
    return xhat * gain, xhat


def _rms_bwd(g, xd, gain, inv, xhat):
    """Gradients of x and gain; ``xhat`` is overwritten."""
    n = xd.shape[-1]
    gg = g * gain
    dot = np.einsum("...i,...i->...", gg, xd)[..., None]
    xhat *= g
    dgain = _sum_rows(xhat.reshape(-1, n))
    gx = xd * (inv ** 3)
    gx *= dot / n
    gg *= inv
    gg -= gx                              # gg · inv - x · inv³ · dot / n
    return gg, dgain


def _relu_squared(f, out=None):
    """(relu(f)², relu(f))."""
    r = np.maximum(f, 0, out=out)
    return r * r, r


def _relu_squared_bwd(g, r, out=None):
    """g · 2 relu(f), formed in ``out`` if given (an array of r's shape)."""
    two_r = np.multiply(r, 2, out=out)
    return np.multiply(g, two_r, out=two_r)


def _embed_fwd(f, w, b):
    """One group's token embedding: (..., k) features projected to (..., E)."""
    return _linear_fwd(f.reshape(-1, w.shape[0]), w, b).reshape(f.shape[:-1] + w.shape[1:])


def _time_fwd(state, basis, w1, b1, w2, b2):
    """Add w2(relu²(w1(basis))) to the state rows in place; return relu², relu."""
    sq, r = _relu_squared(_linear_fwd(basis, w1, b1))
    state += _linear_fwd(sq, w2, b2)
    return sq, r


def _prenorm_fwd(x, gain, w, b):
    """w(rms_norm(x, gain)) of (..., E) rows, as (rows, n), and 1 / rms(x).
    A gain of None is one already folded into w, as g[:, None] · w."""
    inv = np.einsum("...i,...i->...", x, x)[..., None]
    inv /= x.shape[-1]
    inv += x.dtype.type(RMS_EPS)
    np.reciprocal(np.sqrt(inv, out=inv), out=inv)
    h = x * inv if gain is None else _rms_scale(x, gain, inv)[0]
    return _linear_fwd(h.reshape(-1, x.shape[-1]), w, b), inv


def _residual_fwd(x2, w, b, res):
    """res + w(x2), shaped as res."""
    y = _linear_fwd(x2, w, b).reshape(res.shape)
    y += res
    return y


def _mlp_fwd(xd, gain, w1, b1, w2, b2):
    """x + w2(relu²(w1(rms_norm(x, gain)))) of (..., E) rows, with 1 / rms(x)
    and relu(f), which the backward needs."""
    f, inv = _prenorm_fwd(xd, gain, w1, b1)
    sq, r = _relu_squared(f, out=f)
    return _residual_fwd(sq, w2, b2, xd), inv, r


def _heads(qkv, n_head, kt, v, at=slice(None)):
    """Split a packed (B, T, 3E) q|k|v by head: its keys go to the slots ``at``
    of kt (B, H, hd, S), its values to those of v (B, H, S, hd); return q."""
    B, n_tok, E3 = qkv.shape
    parts = qkv.reshape(B, n_tok, 3, n_head, E3 // (3 * n_head)).transpose(2, 0, 3, 1, 4)
    kt[..., at] = parts[1].swapaxes(-1, -2)
    v[:, :, at] = parts[2]
    return parts[0]


def _attention_weights(q, kt, two_stream=False, mask=None):
    """The weights of :func:`_attention_fwd`, (..., Tq, T), ``mask`` added to the scores."""
    s = q @ kt
    s *= q.dtype.type(1.0 / math.sqrt(q.shape[-1]))
    if two_stream:                        # no rows if the state's is the only query
        s[..., :-1, -1] = -np.inf
    if mask is not None:
        s += mask
    # the exact row max as one elementwise pass per key over a keys-major
    # (T, rows) copy: numpy's max along a short last axis costs ~70 ns a row
    m = np.maximum.reduce(s.reshape(-1, s.shape[-1]).T.copy(), axis=0)
    s -= m.reshape(s.shape[:-1] + (1,))
    np.exp(s, out=s)
    s /= np.einsum("...i->...", s)[..., None]
    return s


def _attention_fwd(q, kt, v, two_stream=False):
    """Each head's softmax(q kᵀ / √hd) v of queries (B, H, Tq, hd), keys
    kt (B, H, hd, T) and values (B, H, T, hd), merged to (B, Tq, E), and the
    weights, which the backward needs.

    With ``two_stream`` the last key and query are the state's, and the other
    queries score its key −inf: it gets weight 0 and they attend to each
    other alone. The backward needs no change: a weight of 0 gives its score,
    and the key and value behind it, no gradient from that row."""
    B, n_head, n_q, hd = q.shape
    s = _attention_weights(q, kt, two_stream)
    return (s @ v).transpose(0, 2, 1, 3).reshape(B, n_q, n_head * hd), s


def _attention_bwd(g, q, kt, v, s):
    """The (B, T, 3E) q|k|v gradient from the (B, Tq, E) context gradient,
    for contiguous q, kt and v and the weights s of :func:`_attention_fwd`."""
    B, n_head, n_q, hd = q.shape
    n_tok = v.shape[2]
    g = np.ascontiguousarray(g.reshape(B, n_q, n_head, hd).transpose(0, 2, 1, 3))
    ds = g @ np.ascontiguousarray(v.swapaxes(-1, -2))
    ds -= np.einsum("...i,...i->...", ds, s)[..., None]
    ds *= s
    ds *= q.dtype.type(1.0 / math.sqrt(hd))
    dqkv = np.empty((B, n_tok, 3 * n_head * hd), dtype=g.dtype)
    d = dqkv.reshape(B, n_tok, 3, n_head, hd).transpose(2, 0, 3, 1, 4)
    d[0, :, :, :n_tok - n_q] = 0          # queries that were not used
    np.matmul(ds, np.ascontiguousarray(kt.swapaxes(-1, -2)), out=d[0, :, :, n_tok - n_q:])
    np.matmul(np.ascontiguousarray(ds.swapaxes(-1, -2)), q, out=d[1])
    np.matmul(np.ascontiguousarray(s.swapaxes(-1, -2)), g, out=d[2])
    return dqkv


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------
# One tape record each: a forward above, which inference shares, and a
# hand-written backward. Each runs the float operations of the composition it
# fuses (linear layers, relu², an rms norm, masked attention, a concat or an
# add), in that composition's order, so (without ``state_only``) its output
# and gradients are bitwise the composition's; tests/test_tensor.py checks
# this against a plain-numpy composition. The sub-blocks' tape keeps
# 1 / rms(x), the attention's q, kᵀ, v and weights, its context and relu(f);
# the backward recomputes the normalised input and relu².

def token_embedding(groups) -> Tensor:
    """Project each ``(features, w, b)`` group, features (B, n_g, k), to
    (B, n_g, E) and join the groups along the token axis. A group's features
    get a gradient only if they require one (raw token features do not)."""
    groups = list(groups)
    E = groups[0][1].shape[-1]
    for f, w, b in groups:
        _check_linear(f.shape, w, b, E)
    out = np.concatenate([_embed_fwd(f.data, w.data, b.data) for f, w, b in groups], axis=1)
    splits = np.cumsum([f.shape[1] for f, _, _ in groups])[:-1]

    def bwd(g):
        grads = []
        for gi, (f, w, _) in zip(np.split(g, splits, axis=1), groups):
            gx, gw, gb = _linear_bwd(gi.reshape(-1, E), f.data.reshape(-1, w.shape[0]), w.data,
                                     f.requires_grad)
            grads += [None if gx is None else gx.reshape(f.shape), gw, gb]
        return grads

    inputs = tuple(t for group in groups for t in group)
    return _record(Tensor(out, dtype=groups[0][0].dtype), inputs, bwd)


def time_embedding(x: Tensor, basis, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """x + w2(relu²(w1(basis))) on the last token of a (B, T, E) sequence,
    the state; the other tokens pass through. ``basis`` is a constant
    (B, 1, k) array, the flow-time features of each row."""
    B, _, E = x.shape
    basis = np.asarray(basis, dtype=w1.dtype)
    if basis.ndim != 3 or basis.shape[:2] != (B, 1):
        raise ValueError(f"time_embedding basis must have shape ({B}, 1, k), got {basis.shape}")
    _check_linear(basis.shape, w1, b1)
    _check_linear(w1.shape, w2, b2, E)
    x2 = basis.reshape(B, -1)
    y = x.data.copy()
    sq, r = _time_fwd(y[:, -1], x2, w1.data, b1.data, w2.data, b2.data)

    def bwd(g):
        dsq, dw2, db2 = _linear_bwd(g[:, -1], sq, w2.data)
        _, dw1, db1 = _linear_bwd(_relu_squared_bwd(dsq, r), x2, w1.data, need_x=False)
        return g, dw1, db1, dw2, db2

    return _record(Tensor(y, dtype=x.dtype), (x, w1, b1, w2, b2), bwd)


def attention_block(x: Tensor, gain: Tensor, wqkv: Tensor, bqkv: Tensor,
                    wo: Tensor, bo: Tensor, n_head: int, state_only: bool = False) -> Tensor:
    """Pre-norm self-attention of a (B, T, E) sequence in two streams,
    x + wo(attention(wqkv(rms_norm(x, gain)))), with q|k|v packed in one
    (E, 3E) weight. The last token is the state: it attends to every token,
    while the others, the observation stream, attend to each other alone
    (their scores against the state's key are −inf before the row max). So
    the observation rows' outputs do not depend on the state row.

    With ``state_only`` the query, the output projection and the residual
    are computed for the last token alone and the result is that token's
    (B, E); keys and values still come from every token.
    """
    B, n_tok, E = x.shape
    _check_rms(x.shape, gain)
    _check_linear(x.shape, wqkv, bqkv, 3 * E)
    _check_linear(x.shape, wo, bo, E)
    if n_head < 1 or E % n_head:
        raise ValueError(f"attention needs n_emb divisible by n_head, "
                         f"got n_emb={E} with n_head={n_head}")
    xd = x.data
    qkv, inv = _prenorm_fwd(xd, gain.data, wqkv.data, bqkv.data)
    kt = np.empty((B, n_head, E // n_head, n_tok), dtype=xd.dtype)
    v = np.empty((B, n_head, n_tok, E // n_head), dtype=xd.dtype)
    q = _heads(qkv.reshape(B, n_tok, 3 * E), n_head, kt, v)
    # contiguous: the backward's products round differently on a strided q,
    # which would move the digests that pin the gradients (TestBitwisePins)
    q = np.ascontiguousarray(q[:, :, n_tok - 1:] if state_only else q)
    ctx, s = _attention_fwd(q, kt, v, two_stream=True)
    sel = -1 if state_only else slice(None)
    c2 = ctx.reshape(-1, E)
    y = _residual_fwd(c2, wo.data, bo.data, xd[:, sel])

    def bwd(g):
        dc, dwo, dbo = _linear_bwd(g.reshape(-1, E), c2, wo.data)
        dqkv = _attention_bwd(dc, q, kt, v, s).reshape(-1, 3 * E)
        h, xhat = _rms_scale(xd, gain.data, inv)
        dh, dwqkv, dbqkv = _linear_bwd(dqkv, h.reshape(-1, E), wqkv.data)
        dx, dgain = _rms_bwd(dh.reshape(xd.shape), xd, gain.data, inv, xhat)
        dx[:, sel] += g
        return dx, dgain, dwqkv, dbqkv, dwo, dbo

    return _record(Tensor(y, dtype=x.dtype), (x, gain, wqkv, bqkv, wo, bo), bwd)


def mlp_block(x: Tensor, gain: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Pre-norm squared-ReLU MLP, x + w2(relu²(w1(rms_norm(x, gain))))."""
    E = x.shape[-1]
    _check_rms(x.shape, gain)
    _check_linear(x.shape, w1, b1)
    _check_linear(w1.shape, w2, b2, E)
    xd = x.data
    y, inv, r = _mlp_fwd(xd, gain.data, w1.data, b1.data, w2.data, b2.data)

    def bwd(g):
        sq = r * r                        # the tape keeps relu(f) alone
        dsq, dw2, db2 = _linear_bwd(g.reshape(-1, E), sq, w2.data)
        df = _relu_squared_bwd(dsq, r, out=sq)
        h, xhat = _rms_scale(xd, gain.data, inv)
        dh, dw1, db1 = _linear_bwd(df, h.reshape(-1, E), w1.data)
        dx, dgain = _rms_bwd(dh.reshape(xd.shape), xd, gain.data, inv, xhat)
        dx += g
        return dx, dgain, dw1, db1, dw2, db2

    return _record(Tensor(y, dtype=x.dtype), (x, gain, w1, b1, w2, b2), bwd)


def head(x: Tensor, gain: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The read-out w(rms_norm(x, gain)) of (..., E) rows."""
    _check_rms(x.shape, gain)
    _check_linear(x.shape, w, b)
    xd = x.data
    E = xd.shape[-1]
    y, inv = _prenorm_fwd(xd, gain.data, w.data, b.data)

    def bwd(g):
        h, xhat = _rms_scale(xd, gain.data, inv)
        dh, dw, db = _linear_bwd(g.reshape(-1, w.shape[1]), h.reshape(-1, E), w.data)
        dx, dgain = _rms_bwd(dh.reshape(xd.shape), xd, gain.data, inv, xhat)
        return dx, dgain, dw, db

    return _record(Tensor(y.reshape(xd.shape[:-1] + (-1,)), dtype=x.dtype), (x, gain, w, b), bwd)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def mse(v: Tensor, target) -> Tensor:
    """mean((v - target)²) over every entry, as one record; ``target`` is a
    constant array of v's shape."""
    target = np.asarray(target, dtype=v.dtype)
    if target.shape != v.shape:
        raise ValueError(f"mse target must have shape {v.shape}, got {target.shape}")
    diff = v.data - target
    out = Tensor(np.asarray((diff * diff).mean(), dtype=v.dtype), dtype=v.dtype)
    inv = v.dtype.type(1.0 / diff.size)

    def bwd(g):
        t = (g * inv) * diff
        return (t + t,)

    return _record(out, (v,), bwd)


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def backward(loss: Tensor, tape: Tape):
    """Add d(loss)/d(leaf) to ``grad`` of every requires_grad leaf the sweep
    reaches.

    The loss must be scalar. The sweep pops each record off ``tape`` with
    its output's gradient, so it frees each record's saved arrays as soon
    as its backward has run, and the gradients left at the end are the
    leaves' (a loss that is itself a leaf gets none). A leaf with no
    ``grad`` gets its own writable copy, so repeated passes sum their
    gradients until :meth:`Tensor.zero_grad` clears them.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    # id -> (tensor, gradient so far)
    grads = {id(loss): (loss, np.ones(loss.shape, dtype=loss.dtype))}
    records = tape.records
    while records:
        out, inputs, bwd = records.pop()
        entry = grads.pop(id(out), None)
        if entry is None:
            continue
        for t, gi in zip(inputs, bwd(entry[1])):
            if gi is None or not t.requires_grad:
                continue
            key = id(t)
            grads[key] = (t, grads[key][1] + gi) if key in grads else (t, gi)
    grads.pop(id(loss), None)
    for t, g in grads.values():
        g = np.asarray(g, dtype=t.dtype)
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


def adam_step(params: dict, state: AdamState):
    """One bias-corrected Adam update of ``params`` from their ``grad``
    buffers, and of ``state``, in place."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for k, p in params.items():
        g = p.grad
        if getattr(g, "shape", None) != p.data.shape:
            raise ValueError(f"adam_step shape mismatch for '{k}': param {p.data.shape} "
                             f"vs grad {getattr(g, 'shape', None)}")
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= (state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.dtype)
