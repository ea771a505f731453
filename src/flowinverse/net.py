"""The velocity-field network: a transformer over a set of observations.

Each observation is one token that carries its own design, e.g. (d_i, e_i);
a task whose design is shared adds one design token, and the state ``m_t``
comes last. The blocks run two streams over these tokens, with one set of
weights:

- the **observation stream**, the observation and design tokens, gets no
  flow time, and its queries attend only to its own keys, so it does not
  depend on the state or on t;
- the **state stream**, the state token alone, gets a sinusoidal-plus-MLP
  embedding of the flow time, and its query attends to every key.

There are no position embeddings, so the same weights accept any number of
observations, and the velocity does not depend on their order beyond float
rounding. A final RMS norm and a linear head read the velocity off the state
token. Since nothing reads the observation tokens after the last block, that
block computes its query, output projection, residual and MLP for the state
alone, as a (batch, n_emb) row each; keys and values still come from every
token.

The net has two entry points. Both compute with one set of formulas, the
private array functions of :mod:`tensor`, so they give the same velocity up
to the rounding of GEMMs of other shapes (within 1e-6 of max|v|):

- :meth:`VelocityNet.forward`, for training, runs both streams as one
  sequence and records one tape op per layer: :func:`tensor.token_embedding`,
  :func:`tensor.time_embedding` (added to the state token only), each
  block's fused pre-norm sub-blocks :func:`tensor.attention_block` (q|k|v
  packed in one (E, 3E) weight ``attn.wqkv``; the observation queries'
  scores against the state key are masked) and :func:`tensor.mlp_block`,
  and :func:`tensor.head` (final norm and read-out).
- :meth:`VelocityNet.condition` and :meth:`VelocityNet.velocity`, for
  inference, without tensors or a tape. ``condition`` computes once what an
  integration fixes, into a :class:`Conditioning`: each solver call's time
  embedding, the RMS gains folded into the weights they feed, and each
  block's keys and values of the observation stream of instances of any
  counts, run once per instance by the per-layer forwards, stored once per
  instance for its members to share, the shorter counts zero-padded under
  a −inf key mask. ``velocity`` then runs one solver call as a flat loop
  over the blocks on the (B, E) state row alone, with the formulas beneath
  those forwards. Per instance and head, one matmul scores its members'
  queries against the shared keys and one weights the shared values, as
  Hydragen (arXiv 2402.05099) attends to a shared prefix; each path's own
  state key and value add one score to the same softmax and one term to
  the context.

Accepting a count is not generalising to it. A nonlinear-task net trained on
1 to 4 observations gives posteriors whose median standard deviation is 2.0
to 2.6 times the exact one at 8 and at 16 observations, and whose central 90%
interval covers the true parameter in 0.70 to 0.82 of instances: past the
trained counts the posterior does not contract as the exact one does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import (Tensor, _attention_fwd, _embed_fwd, _heads, _linear_fwd, _mlp_fwd,
                     _prenorm_fwd, _residual_fwd, _softmax, _time_fwd)


@dataclass(frozen=True)
class NetConfig:
    n_emb: int = 32
    n_head: int = 4
    n_layer: int = 4
    dim_m: int = 1
    obs_token_dim: int = 2
    design_token_dim: int = 0     # 0: no design token in the sequence

    def __post_init__(self):
        if min(self.n_emb, self.n_head, self.n_layer) < 1:
            raise ValueError("n_emb, n_head and n_layer must be >= 1, got "
                             f"{self.n_emb}, {self.n_head}, {self.n_layer}")
        if self.n_emb % self.n_head != 0:
            raise ValueError(f"n_emb={self.n_emb} not divisible by n_head={self.n_head}")
        if self.n_emb % 2 != 0:
            raise ValueError(f"n_emb={self.n_emb} must be even (half sine, half cosine "
                             "flow-time features)")
        if self.dim_m < 1 or self.obs_token_dim < 1:
            raise ValueError("dim_m and obs_token_dim must be >= 1")


@functools.lru_cache(maxsize=None)
def _frequencies(half: int) -> np.ndarray:
    freqs = (10000.0 ** (np.arange(half) / max(half - 1, 1))).astype(np.float32)
    freqs.flags.writeable = False           # one table per width, shared by every call
    return freqs


def timestep_basis(t, dim: int) -> np.ndarray:
    """Sinusoidal features of a flow time in [0, 1]: half sines, half cosines,
    with frequencies log-spaced over [1, 1e4]."""
    t = np.asarray(t, dtype=np.float32)
    if np.any(t < -1e-6) or np.any(t > 1 + 1e-6):
        raise ValueError(f"flow time must lie in [0, 1], got range [{t.min()}, {t.max()}]")
    ang = np.clip(t, 0.0, 1.0)[..., None] * _frequencies(dim // 2)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


# The time embedding's parameters, and one block's, in the argument order of
# their tape ops.
_TEMB_PARAMS = ("fc1.w", "fc1.b", "fc2.w", "fc2.b")
_BLOCK_PARAMS = ("ln1.g", "attn.wqkv.w", "attn.wqkv.b", "attn.wo.w", "attn.wo.b",
                "ln2.g", "mlp.fc.w", "mlp.fc.b", "mlp.proj.w", "mlp.proj.b")
# Each RMS gain and the weight it feeds, which inference folds into one.
_FOLDS = {"ln1.g": "attn.wqkv.w", "ln2.g": "mlp.fc.w"}


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def init_params(config: NetConfig, seed: int = 0) -> dict:
    """Initialize all learnable weights; layout is a pure function of config."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x706172)))
    params: dict[str, Tensor] = {}

    def w(name, shape, std, n_cat=1):
        # n_cat draws side by side: the values n_cat separate weights would get
        draws = [rng.normal(0.0, std, shape) for _ in range(n_cat)]
        params[name] = Tensor(np.concatenate(draws, axis=-1).astype(np.float32),
                              requires_grad=True)

    def b(name, dim):
        params[name] = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def g(name, dim):
        params[name] = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)

    E = config.n_emb
    w("embed.obs.w", (config.obs_token_dim, E), 0.02); b("embed.obs.b", E)
    if config.design_token_dim > 0:
        w("embed.design.w", (config.design_token_dim, E), 0.02); b("embed.design.b", E)
    w("embed.state.w", (config.dim_m, E), 0.02); b("embed.state.b", E)
    w("temb.fc1.w", (E, E), 0.02); b("temb.fc1.b", E)
    w("temb.fc2.w", (E, E), 0.02); b("temb.fc2.b", E)
    resid_std = 0.02 / (2 * config.n_layer) ** 0.5
    for i in range(config.n_layer):
        p = f"block{i}"
        g(f"{p}.ln1.g", E)
        w(f"{p}.attn.wqkv.w", (E, E), 0.02, n_cat=3); b(f"{p}.attn.wqkv.b", 3 * E)
        w(f"{p}.attn.wo.w", (E, E), resid_std); b(f"{p}.attn.wo.b", E)
        g(f"{p}.ln2.g", E)
        w(f"{p}.mlp.fc.w", (E, 4 * E), 0.02); b(f"{p}.mlp.fc.b", 4 * E)
        w(f"{p}.mlp.proj.w", (4 * E, E), resid_std); b(f"{p}.mlp.proj.b", E)
    g("ln_f.g", E)
    w("head.w", (E, config.dim_m), 0.02); b("head.b", config.dim_m)
    return params


def param_count(params: dict) -> int:
    return int(sum(p.size for p in params.values()))


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conditioning:
    """What a batch's observations and the solver's flow times fix for every
    call of one integration, laid out per instance and shared by its
    ``members`` paths.

    ``keys`` holds each block's observation keys as an (L, n, H, hd, T)
    array and ``values`` its values as (L, n, H, T, hd), for L blocks, n
    instances and T observation-stream tokens; instance i's members are the
    paths i·members to (i + 1)·members − 1. An instance of fewer tokens than
    T holds zero keys and values in its last slots, and the additive
    ``mask`` (None if no instance is padded) scores those slots −inf; its
    last slot, the self score's, is 0. ``times`` holds the time embedding of
    each call's flow time, one (E,) row per call. The other fields are the
    parameter arrays in the order :meth:`VelocityNet.velocity` reads them,
    each RMS gain g folded into the weight w it feeds, as g[:, None] · w,
    and the score scale 1/√hd into the query columns of ``attn.wqkv``'s
    weight and bias. Every array is read-only (the unfolded parameters as
    read-only views): ``velocity`` keeps each path's own state key and
    value apart, so one conditioning serves any number of integrations, in
    turn or interleaved.
    """
    keys: np.ndarray      # (L, n, H, hd, T)
    values: np.ndarray    # (L, n, H, T, hd)
    times: np.ndarray     # (calls, E)
    state: tuple          # embed.state w, b
    blocks: list          # per block, the arrays of _BLOCK_PARAMS, gains and scale folded
    head: tuple           # head w with ln_f.g folded, head b
    members: int          # paths per instance
    mask: np.ndarray | None = None    # (n, 1, 1, T + 1): 0, or −inf on a padded slot


class VelocityNet:
    """Bundles a task, a config, and parameters behind one forward call."""

    def __init__(self, task, config: NetConfig, params: dict | None = None, seed: int = 0):
        self.task = task
        self.config = config
        self.params = params if params is not None else init_params(config, seed)

    @property
    def n_params(self):
        return param_count(self.params)

    def _fixed_tokens(self, d, e) -> dict:
        """The token features that (d, e) fix: the observations' and, if the
        task has one, the design token's (else None)."""
        d_shape, e_shape = np.shape(d), np.shape(e)
        n = next((n for n in range(d_shape[-1] + 1) if self.task.d_width(n) == d_shape[-1]), -1)
        if len(d_shape) != 2 or n < 0 or e_shape != (d_shape[0], self.task.e_width(n)):
            raise ValueError(f"d {d_shape} and e {e_shape} are not rows of one observation count")
        obs, design = self.task.token_features(d, e)
        if obs.shape[1] == 0:
            raise ValueError("cannot tokenize an empty observation list")
        return {"obs": obs, "design": design}

    def forward(self, m_t, t, d, e) -> Tensor:
        """Velocity prediction for a batch sharing one observation count.

        m_t: (batch, dim_m); t: (batch,), one flow time per row; d, e: task-shaped
        arrays. Returns a (batch, dim_m) tensor. The tokens are the task's
        observation features, its design token if it has one, and last the
        state ``m_t``, whose output the head reads. Inputs of any float dtype are cast to the
        parameters' dtype here, so callers and tasks need not cast them.
        """
        params, config = self.params, self.config
        dt = params["head.w"].dtype
        tokens = {**self._fixed_tokens(d, e), "state": np.asarray(m_t)[:, None, :]}
        x = T.token_embedding((Tensor(f, dtype=dt), params[f"embed.{k}.w"], params[f"embed.{k}.b"])
                              for k, f in tokens.items() if f is not None)  # (B, n_tokens, E)

        if np.shape(t) != (len(m_t),):
            raise ValueError(f"t must have shape ({len(m_t)},), a time per row, got {np.shape(t)}")
        basis = timestep_basis(t, config.n_emb)[:, None]           # (B, 1, E)
        temb = [params[f"temb.{name}"] for name in _TEMB_PARAMS]
        x = T.time_embedding(x, basis, *temb)

        for i in range(config.n_layer):
            p = [params[f"block{i}.{name}"] for name in _BLOCK_PARAMS]
            x = T.attention_block(x, *p[:5], config.n_head, state_only=i == config.n_layer - 1)
            x = T.mlp_block(x, *p[5:])
        # x is the state token alone now: (B, E)
        return T.head(x, params["ln_f.g"], params["head.w"], params["head.b"])

    def condition(self, d, e, times, members=1) -> Conditioning:
        """The conditioning of one integration for :meth:`velocity`, of
        ``members`` paths per row of (d, e), rows of any observation counts.
        It folds the gains and embeds the solver calls' flow times ``times``
        once, runs each count's observation stream once as :meth:`forward`
        runs it, and zero-pads the shorter counts under a −inf ``mask``.
        Each row's keys and values are stored once, for all its members."""
        if len(d) != len(e):                        # zip would drop the extra rows
            d_rows, e_rows = (getattr(a, "shape", (len(a),)) for a in (d, e))
            raise ValueError(f"d {d_rows} and e {e_rows} are not rows of one observation count")
        a = {k: p.data.view() for k, p in self.params.items()}  # made read-only below
        H, L, E = self.config.n_head, self.config.n_layer, self.config.n_emb
        dt, hd = a["head.w"].dtype, E // H
        for i in range(L):                          # (h · g) @ w is h @ (g[:, None] · w)
            for g, w in _FOLDS.items():
                a[f"block{i}.{w}"] = a.pop(f"block{i}.{g}")[:, None] * a[f"block{i}.{w}"]
        a["head.w"] = a.pop("ln_f.g")[:, None] * a["head.w"]
        basis = timestep_basis(times, E).astype(dt, copy=False).reshape(-1, E)
        rows = np.zeros_like(basis)                 # (calls, E)
        _time_fwd(rows, basis, *(a[f"temb.{name}"] for name in _TEMB_PARAMS))
        blocks = [tuple(a[f"block{i}.{name}"] for name in _BLOCK_PARAMS if name not in _FOLDS)
                  for i in range(L)]
        counts = {}                                 # the rows of each (d, e) width, in input order
        for i, row in enumerate(zip(d, e)):
            counts.setdefault(tuple(map(len, row)), []).append(i)
        parts = []                                  # each count's keys, values and rows
        for r in counts.values():
            tokens = self._fixed_tokens(np.stack([d[i] for i in r]), np.stack([e[i] for i in r]))
            x = np.concatenate([_embed_fwd(f.astype(dt), a[f"embed.{k}.w"], a[f"embed.{k}.b"])
                                for k, f in tokens.items() if f is not None], axis=1)
            B, t, _ = x.shape
            keys, values = np.empty((L, B, H, hd, t), dt), np.empty((L, B, H, t, hd), dt)
            for i, (k, v, (wqkv, bqkv, wo, bo, *mlp)) in enumerate(zip(keys, values, blocks)):
                q = _heads(_prenorm_fwd(x, None, wqkv, bqkv)[0].reshape(B, t, 3 * E), H, k, v)
                if i < L - 1:                       # the head reads the state alone
                    ctx, _ = _attention_fwd(q, k, v)
                    x, _, _ = _mlp_fwd(_residual_fwd(ctx.reshape(-1, E), wo, bo, x), None, *mlp)
            parts.append((keys, values, r))
        n, n_tok = len(d), max((k.shape[-1] for k, _, _ in parts), default=0)
        keys, values = np.zeros((L, n, H, hd, n_tok), dt), np.zeros((L, n, H, n_tok, hd), dt)
        mask = np.zeros((n, 1, 1, n_tok + 1), dt)   # the last, the self score's, stays 0
        for k, v, r in parts:                       # each count's slots, the rest padding
            t = k.shape[-1]
            keys[:, r, ..., :t] = k
            values[:, r, :, :t] = v
            mask[r, ..., t:-1] = -np.inf
        # velocity's queries come out of wqkv pre-scaled by 1/√hd; the folded
        # wqkv is this call's own array, which the observation stream has used
        q_scale = np.ones(3 * E, dt)
        q_scale[:E] = 1.0 / math.sqrt(hd)
        blocks = [(np.multiply(wqkv, q_scale, out=wqkv), bqkv * q_scale, *rest)
                  for wqkv, bqkv, *rest in blocks]
        head, state = (a["head.w"], a["head.b"]), (a["embed.state.w"], a["embed.state.b"])
        for arr in (keys, values, mask, rows, *head, *state, *(w for ws in blocks for w in ws)):
            arr.flags.writeable = False
        return Conditioning(keys=keys, values=values, members=members, times=rows,
                            mask=mask if np.isinf(mask).any() else None,
                            blocks=blocks, head=head, state=state)

    def velocity(self, m_t, k, cond: Conditioning) -> np.ndarray:
        """Inference-mode forward pass: :meth:`forward`'s velocity for the
        paths ``cond`` was made for, up to float rounding, computed on the
        state row alone with plain arrays, so no tape records it, and
        writing nothing into ``cond``. In each block the queries of an
        instance's members form one (members, hd) block per head, scored
        against the instance's shared keys by one matmul; each path's score
        against its own state key goes into the same (n, H, members, T + 1)
        buffer, so one softmax covers [observations | self], with
        ``cond.mask``, if any, added to the scores. The context is one
        matmul with the shared values plus the self weight times the path's
        own state value, and the sub-blocks' outputs add into the (B, E) row
        in place.

        m_t: (B, dim_m), B the conditioning's paths; k: a scalar index in
        [0, calls) into the flow times ``cond`` was made for, one time for
        every row. Returns a (B, dim_m) array.
        """
        n, H, hd, n_tok = cond.keys.shape[1:]
        m, E = cond.members, self.config.n_emb
        B = n * m
        m_t = np.asarray(m_t, dtype=cond.keys.dtype)
        if m_t.shape != (B, self.config.dim_m):
            raise ValueError(f"m_t must have shape {(B, self.config.dim_m)} to match "
                             f"the conditioning, got {m_t.shape}")
        if np.ndim(k) != 0:
            raise ValueError(f"k must be a scalar, one flow time for every row, got {np.shape(k)}")
        if not 0 <= k < len(cond.times):
            raise ValueError(f"k must lie in [0, {len(cond.times)}), an index into the "
                             f"conditioning's flow times, got {k}")
        x = _linear_fwd(m_t, *cond.state)                   # (B, E), the state row
        x += cond.times[k]
        s = np.empty((n, H, m, n_tok + 1), x.dtype)         # scores of [observations | self]
        ctx = np.empty((n, m, H, hd), x.dtype)
        scores, self_scores, ctx_heads = s[..., :-1], s[..., -1], ctx.swapaxes(1, 2)
        p_self = self_scores.swapaxes(1, 2)[..., None]      # (n, m, H, 1)
        for kt, v, (wqkv, bqkv, wo, bo, w1, b1, w2, b2) in zip(cond.keys, cond.values,
                                                                cond.blocks):
            qkv = _prenorm_fwd(x, None, wqkv, bqkv)[0].reshape(n, m, 3, H, hd)
            q, k_self, v_self = qkv.transpose(2, 0, 1, 3, 4)  # (n, m, H, hd) each
            np.matmul(q.swapaxes(1, 2), kt, out=scores)
            np.einsum("nmhd,nmhd->nhm", q, k_self, out=self_scores)
            if cond.mask is not None:
                s += cond.mask
            _softmax(s)
            np.matmul(scores, v, out=ctx_heads)
            ctx += v_self * p_self
            x += _linear_fwd(ctx.reshape(B, E), wo, bo)
            f = _prenorm_fwd(x, None, w1, b1)[0]
            x += _linear_fwd(np.square(np.maximum(f, 0, out=f), out=f), w2, b2)  # relu²
        return _prenorm_fwd(x, None, *cond.head)[0]

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()
