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
  block's keys and values of the observation stream, run once by the
  per-layer forwards; :meth:`Conditioning.join` repeats them per member
  and joins several counts, zero-padding the shorter under a −inf key mask.
  ``velocity`` then runs one solver call as a flat loop over the blocks on
  the (B, E) state row alone, whose query attends to those keys (mask
  added) and to its own, with the formulas beneath those forwards.

Accepting a count is not generalising to it. A nonlinear-task net trained on
1 to 4 observations gives posteriors whose median standard deviation is 2.0
to 2.6 times the exact one at 8 and at 16 observations, and whose central 90%
interval covers the true parameter in 0.70 to 0.82 of instances: past the
trained counts the posterior does not contract as the exact one does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .tensor import (Tensor, _attention_fwd, _attention_weights, _embed_fwd, _heads,
                     _linear_fwd, _mlp_fwd, _prenorm_fwd, _residual_fwd, _time_fwd)


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

@dataclass
class Conditioning:
    """What a batch's observations and the solver's flow times fix for every
    call of one integration.

    ``keys`` holds each block's observation keys as an (L, B, H, hd, T)
    array and ``values`` its values as (L, B, H, T, hd), for L blocks and T
    tokens with the state. The last slot of each is the state's:
    :meth:`VelocityNet.velocity` writes the call's state key and value there
    and changes nothing else, so a conditioning serves one integration at a
    time, and any number of integrations in turn. In a :meth:`join` of
    several counts, a row of fewer tokens holds zero keys and values in the
    slots before the state's, and the additive ``mask`` (None if no row is
    padded) scores those slots −inf. ``times`` holds the time embedding of
    each call's flow time, one (E,) row per call. The other fields are the
    parameter arrays in the order ``velocity`` reads them, each RMS gain g
    folded into the weight w it feeds, as g[:, None] · w.
    """
    keys: np.ndarray      # (L, B, H, hd, T)
    values: np.ndarray    # (L, B, H, T, hd)
    times: np.ndarray     # (calls, E)
    state: tuple          # embed.state w, b
    blocks: list          # per block, the arrays of _BLOCK_PARAMS, gains folded
    head: tuple           # head w with ln_f.g folded, head b
    mask: np.ndarray | None = None    # (B, 1, 1, T): 0, or −inf on a padded slot

    @staticmethod
    def join(parts, n):
        """One conditioning of the rows of ``parts``, (conditioning, rows)
        pairs of one net and one set of flow times, each row repeated n times
        in turn; ``rows`` lists the joined positions of a part's rows."""
        first = parts[0][0]
        (L, _, H, hd, _), dt = first.keys.shape, first.keys.dtype
        B, T = sum(c.keys.shape[1] for c, _ in parts), max(c.keys.shape[-1] for c, _ in parts)
        keys, values = np.zeros((L, B, n, H, hd, T), dt), np.zeros((L, B, n, H, T, hd), dt)
        mask = np.zeros((B, n, 1, 1, T), dt)
        for c, rows in parts:                 # each part's slots, repeated per member
            t = c.keys.shape[-1] - 1
            keys[:, rows, ..., :t] = c.keys[:, :, None, ..., :-1]
            values[:, rows, :, :, :t] = c.values[:, :, None, :, :-1]
            mask[rows, ..., t:-1] = -np.inf
        return replace(first, keys=keys.reshape(L, B * n, H, hd, T),
                       values=values.reshape(L, B * n, H, T, hd),
                       mask=mask.reshape(B * n, 1, 1, T) if np.isinf(mask).any() else None)


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

    def condition(self, d, e, times) -> Conditioning:
        """The conditioning of one integration for :meth:`velocity`: the time
        embedding of each call's flow time in ``times``, and the observation
        stream of (d, e) run once through every block, as :meth:`forward`
        runs it but with each RMS gain folded into the weight it feeds."""
        a = {k: p.data for k, p in self.params.items()}
        H, L, E = self.config.n_head, self.config.n_layer, self.config.n_emb
        dt = a["head.w"].dtype
        for i in range(L):                          # (h · g) @ w is h @ (g[:, None] · w)
            for g, w in _FOLDS.items():
                a[f"block{i}.{w}"] = a.pop(f"block{i}.{g}")[:, None] * a[f"block{i}.{w}"]
        a["head.w"] = a.pop("ln_f.g")[:, None] * a["head.w"]
        basis = timestep_basis(times, E).astype(dt, copy=False).reshape(-1, E)
        rows = np.zeros_like(basis)                 # (calls, E)
        _time_fwd(rows, basis, *(a[f"temb.{name}"] for name in _TEMB_PARAMS))
        x = np.concatenate([_embed_fwd(f.astype(dt), a[f"embed.{k}.w"], a[f"embed.{k}.b"])
                            for k, f in self._fixed_tokens(d, e).items() if f is not None],
                           axis=1)                          # (B, T - 1, E)
        B, n_fixed, _ = x.shape
        blocks = [tuple(a[f"block{i}.{name}"] for name in _BLOCK_PARAMS if name not in _FOLDS)
                  for i in range(L)]
        keys = np.empty((L, B, H, E // H, n_fixed + 1), dtype=dt)
        values = np.empty((L, B, H, n_fixed + 1, E // H), dtype=dt)
        for i, (k, v, (wqkv, bqkv, wo, bo, *mlp)) in enumerate(zip(keys, values, blocks)):
            qkv, _ = _prenorm_fwd(x, None, wqkv, bqkv)
            q = _heads(qkv.reshape(B, n_fixed, 3 * E), H, k, v, slice(None, -1))
            if i == L - 1:                # the head reads the state alone
                break
            ctx, _ = _attention_fwd(q, k[..., :-1], v[:, :, :-1])
            x, _, _ = _mlp_fwd(_residual_fwd(ctx.reshape(-1, E), wo, bo, x), None, *mlp)
        return Conditioning(keys=keys, values=values, times=rows, blocks=blocks,
                            state=(a["embed.state.w"], a["embed.state.b"]),
                            head=(a["head.w"], a["head.b"]))

    def velocity(self, m_t, k, cond: Conditioning) -> np.ndarray:
        """Inference-mode forward pass: :meth:`forward`'s velocity for the
        batch ``cond`` was made from, up to float rounding, computed on the
        state row alone with plain arrays, so no tape records it. Each block
        writes the state's key and value into the last slot of ``cond.keys``
        and ``cond.values``, adds ``cond.mask``, if any, to the scores before
        the softmax, and adds its sub-blocks' outputs into the (B, E) row in
        place.

        m_t: (B, dim_m), B the conditioning's rows; k: a scalar index in
        [0, calls) into the flow times ``cond`` was made for, one time for
        every row. Returns a (B, dim_m) array.
        """
        B, H, E = cond.keys.shape[1], self.config.n_head, self.config.n_emb
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
        for kt, v, (wqkv, bqkv, wo, bo, w1, b1, w2, b2) in zip(cond.keys, cond.values,
                                                                cond.blocks):
            qkv = _prenorm_fwd(x, None, wqkv, bqkv)[0].reshape(B, 3, H, -1)
            kt[..., -1] = qkv[:, 1]                         # the state's slot
            v[:, :, -1] = qkv[:, 2]
            ctx = _attention_weights(qkv[:, 0, :, None], kt, mask=cond.mask) @ v
            x += _linear_fwd(ctx.reshape(B, E), wo, bo)
            f = _prenorm_fwd(x, None, w1, b1)[0]
            x += _linear_fwd(np.square(np.maximum(f, 0, out=f), out=f), w2, b2)  # relu²
        return _prenorm_fwd(x, None, *cond.head)[0]

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()
