"""The velocity-field network: a transformer over a set of observations.

Each observation is one token that carries its own design, e.g. (d_i, e_i);
a task whose design is shared adds one design token, and the state ``m_t``
comes last. A sinusoidal-plus-MLP embedding of the flow time is added to
every token, and bi-directional self-attention without position embeddings
mixes them; a final RMS norm and a linear head read the velocity off the
state token alone. So the same weights accept any number of observations,
and the velocity does not depend on their order beyond float rounding.

The forward pass is one tape record per layer: :func:`tensor.token_embedding`,
:func:`tensor.time_embedding`, each block's fused pre-norm sub-blocks
:func:`tensor.attention_block` (q|k|v packed in one (E, 3E) weight
``attn.wqkv``) and :func:`tensor.mlp_block`, and :func:`tensor.head` (final
norm and read-out). Since the head reads only the state token, the last block
computes its query, output projection, residual and MLP for that token alone,
as a (batch, n_emb) row each; keys and values still come from every token.

Accepting a count is not generalising to it. A nonlinear-task net trained on
1 to 4 observations gives posteriors whose median standard deviation is
about 3 times the exact one at 8 observations and about 4 times at 16: past
the trained counts the posterior does not contract.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


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


# One block's parameters in the argument order of its two fused sub-blocks.
_BLOCK_PARAMS = ("ln1.g", "attn.wqkv.w", "attn.wqkv.b", "attn.wo.w", "attn.wo.b",
                "ln2.g", "mlp.fc.w", "mlp.fc.b", "mlp.proj.w", "mlp.proj.b")


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

class VelocityNet:
    """Bundles a task, a config, and parameters behind one forward call."""

    def __init__(self, task, config: NetConfig, params: dict | None = None, seed: int = 0):
        self.task = task
        self.config = config
        self.params = params if params is not None else init_params(config, seed)

    @property
    def n_params(self):
        return param_count(self.params)

    def forward(self, m_t, t, d, e) -> Tensor:
        """Velocity prediction for a batch sharing one observation count.

        m_t: (batch, dim_m); t: scalar or (batch,); d, e: task-shaped arrays.
        Returns a (batch, dim_m) tensor. The tokens are the task's observation
        features, its design token if it has one, and last the state ``m_t``,
        whose output the head reads. Inputs of any float dtype are cast to the
        parameters' dtype here, so callers and tasks need not cast them.
        """
        params, config = self.params, self.config
        obs, design = self.task.token_features(d, e)
        if obs.shape[1] == 0:
            raise ValueError("cannot tokenize an empty observation list")
        dt = params["head.w"].dtype
        tokens = {"obs": obs, "design": design, "state": np.asarray(m_t)[:, None, :]}
        x = T.token_embedding((Tensor(f, dtype=dt), params[f"embed.{k}.w"], params[f"embed.{k}.b"])
                              for k, f in tokens.items() if f is not None)  # (B, n_tokens, E)

        # a shared scalar t is embedded once, (1, 1, E); times of shape (B,) give (B, 1, E)
        basis = timestep_basis(np.asarray(t).reshape(-1, 1), config.n_emb)
        temb = [params[f"temb.{name}"] for name in ("fc1.w", "fc1.b", "fc2.w", "fc2.b")]
        x = T.time_embedding(x, basis, *temb)

        for i in range(config.n_layer):
            p = [params[f"block{i}.{name}"] for name in _BLOCK_PARAMS]
            x = T.attention_block(x, *p[:5], config.n_head, state_only=i == config.n_layer - 1)
            x = T.mlp_block(x, *p[5:])
        # x is the state token alone now: (B, E)
        return T.head(x, params["ln_f.g"], params["head.w"], params["head.b"])

    def velocity(self, m_t, t, d, e) -> np.ndarray:
        """Inference-mode forward pass (no tape recording)."""
        return self.forward(m_t, t, d, e).data

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()
