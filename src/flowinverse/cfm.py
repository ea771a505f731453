"""Conditional flow matching: training and ODE-based posterior sampling.

Training regresses the network output onto the straight-line displacement
between a fresh prior draw and the dataset parameter, conditioned on that
tuple's observations. Sampling integrates dx/dt = v(x, t, d, e) from a prior
draw at t=0 to t=1 with a fixed-step solver. Too few steps shrink the
posterior spread while the error of its mean stays flat: for a trained
nonlinear flow, the central 90% interval covered the true parameter in 0.85
of instances with 50 Euler steps, but in 0.33 to 0.66 with 5 to 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import batch_iterator
from .net import VelocityNet

_STREAM_NOISE = 0x6e6f6973      # per-(epoch, shard) training draws
_STREAM_MEMBER = 0x6d656d62     # per-member prior draws at inference
PATH_BATCH = 2560               # most flow paths one sample_batch integration holds


class TrainingDivergedError(RuntimeError):
    def __init__(self, step, message):
        super().__init__(message)
        self.step = step


@dataclass
class TrainConfig:
    lr: float = 8e-4
    epochs: int = 20
    batch_size: int = 256
    accum_window: int = 4       # batches (of differing n_obs) per optimizer step
    seed: int = 0
    checkpoint_every: int = 0   # optimizer steps; 0 disables periodic checkpoints

    def __post_init__(self):
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.accum_window < 1:
            raise ValueError("accum_window must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")


@dataclass
class SamplerConfig:
    steps: int = 50
    method: str = "euler"       # euler | midpoint | rk4
    ensemble: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.ensemble < 1:
            raise ValueError("steps and ensemble must be >= 1")
        if self.method not in ("euler", "midpoint", "rk4"):
            raise ValueError(f"unknown integration method '{self.method}'")


@dataclass
class PosteriorEnsemble:
    samples: np.ndarray          # (ensemble, dim_m)

    @property
    def mean(self):
        return self.samples.mean(axis=0)


def interpolate(m0, m1, t):
    """Convex combination (1-t) m0 + t m1 of (B, dim_m) endpoints; t: (B,),
    one flow time per row."""
    m0 = np.asarray(m0)
    m1 = np.asarray(m1)
    if m0.shape != m1.shape:
        raise ValueError(f"endpoint shapes differ: {m0.shape} vs {m1.shape}")
    t = np.asarray(t)
    if t.shape != m0.shape[:1]:
        raise ValueError(f"t must have shape {m0.shape[:1]}, a time per row, got {t.shape}")
    return (1.0 - t[:, None]) * m0 + t[:, None] * m1


def cfm_loss(net: VelocityNet, batch, t, m0):
    """Mean squared velocity-matching error for one fixed-n_obs batch.

    t: (B,) flow times; m0: (B, dim_m) prior draws. Targets are m1 - m0.
    Returns the scalar loss tensor (record on an active tape to train).
    """
    m1 = batch.m.astype(np.float32)
    m0 = m0.astype(np.float32)
    t = t.astype(np.float32)
    m_t = interpolate(m0, m1, t)
    return T.mse(net.forward(m_t, t, batch.d, batch.e), m1 - m0)


def _epoch_noise(seed, epoch, n_obs, count, prior_sample):
    """Flow times and prior draws for one shard-epoch, drawn in one stream so
    slices are independent of the batch partition."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_NOISE, epoch, n_obs)))
    t = rng.uniform(0.0, 1.0, count)
    m0 = prior_sample(rng, count)
    return t, m0


def train(net: VelocityNet, shards, config: TrainConfig, checkpoint_fn=None):
    """Optimize the velocity network over the sharded dataset.

    Each batch's backward pass adds into the parameters' ``grad``; every
    ``accum_window`` consecutive batches (which round-robin across
    observation counts) the summed gradients are averaged into one Adam step
    and cleared. Any gradients ``net`` holds on entry are cleared first. Returns
    (net, history) where history is the per-step mean loss. ``checkpoint_fn``
    is called as checkpoint_fn(step, epoch, net) every ``checkpoint_every``
    steps and once more after a non-finite loss with the last finite
    parameters. A checkpoint then holds the parameters, the step and
    (seed, epoch), which is enough to sample from the net as it was at that
    step. It holds no Adam moments and nothing resumes from it, so training
    cannot continue from a checkpoint as if it had never stopped.
    """
    n_obs = [s.n_obs for s in shards]
    if len(set(n_obs)) != len(n_obs):       # the epoch noise is drawn per count
        raise ValueError(f"shards repeat an observation count: {n_obs}")
    if not any(map(len, shards)):
        raise ValueError("the shards hold no tuples to train on")
    params = net.params
    state = T.AdamState(params, lr=config.lr)
    net.zero_grad()
    history = []
    window_losses = []
    step = 0

    def close_window():
        """Average the window's gradients into one Adam step."""
        inv = 1.0 / len(window_losses)
        for p in params.values():
            p.grad *= inv
        T.adam_step(params, state)
        net.zero_grad()
        history.append(float(np.mean(window_losses)))
        window_losses.clear()

    for epoch in range(config.epochs):
        noise = {
            s.n_obs: _epoch_noise(config.seed, epoch, s.n_obs, len(s),
                                  net.task.prior_sample)
            for s in shards
        }
        for batch in batch_iterator(shards, config.batch_size,
                                    seed=config.seed, epoch=epoch):
            t_all, m0_all = noise[batch.n_obs]
            t = t_all[batch.index]
            m0 = m0_all[batch.index]
            with T.Tape() as tape:
                loss = cfm_loss(net, batch, t, m0)
            loss_val = float(loss.item())
            if not math.isfinite(loss_val):
                if checkpoint_fn is not None:
                    checkpoint_fn(step, epoch, net)
                raise TrainingDivergedError(
                    step, f"non-finite loss at optimizer step {step} "
                          f"(epoch {epoch}, n_obs {batch.n_obs})")
            T.backward(loss, tape)
            window_losses.append(loss_val)
            if len(window_losses) == config.accum_window:
                close_window()
                step += 1
                if config.checkpoint_every and checkpoint_fn is not None \
                        and step % config.checkpoint_every == 0:
                    checkpoint_fn(step, epoch, net)
    if window_losses:      # trailing partial window
        close_window()
    return net, history


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def _prior_draws(task, n, seed):
    draws = np.empty((n, task.dim_m))
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_MEMBER, i)))
        draws[i] = task.prior_sample(rng, 1)[0]
    return draws


class FlowDivergedError(FloatingPointError):
    """A velocity or flow state became non-finite; ``row`` is the first
    non-finite path, counted over all the paths of the call."""

    def __init__(self, message, row):
        super().__init__(message)
        self.row = row


def _first_nonfinite_row(a):
    return int(np.argmin(np.isfinite(a).all(axis=1)))


def _integrate_flow(net, x0, d, e, cfg: SamplerConfig):
    x = x0.astype(np.float32)
    h = 1.0 / cfg.steps
    cond = net.condition(d, e).repeat(len(x0) // len(d))

    def v(xc, tc):
        out = net.velocity(xc, tc, cond)
        if not np.isfinite(out).all():
            raise FlowDivergedError(f"velocity became non-finite at t={tc:.4f}",
                                    _first_nonfinite_row(out))
        return out

    for k in range(cfg.steps):
        t = k * h
        if cfg.method == "euler":
            x = x + h * v(x, t)
        elif cfg.method == "midpoint":
            k1 = v(x, t)
            x = x + h * v(x + 0.5 * h * k1, t + 0.5 * h)
        else:
            k1 = v(x, t)
            k2 = v(x + 0.5 * h * k1, t + 0.5 * h)
            k3 = v(x + 0.5 * h * k2, t + 0.5 * h)
            k4 = v(x + h * k3, min(t + h, 1.0))
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(x).all():
            raise FlowDivergedError(f"flow state became non-finite after t={t + h:.4f}",
                                    _first_nonfinite_row(x))
    return x


def sample_batch(net: VelocityNet, d, e, seeds, cfg: SamplerConfig) -> np.ndarray:
    """Posterior ensembles for instances that share one observation count.

    d, e: one row per seed (a 1-D row is one instance). Instance i's members
    start from the counter-derived prior draws of ``seeds[i]`` (``cfg.seed``
    is not used). Instances integrate whole, never split, at most ``PATH_BATCH``
    paths (instances x ensemble) at a time; a larger ensemble runs alone.
    The observation stream runs once per instance, into a conditioning
    (:meth:`VelocityNet.condition`) its members share, and each solver step
    runs the state rows alone (:meth:`VelocityNet.velocity`, within 1e-6 of
    max|v| of :meth:`VelocityNet.forward`, the training path). Returns
    (n_inst, ensemble, dim_m) float64. A path that becomes
    non-finite raises :class:`FlowDivergedError`, whose message names its
    instance and member.
    """
    d = np.atleast_2d(np.asarray(d, dtype=np.float32))
    e = np.atleast_2d(np.asarray(e, dtype=np.float32))
    if len(seeds) == 0:
        raise ValueError("seeds is empty: sample_batch needs one seed per instance")
    if not d.shape[0] == e.shape[0] == len(seeds):
        raise ValueError(f"{d.shape[0]} observation rows and {e.shape[0]} design rows "
                         f"for {len(seeds)} seeds")
    n = cfg.ensemble
    chunk = max(1, PATH_BATCH // n)     # instances per integration
    out = np.empty((len(seeds), n, net.task.dim_m))
    for lo in range(0, len(seeds), chunk):
        rows = slice(lo, lo + chunk)
        x0 = np.concatenate([_prior_draws(net.task, n, s) for s in seeds[rows]])
        try:
            x1 = _integrate_flow(net, x0, d[rows], e[rows], cfg)
        except FlowDivergedError as err:
            row = lo * n + err.row
            raise FlowDivergedError(f"{err} in row {row} (instance {row // n}, "
                                    f"member {row % n})", row) from None
        out[rows] = x1.reshape(-1, n, out.shape[2])
    return out


def sample_posterior(net: VelocityNet, d, e, cfg: SamplerConfig) -> PosteriorEnsemble:
    """Draw an ensemble from the learned conditional distribution.

    Each member starts from its own counter-derived prior draw; the whole
    ensemble integrates as one batch, which is equivalent to integrating
    members independently.
    """
    return PosteriorEnsemble(samples=sample_batch(net, d, e, [cfg.seed], cfg)[0])
