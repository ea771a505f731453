"""Random-walk Metropolis-Hastings posterior sampling over the forward models.

The unnormalized log-posterior combines a Gaussian likelihood on the
observations with the task prior (flat inside the uniform box, standard
normal for the permeability coefficients). Proposals are isotropic Gaussian
steps; every chain tunes their scale in a short pilot phase toward a 20-40%
acceptance rate, then discards the first ``BURN_IN`` fraction of its main
chain. The proposal is symmetric so no Hastings correction is needed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

TUNE_ROUNDS = 30       # pilot rounds at most
TUNE_STEPS = 60        # proposals per pilot round
ACCEPT_BAND = (0.2, 0.4)   # acceptance rates the tuner aims for
BURN_IN = 0.5          # fraction of the main chain discarded


@dataclass
class ChainConfig:
    n_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass
class ChainResult:
    chain: np.ndarray            # (n_samples, dim) every main-chain state
    log_posterior: np.ndarray    # (n_samples,) log pi at each state
    accepted: np.ndarray         # (n_samples,) bool, the step's proposal was taken
    samples: np.ndarray          # chain[burn-in:], the retained states
    acceptance_rate: float
    posterior_mean: np.ndarray
    proposal_scale: float        # the tuned proposal std
    warnings: list = field(default_factory=list)


def log_posterior(task, m, d, e, sigma_obs):
    """Unnormalized log pi(m | d, e); -inf outside the prior support, and with
    a warning where the forward model fails numerically (other errors raise)."""
    lp = task.log_prior(m)
    if not np.isfinite(lp):
        return -np.inf
    try:
        pred = task.forward_observed(np.asarray(m, dtype=np.float64),
                                     np.asarray(e, dtype=np.float64))
    except FloatingPointError as err:     # SEIR's non-finite state, Darcy's SolverError
        warnings.warn(f"forward model failed during MCMC: {err}")
        return -np.inf
    r = np.asarray(d, dtype=np.float64).reshape(-1) - np.asarray(pred).reshape(-1)
    return lp - float(r @ r) / (2.0 * sigma_obs ** 2)


def mh_step(m, logp, scale, rng, logpost):
    """One random-walk proposal; returns (state, logp, accepted)."""
    prop = m + scale * rng.standard_normal(m.shape)
    lp_prop = logpost(prop)
    if np.log(rng.uniform()) < lp_prop - logp:
        return prop, lp_prop, True
    return m, logp, False


def _tune_scale(m, logp, scale, rng, logpost):
    """Multiplicative scale adaptation toward acceptance in ``ACCEPT_BAND``;
    returns (state, logp, scale, whether a pilot round reached the band)."""
    lo, hi = ACCEPT_BAND
    for _ in range(TUNE_ROUNDS):
        acc = 0
        for _ in range(TUNE_STEPS):
            m, logp, ok = mh_step(m, logp, scale, rng, logpost)
            acc += ok
        rate = acc / TUNE_STEPS
        if lo <= rate <= hi:
            return m, logp, scale, True
        if rate > hi:
            scale *= 1.6
        elif rate < 0.05:
            scale *= 0.3
        else:
            scale *= 0.6
    return m, logp, scale, False


def run_chain(task, d, e, cfg: ChainConfig) -> ChainResult:
    """Run one chain conditioned on a single observation tuple.

    The chain starts from a prior draw, and a tuning phase (not retained)
    adapts the proposal scale from 0.1. The result holds every main-chain
    state with its log-posterior and acceptance flag; ``samples`` drops the
    first ``BURN_IN`` fraction of them. ``warnings`` names a tuning that ran
    out of rounds, a chain that stalled and a main-chain acceptance outside
    ``ACCEPT_BAND``.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x6d636d63)))
    d = np.asarray(d, dtype=np.float64).reshape(-1)
    e = np.asarray(e, dtype=np.float64).reshape(-1)
    sigma = task.sigma_for(e)

    def logpost(m):
        return log_posterior(task, m, d, e, sigma)

    m = task.prior_sample(rng, 1)[0]
    logp = logpost(m)
    warns = []
    m, logp, scale, reached = _tune_scale(m, logp, 0.1, rng, logpost)
    if not reached:
        warns.append(f"tuning ran out of rounds: no pilot round of the {TUNE_ROUNDS} "
                     f"accepted within {list(ACCEPT_BAND)}; scale is {scale:.3g}")

    chain = np.empty((cfg.n_samples, m.shape[0]))
    logps = np.empty(cfg.n_samples)
    accepted = np.empty(cfg.n_samples, dtype=bool)
    consecutive_rejects = 0
    stall_warned = False
    for i in range(cfg.n_samples):
        m, logp, ok = mh_step(m, logp, scale, rng, logpost)
        chain[i] = m
        logps[i] = logp
        accepted[i] = ok
        if ok:
            consecutive_rejects = 0
        else:
            consecutive_rejects += 1
            if consecutive_rejects >= 1000 and not stall_warned:
                warns.append(f"chain stalled: 1000 consecutive rejections at step {i}")
                stall_warned = True

    rate = float(accepted.mean())
    if not ACCEPT_BAND[0] <= rate <= ACCEPT_BAND[1]:
        warns.append(f"acceptance {rate:.3f} outside the tuning band {list(ACCEPT_BAND)}")
    keep = chain[int(BURN_IN * cfg.n_samples):]
    return ChainResult(chain=chain, log_posterior=logps, accepted=accepted,
                       samples=keep, acceptance_rate=rate, posterior_mean=keep.mean(axis=0),
                       proposal_scale=scale, warnings=warns)
