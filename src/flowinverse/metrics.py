"""Error metrics and evaluation sweeps.

The headline metric compares full differential-equation solutions: the
epidemic trajectory on a dense time grid, the pressure field on the solver
grid, or the closed-form response over a design grid, each computed for the
true parameters and for the posterior-ensemble mean. Everything here returns
data; ``cli`` writes the tables.

Each evaluation draws its instances with one ``data.draw_tuples`` call per
count, samples all of them with one ``cfm.sample_batch`` call, then scores
them. Those two bound how many rows they hold at once, so nothing chunks here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cfm import SamplerConfig, sample_batch
from .cfm import sample_posterior  # noqa: F401  perfbench's tracer test checks this reference
from .data import draw_tuples


@dataclass
class EvalReport:
    n_obs: int
    mean_error: float
    std_error: float
    trials: int


def relative_error_de(m_true, m_est, task, e_row):
    """Relative error between DE solutions at the true parameters and at a
    point estimate, such as the posterior-ensemble mean the paper uses."""
    ref = task.de_solution(np.asarray(m_true, dtype=np.float64), e_row)
    rec = task.de_solution(np.asarray(m_est, dtype=np.float64), e_row)
    return float(np.linalg.norm(ref - rec) / np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# evaluation over fresh instances: draw, sample, score
# ---------------------------------------------------------------------------

def evaluate_sweep(net, task, n_obs_list, trials, sampler: SamplerConfig, seed=0):
    """Per observation count: fresh (m, e, d) instances, posterior ensembles,
    and the DE relative error aggregated as mean +/- std over trials.

    Each trial draws its instance and then its sampler seed from its own
    stream; the trials of every observation count go to one ``sample_batch``
    call.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    counts = list(n_obs_list)
    if len(set(counts)) < len(counts):
        repeated = max(counts, key=counts.count)
        raise ValueError(f"n_obs_list repeats an observation count: {repeated}")
    m_true, e, d, seeds = [], [], [], []       # one row per instance, count by count
    for n_obs in counts:
        rngs = [np.random.default_rng(np.random.SeedSequence((seed, 0x6576616c, n_obs, trial)))
                for trial in range(trials)]
        for rows, drawn in zip((m_true, e, d), draw_tuples(task, n_obs, rngs)):
            rows.extend(drawn)
        seeds += [int(rng.integers(2 ** 31)) for rng in rngs]
    ens = sample_batch(net, d, e, seeds, sampler)
    errs = np.array([relative_error_de(m_true[i], ens[i].mean(axis=0), task, e[i])
                     for i in range(len(seeds))]).reshape(len(counts), trials)
    return [EvalReport(n_obs=n_obs, mean_error=float(row.mean()), std_error=float(row.std()),
                       trials=trials) for n_obs, row in zip(counts, errs)]


def generation_error(net, task, n_inferences, n_obs, sampler: SamplerConfig, seed=0):
    """Observation-reconstruction error of the trained sampler.

    Draws ``n_inferences`` fresh (m, e, d) instances with ``n_obs``
    observations each (required; ``evaluate`` uses the first training
    count), reconstructs observations from the posterior-ensemble mean at
    the same designs, and pools everything into one relative error
    ||D - D_hat|| / ||D|| (per-instance errors are also returned for
    inspection). Pooling keeps near-zero single observations
    from dominating the aggregate. Sampler seeds derive from ``seed``;
    ``sampler.seed`` is not used.
    """
    if n_inferences < 1:
        raise ValueError(f"n_inferences must be >= 1, got {n_inferences}")
    rngs = (np.random.default_rng(np.random.SeedSequence((seed, 0x67656e65, i)))
            for i in range(n_inferences))
    _, es, ds, _ = draw_tuples(task, n_obs, rngs)
    seeds = [(seed ^ 0x5eed) + i for i in range(n_inferences)]
    # members are averaged in float32, the precision of the flow state
    m_hat = sample_batch(net, ds, es, seeds, sampler).astype(np.float32).mean(axis=1)
    num = den = 0.0
    per_case = np.empty(n_inferences)
    for i in range(n_inferences):
        d_hat = task.forward_observed(m_hat[i].astype(np.float64), es[i])
        r = ds[i] - np.asarray(d_hat).reshape(-1)
        num += float(r @ r)
        den += float(ds[i] @ ds[i])
        norm = np.linalg.norm(ds[i])
        per_case[i] = np.linalg.norm(r) / norm if norm > 0 else np.inf
    return float(np.sqrt(num / den)), per_case
