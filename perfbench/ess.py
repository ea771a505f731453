"""Rank-normalized split-chain bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner, "Rank-normalization,
folding, and localization: an improved R-hat for assessing convergence of
MCMC" (arXiv 1903.08008): split every chain in half, replace the pooled draws
by the normal scores of their ranks, and sum the multi-chain autocorrelation
with Geyer's initial monotone sequence.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(x):
    """Biased autocovariance of each row of ``x`` at every lag, via FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def ess(chains) -> float:
    """Effective sample size of draws shaped (n_chains, n_draws).

    Returns NaN when the draws are constant or not finite.
    """
    x = np.asarray(chains, dtype=np.float64)
    n_chains, n = x.shape
    if n < 4 or not np.isfinite(x).all():
        return float("nan")
    acov = _autocovariance(x)
    within = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = within * (n - 1.0) / n
    if n_chains > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float("nan")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer: keep lag pairs while their sum is positive, then force the pair
    # sums to be non-increasing.
    pair_sums = []
    for t in range(0, n - 1, 2):
        p = rho[t] + rho[t + 1]
        if p <= 0.0:
            break
        pair_sums.append(min(p, pair_sums[-1]) if pair_sums else p)
    tau = -1.0 + 2.0 * float(np.sum(pair_sums))
    total = n_chains * n
    tau = max(tau, 1.0 / np.log10(total))
    return total / tau


def bulk_ess(chains) -> float:
    """Bulk ESS: split each chain in half and rank-normalize the pooled draws."""
    x = np.asarray(chains, dtype=np.float64)
    half = x.shape[1] // 2
    split = np.concatenate([x[:, :half], x[:, x.shape[1] - half:]], axis=0)
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return ess(z)


def bulk_ess_min(samples) -> float:
    """Smallest bulk ESS over the dimensions of draws shaped
    (n_chains, n_draws, dim); NaN only when every dimension is constant."""
    samples = np.asarray(samples, dtype=np.float64)
    values = [bulk_ess(samples[:, :, j]) for j in range(samples.shape[2])]
    finite = [v for v in values if np.isfinite(v)]
    return min(finite) if finite else float("nan")
