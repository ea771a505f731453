import numpy as np
import pytest

from perfbench.ess import bulk_ess, bulk_ess_min


def ar1(phi, n_chains, n_draws, seed):
    rng = np.random.default_rng(seed)
    x = np.empty((n_chains, n_draws))
    x[:, 0] = rng.standard_normal(n_chains) / np.sqrt(1 - phi ** 2)
    for t in range(1, n_draws):
        x[:, t] = phi * x[:, t - 1] + rng.standard_normal(n_chains)
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ar1_matches_known_ess(phi):
    # An AR(1) series has integrated autocorrelation time (1 + phi) / (1 - phi).
    n_chains, n_draws = 4, 5000
    expected = n_chains * n_draws * (1 - phi) / (1 + phi)
    got = bulk_ess(ar1(phi, n_chains, n_draws, seed=int(10 * phi)))
    assert got == pytest.approx(expected, rel=0.15)


def test_split_chains_expose_a_drifting_chain():
    # Two chains that sit at different levels mix badly: ESS far below n.
    x = ar1(0.0, 2, 2000, seed=3)
    x[1] += 3.0
    assert bulk_ess(x) < 0.05 * x.size


def test_min_skips_constant_dimensions():
    x = ar1(0.5, 2, 1000, seed=4)
    samples = np.stack([x, np.ones_like(x)], axis=-1)      # (chains, draws, 2)
    assert np.isnan(bulk_ess(samples[:, :, 1]))
    assert bulk_ess_min(samples) == pytest.approx(bulk_ess(x))
    assert np.isnan(bulk_ess_min(np.ones((2, 100, 3))))
