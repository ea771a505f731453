import numpy as np
import pytest

from flowinverse import cli
from flowinverse.mcmc import BURN_IN, ChainConfig, log_posterior, mh_step, run_chain
from flowinverse.tasks import get_task
from flowinverse.tasks.darcy import SolverError


class _GaussianTargetTask:
    """Identity forward model with flat prior: posterior of m given d=0 and
    the default sigma=1 is exactly standard normal."""
    name = "gauss"
    dim_m = 1

    def __init__(self, sigma=1.0):
        self.sigma = sigma

    def prior_sample(self, rng, size):
        return rng.normal(0.0, 1.0, (size, 1))

    def log_prior(self, m):
        return 0.0

    def forward_observed(self, m, e_row):
        return np.asarray(m, dtype=np.float64).reshape(-1)

    def sigma_for(self, e_row):
        return self.sigma


class _StuckTask(_GaussianTargetTask):
    """Only the first state it is asked about lies in the prior support, so
    a chain rejects every proposal, in tuning as in the main chain."""

    def __init__(self):
        super().__init__()
        self.prior_calls = 0

    def log_prior(self, m):
        self.prior_calls += 1
        return 0.0 if self.prior_calls == 1 else -np.inf


class _FailingTask(_GaussianTargetTask):
    """A forward model that raises ``error`` away from the origin."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def forward_observed(self, m, e_row):
        if abs(float(m[0])) > 0.5:
            raise self.error
        return super().forward_observed(m, e_row)


class TestLogPosterior:
    def test_outside_support(self):
        task = get_task("seir")
        m = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 1.5])
        assert log_posterior(task, m, np.zeros(8), np.full(4, 2.0), 0.5) == -np.inf

    def test_a_programming_error_in_the_forward_model_propagates(self):
        task = _FailingTask(IndexError("index 3 is out of bounds"))
        with pytest.raises(IndexError, match="index 3 is out of bounds"):
            run_chain(task, np.zeros(1), np.zeros(1), ChainConfig(n_samples=50, seed=0))

    @pytest.mark.parametrize("error", [FloatingPointError("SEIR state became non-finite"),
                                       SolverError("banded Cholesky factorisation failed")])
    def test_a_numerical_failure_is_minus_infinity_with_a_warning(self, error):
        with pytest.warns(UserWarning, match="forward model failed during MCMC: "):
            lp = log_posterior(_FailingTask(error), np.array([0.9]), np.zeros(1), np.zeros(1), 1.0)
        assert lp == -np.inf

    def test_zero_residual_is_maximal(self):
        task = get_task("nonlinear")
        m = np.array([0.4])
        e = np.array([0.3, 0.8])
        d = task.forward_observed(m, e)
        assert log_posterior(task, m, d, e, 0.01) == pytest.approx(0.0)
        assert log_posterior(task, m + 0.05, d, e, 0.01) < 0.0

    def test_darcy_log_prior_is_the_standard_normal_exponent(self):
        # the KL coefficients are i.i.d. N(0, 1): log prior -|m|^2 / 2 up to
        # a constant, finite everywhere
        task = get_task("darcy")
        rng = np.random.default_rng(5)
        for m in (np.zeros(16), rng.normal(size=16), np.full(16, 30.0)):
            assert task.log_prior(m) == pytest.approx(-0.5 * float(m @ m), rel=1e-15)
        m = rng.normal(size=16)
        assert task.log_prior(2 * m) == pytest.approx(4 * task.log_prior(m))

    def test_doubling_sigma_quarters_magnitude(self):
        task = get_task("nonlinear")
        m = np.array([0.4])
        e = np.array([0.3])
        d = task.forward_observed(m, e) + 0.1
        l1 = log_posterior(task, m, d, e, 0.05)
        l2 = log_posterior(task, m, d, e, 0.10)
        assert l1 == pytest.approx(4.0 * l2)


class TestMhStep:
    def test_uphill_always_accepted(self):
        seen = []

        def logpost(m):
            lp = -0.5 * float(m @ m)
            seen.append(lp)
            return lp

        rng = np.random.default_rng(0)
        m = np.array([3.0])
        lp = logpost(m)
        uphill = 0
        for _ in range(300):
            seen.clear()
            m2, lp2, ok = mh_step(m, lp, 0.8, rng, logpost)
            prop_lp = seen[0]          # logpost is called once, on the proposal
            if prop_lp >= lp:
                assert ok and lp2 == prop_lp
                uphill += 1
            m, lp = m2, lp2
        assert uphill > 50             # the probe actually exercised uphill moves

    def test_zero_scale_never_moves(self):
        logpost = lambda m: -0.5 * float(m @ m)
        rng = np.random.default_rng(0)
        m = np.array([0.7])
        accepted = 0
        for _ in range(100):
            m2, _, ok = mh_step(m, logpost(m), 0.0, rng, logpost)
            accepted += ok
            np.testing.assert_array_equal(m2, m)
        assert accepted == 100

    def test_standard_normal_chain_statistics(self):
        logpost = lambda m: -0.5 * float(m @ m)
        rng = np.random.default_rng(7)
        n = 100_000
        m = np.array([0.0])
        lp = logpost(m)
        xs = np.empty(n)
        for i in range(n):
            m, lp, _ = mh_step(m, lp, 2.4, rng, logpost)
            xs[i] = m[0]
        # batch-means standard error accounts for autocorrelation
        batches = xs.reshape(100, 1000).mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(100)
        assert abs(xs.mean()) < 3 * se
        assert xs.var() == pytest.approx(1.0, rel=0.10)


class TestChainConfig:
    @pytest.mark.parametrize("key, value, problem", [
        ("n_samples", 0, "n_samples must be >= 1"),
    ])
    def test_rejects_value_out_of_range(self, key, value, problem):
        with pytest.raises(ValueError, match=problem):
            ChainConfig(**{key: value})


class TestRunChain:
    def test_same_seed_identical(self):
        task = _GaussianTargetTask()
        cfg = ChainConfig(n_samples=500, seed=3)
        a = run_chain(task, [0.0], [0.0], cfg)
        b = run_chain(task, [0.0], [0.0], cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_acceptance_in_band_after_tuning(self):
        task = _GaussianTargetTask()
        cfg = ChainConfig(n_samples=4000, seed=0)
        res = run_chain(task, [0.0], [0.0], cfg)
        assert 0.15 <= res.acceptance_rate <= 0.5

    def test_uniform_support_respected(self):
        task = get_task("nonlinear")
        rngd = np.random.default_rng(0)
        e = np.array([0.4, 0.9])
        d = task.forward_observed(np.array([0.5]), e) + rngd.normal(0, 0.01, 2)
        res = run_chain(task, d, e, ChainConfig(n_samples=2000, seed=1))
        assert res.samples.min() >= 0.0
        assert res.samples.max() <= 1.0

    def test_posterior_mean_recovers_gaussian(self):
        task = _GaussianTargetTask()
        cfg = ChainConfig(n_samples=20_000, seed=2)
        res = run_chain(task, [0.0], [0.0], cfg)
        assert abs(res.posterior_mean[0]) < 0.1
        assert res.samples.var() == pytest.approx(1.0, rel=0.15)

    def test_burn_in_discarded(self):
        task = _GaussianTargetTask()
        cfg = ChainConfig(n_samples=1000, seed=4)
        res = run_chain(task, [0.0], [0.0], cfg)
        assert BURN_IN == 0.5 and len(res.samples) == 500

    def test_stall_warning(self):
        # every proposal is rejected: tuning shrinks the scale round after
        # round without reaching the band, then the main chain stalls
        res = run_chain(_StuckTask(), [0.0], [0.0], ChainConfig(n_samples=1500, seed=5))
        assert not res.accepted.any() and res.acceptance_rate == 0.0
        assert len(res.warnings) == 3
        assert res.warnings[0].startswith("tuning ran out of rounds: no pilot round of the 30")
        assert res.warnings[1] == "chain stalled: 1000 consecutive rejections at step 999"
        assert res.warnings[2] == "acceptance 0.000 outside the tuning band [0.2, 0.4]"

    def test_tuning_that_runs_out_of_rounds_warns(self):
        # infinite noise makes the target flat: every proposal is accepted,
        # so no pilot round reaches the band and neither does the chain
        task = _GaussianTargetTask(sigma=np.inf)
        res = run_chain(task, [0.0], [0.0], ChainConfig(n_samples=200, seed=0))
        assert res.acceptance_rate == 1.0
        assert len(res.warnings) == 2
        assert res.warnings[0].startswith("tuning ran out of rounds: no pilot round of the 30")
        assert res.warnings[1] == "acceptance 1.000 outside the tuning band [0.2, 0.4]"

    def test_acceptance_outside_the_band_warns(self):
        # a pilot round reached the band, but the main chain accepts 0.4175
        res = run_chain(_GaussianTargetTask(), [0.0], [0.0], ChainConfig(n_samples=4000, seed=0))
        assert res.warnings == ["acceptance 0.417 outside the tuning band [0.2, 0.4]"]

    def test_well_tuned_chain_has_no_warning(self):
        res = run_chain(_GaussianTargetTask(), [0.0], [0.0], ChainConfig(n_samples=4000, seed=1))
        assert 0.2 <= res.acceptance_rate <= 0.4
        assert res.warnings == []

    def test_chain_csv(self, tmp_path):
        task = _GaussianTargetTask()
        res = run_chain(task, [0.0], [0.0], ChainConfig(n_samples=50, seed=6))
        out = cli._write_csv(tmp_path / "chain.csv", *cli._chain_table(res))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,m0,log_posterior,accepted"
        assert len(lines) == 51

    def test_result_holds_the_whole_chain(self):
        task = _GaussianTargetTask()
        cfg = ChainConfig(n_samples=50, seed=6)
        res = run_chain(task, [0.0], [0.0], cfg)
        assert res.chain.shape == (50, 1)
        assert res.log_posterior.shape == res.accepted.shape == (50,)
        np.testing.assert_array_equal(res.samples, res.chain[25:])
        assert res.accepted.mean() == res.acceptance_rate
        np.testing.assert_array_equal(res.log_posterior, -0.5 * res.chain[:, 0] ** 2)
        moved = np.any(res.chain[1:] != res.chain[:-1], axis=1)
        np.testing.assert_array_equal(moved, res.accepted[1:])
