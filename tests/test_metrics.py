import numpy as np
import pytest

from flowinverse import cfm, metrics
from flowinverse.cfm import SamplerConfig, sample_posterior
from flowinverse.data import draw_tuples
from flowinverse.metrics import evaluate_sweep, generation_error, relative_error_de
from flowinverse.net import NetConfig, VelocityNet
from flowinverse.tasks import get_task


def tiny_net():
    cfg = NetConfig(n_emb=8, n_head=2, n_layer=1, dim_m=1, obs_token_dim=2)
    return VelocityNet(get_task("nonlinear"), cfg, seed=0)


class TestRelativeErrorDe:
    @pytest.mark.parametrize("name", ["nonlinear", "seir", "darcy"])
    def test_true_ensemble_gives_zero(self, name):
        task = get_task(name)
        rng = np.random.default_rng(1)
        m = task.sample_params(rng, 1)[0]
        e = task.sample_design(rng, 4)
        ens_mean = np.stack([m, m, m]).mean(axis=0)
        assert relative_error_de(m, ens_mean, task, e) == pytest.approx(0.0, abs=1e-12)

    def test_truth_never_worse_than_corruption(self):
        task = get_task("seir")
        rng = np.random.default_rng(2)
        m = task.sample_params(rng, 1)[0]
        e = task.sample_design(rng, 4)
        wrong = np.clip(m + 0.2, 0, 1)
        assert relative_error_de(m, m, task, e) <= relative_error_de(m, wrong, task, e)


class _ConstNet:
    def __init__(self, task, c):
        self.task = task
        self.c = np.float32(c)

    def condition(self, d, e, times, members):
        return None

    def velocity(self, m_t, k, cond):
        return np.full_like(m_t, self.c)


class TestEvaluateSweep:
    def test_reproducible_and_shapes(self):
        task = get_task("nonlinear")
        net = _ConstNet(task, 0.1)
        cfg = SamplerConfig(steps=5, ensemble=3)
        r1 = evaluate_sweep(net, task, [1, 2], trials=3, sampler=cfg, seed=9)
        r2 = evaluate_sweep(net, task, [1, 2], trials=3, sampler=cfg, seed=9)
        assert [(a.n_obs, a.mean_error, a.std_error) for a in r1] == \
               [(b.n_obs, b.mean_error, b.std_error) for b in r2]
        assert [r.n_obs for r in r1] == [1, 2] and all(r.trials == 3 for r in r1)

    def test_single_trial_zero_std(self):
        task = get_task("nonlinear")
        net = _ConstNet(task, 0.0)
        (rep,) = evaluate_sweep(net, task, [1], trials=1,
                                sampler=SamplerConfig(steps=3, ensemble=2), seed=0)
        assert rep.std_error == 0.0

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_no_trials(self, trials):
        task = get_task("nonlinear")
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            evaluate_sweep(_ConstNet(task, 0.0), task, [1], trials=trials,
                           sampler=SamplerConfig(steps=3, ensemble=2))

    def test_rejects_a_repeated_count(self):
        task = get_task("nonlinear")
        with pytest.raises(ValueError, match="n_obs_list repeats an observation count: 2"):
            evaluate_sweep(_ConstNet(task, 0.0), task, [2, 1, 2], trials=1,
                           sampler=SamplerConfig(steps=3, ensemble=2))

    def test_one_sample_batch_call_for_every_count(self, monkeypatch):
        task = get_task("nonlinear")
        calls = []

        def recording(net, d, e, seeds, cfg):
            calls.append(sorted({len(row) for row in d}))
            return cfm.sample_batch(net, d, e, seeds, cfg)

        monkeypatch.setattr(metrics, "sample_batch", recording)
        reports = evaluate_sweep(_ConstNet(task, 0.1), task, [3, 1, 2], trials=2,
                                 sampler=SamplerConfig(steps=2, ensemble=3))
        assert calls == [[1, 2, 3]] and [r.n_obs for r in reports] == [3, 1, 2]

    def test_sweep_never_conditions_more_paths_than_the_bound(self):
        task = get_task("nonlinear")
        sampler = SamplerConfig(steps=2, ensemble=10)
        trials = cfm.PATH_BATCH // sampler.ensemble + 1
        rows = []

        class Recording(_ConstNet):
            def condition(self, d, e, times, members):
                rows.append(len(d))
                return super().condition(d, e, times, members)

        evaluate_sweep(Recording(task, 0.1), task, [1], trials=trials, sampler=sampler)
        assert sum(rows) == trials
        assert max(rows) * sampler.ensemble <= cfm.PATH_BATCH

    def test_batched_sweep_matches_per_trial_reference(self):
        # Reference: one sample_posterior per trial on that trial's stream.
        # Batching the trials changes only float32 rounding in the network.
        # The second trial count of 3 members spans two integrations.
        task = get_task("nonlinear")
        net = tiny_net()
        sampler = SamplerConfig(steps=6, ensemble=3)
        for trials in (4, cfm.PATH_BATCH // 3 + 1):
            reports = evaluate_sweep(net, task, [1, 3], trials=trials, sampler=sampler, seed=5)
            for rep in reports:
                errs = []
                for trial in range(trials):
                    rng = np.random.default_rng(
                        np.random.SeedSequence((5, 0x6576616c, rep.n_obs, trial)))
                    m, e, d, _ = draw_tuples(task, rep.n_obs, [rng])
                    cfg = SamplerConfig(steps=6, ensemble=3, seed=int(rng.integers(2 ** 31)))
                    ens = sample_posterior(net, d[0], e[0], cfg)
                    errs.append(relative_error_de(m[0], ens.mean, task, e[0]))
                assert rep.mean_error == pytest.approx(np.mean(errs), rel=1e-5)
                assert rep.std_error == pytest.approx(np.std(errs), rel=1e-4)


class TestGenerationError:
    def test_runs_and_pools(self):
        task = get_task("nonlinear")
        net = _ConstNet(task, 0.0)
        pooled, per_case = generation_error(net, task, n_inferences=30, n_obs=1,
                                            sampler=SamplerConfig(steps=4, ensemble=4), seed=1)
        assert per_case.shape == (30,)
        assert 0.0 <= pooled < 10.0
        assert np.isfinite(pooled)

    def test_rejects_no_inferences(self):
        task = get_task("nonlinear")
        with pytest.raises(ValueError, match="n_inferences must be >= 1, got 0"):
            generation_error(_ConstNet(task, 0.0), task, n_inferences=0, n_obs=1,
                             sampler=SamplerConfig(steps=4, ensemble=4))

    def test_seeded_output_pinned(self, monkeypatch):
        # recorded from the two-stream net, which the float64 oracle of
        # tests/test_net.py reproduces here; a bound of 6 paths splits the
        # batch into integrations of 2 instances
        monkeypatch.setattr(cfm, "PATH_BATCH", 6)
        pooled, per_case = generation_error(tiny_net(), get_task("nonlinear"), n_inferences=5,
                                            n_obs=1, sampler=SamplerConfig(steps=4, ensemble=3),
                                            seed=2)
        np.testing.assert_allclose(
            per_case, [0.12616866957922976, 0.12309386728462503, 1.4443233432364797,
                       0.1264965867335792, 0.417577588339497], rtol=1e-6)
        assert pooled == pytest.approx(0.20730150337645764, rel=1e-6)

