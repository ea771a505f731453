import re

import numpy as np
import pytest

from flowinverse import cfm
from flowinverse import tensor as T
from flowinverse.cfm import (FlowDivergedError, SamplerConfig, TrainConfig,
                             TrainingDivergedError, _integrate_flow, _prior_draws, cfm_loss,
                             interpolate, sample_batch, sample_posterior, train)
from flowinverse.data import Batch, DataGenConfig, DatasetShard, generate_dataset
from flowinverse.net import NetConfig, VelocityNet
from flowinverse.tasks import get_task


class TestInterpolate:
    def test_endpoints(self):
        m0 = np.array([[1.0, 2.0]])
        m1 = np.array([[5.0, -2.0]])
        np.testing.assert_array_equal(interpolate(m0, m1, np.zeros(1)), m0)
        np.testing.assert_array_equal(interpolate(m0, m1, np.ones(1)), m1)

    def test_midpoint(self):
        out = interpolate(np.zeros((1, 2)), np.array([[2.0, 4.0]]), np.full(1, 0.5))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_linear_in_t(self):
        rng = np.random.default_rng(0)
        m0, m1 = rng.normal(size=(2, 3, 4))
        t = rng.uniform(0, 1, 3)
        out = interpolate(m0, m1, t)
        np.testing.assert_allclose(out, m0 + t[:, None] * (m1 - m0), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            interpolate(np.zeros((1, 2)), np.zeros((1, 3)), np.full(1, 0.5))

    @pytest.mark.parametrize("t", [0.5, np.full(1, 0.5), np.full((3, 1), 0.5)])
    def test_rejects_times_not_one_per_row(self, t):
        with pytest.raises(ValueError, match=r"t must have shape \(3,\), a time per row"):
            interpolate(np.zeros((3, 2)), np.ones((3, 2)), t)


class _OracleNet:
    """Stub used to probe the loss contract: emits a fixed velocity array."""

    def __init__(self, out, dim_m=2):
        self._out = np.asarray(out, dtype=np.float32)
        self.task = None

    def forward(self, m_t, t, d, e):
        return T.Tensor(self._out)


def _toy_batch(m, n_obs=1):
    m = np.asarray(m, dtype=np.float32)
    B = m.shape[0]
    return Batch(n_obs=n_obs, m=m, e=np.zeros((B, n_obs), np.float32),
                 d=np.zeros((B, n_obs), np.float32), index=np.arange(B))


class TestCfmLoss:
    def test_perfect_network_zero_loss(self):
        rng = np.random.default_rng(0)
        m1 = rng.uniform(0, 1, (8, 2))
        m0 = rng.uniform(0, 1, (8, 2))
        t = rng.uniform(0, 1, 8)
        net = _OracleNet(m1.astype(np.float32) - m0.astype(np.float32))
        loss = cfm_loss(net, _toy_batch(m1), t, m0)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        m1 = rng.uniform(0, 1, (8, 2))
        m0 = rng.uniform(0, 1, (8, 2))
        net = _OracleNet(rng.normal(size=(8, 2)))
        assert cfm_loss(net, _toy_batch(m1), rng.uniform(0, 1, 8), m0).item() >= 0.0

    def test_degenerate_dataset_zero_output(self):
        m = np.full((5, 2), 0.3)
        net = _OracleNet(np.zeros((5, 2)))
        loss = cfm_loss(net, _toy_batch(m), np.linspace(0, 1, 5), m.copy())
        assert loss.item() == pytest.approx(0.0, abs=1e-12)


def tiny_dataset(count=96, seed=0, n_obs=(1,)):
    return generate_dataset(DataGenConfig(task="nonlinear", tuples_per_n_obs=count,
                                          n_obs_set=n_obs, seed=seed))


def tiny_net(seed=0):
    cfg = NetConfig(n_emb=8, n_head=2, n_layer=1, dim_m=1, obs_token_dim=2)
    return VelocityNet(get_task("nonlinear"), cfg, seed=seed)


class TestTrain:
    def test_deterministic_history(self):
        shards = tiny_dataset()
        tc = TrainConfig(lr=1e-3, epochs=2, batch_size=32, accum_window=2, seed=5)
        _, h1 = train(tiny_net(), shards, tc)
        _, h2 = train(tiny_net(), shards, tc)
        assert h1 == h2

    def test_zero_learning_rate_keeps_params(self):
        shards = tiny_dataset()
        net = tiny_net()
        before = {k: p.data.copy() for k, p in net.params.items()}
        train(net, shards, TrainConfig(lr=0.0, epochs=1, batch_size=32))
        for k, p in net.params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_accumulation_window_equivalence(self):
        shards = tiny_dataset(count=128)
        tc_a = TrainConfig(lr=1e-3, epochs=1, batch_size=64, accum_window=1, seed=9)
        tc_b = TrainConfig(lr=1e-3, epochs=1, batch_size=32, accum_window=2, seed=9)
        net_a, h_a = train(tiny_net(3), shards, tc_a)
        net_b, h_b = train(tiny_net(3), shards, tc_b)
        assert len(h_a) == len(h_b)
        for k in net_a.params:
            np.testing.assert_allclose(net_a.params[k].data, net_b.params[k].data,
                                       rtol=2e-5, atol=2e-6)

    def test_gradients_left_on_the_net_are_cleared(self):
        # backward adds into grad, so train must not start from a caller's
        # leftover gradients
        shards = tiny_dataset()
        tc = TrainConfig(lr=1e-3, epochs=1, batch_size=32, accum_window=2, seed=5)
        stale = tiny_net()
        for p in stale.params.values():
            p.grad = np.ones_like(p.data)
        net_a, h_a = train(tiny_net(), shards, tc)
        net_b, h_b = train(stale, shards, tc)
        assert h_a == h_b
        for k in net_a.params:
            np.testing.assert_array_equal(net_a.params[k].data, net_b.params[k].data)

    def test_divergence_aborts_with_checkpoint(self):
        shards = tiny_dataset()
        net = tiny_net()
        net.params["head.w"].data[:] = np.nan
        calls = []
        with pytest.raises(TrainingDivergedError) as exc:
            train(net, shards, TrainConfig(lr=1e-3, epochs=1, batch_size=32),
                  checkpoint_fn=lambda step, epoch, n: calls.append(step))
        assert exc.value.step == 0
        assert calls == [0]

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "accum_window"])
    def test_rejects_nonpositive_counts(self, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: 0})

    def test_rejects_shards_that_repeat_a_count(self):
        # the epoch noise is drawn per observation count
        shards = tiny_dataset(count=8) + tiny_dataset(count=8, seed=1)
        with pytest.raises(ValueError, match=r"repeat an observation count: \[1, 1\]"):
            train(tiny_net(), shards, TrainConfig(epochs=1))

    @pytest.mark.parametrize("rows", [None, 0], ids=["no-shards", "empty-shard"])
    def test_rejects_shards_without_tuples(self, rows):
        shards = [] if rows is None else [DatasetShard(
            n_obs=1, m=np.empty((0, 1)), e=np.empty((0, 2)), d=np.empty((0, 1)),
            eta=np.empty((0, 1)))]
        calls = []
        with pytest.raises(ValueError, match="no tuples to train on"):
            train(tiny_net(), shards, TrainConfig(epochs=1, checkpoint_every=1),
                  checkpoint_fn=lambda *args: calls.append(args))
        assert calls == []

    def test_loss_decreases(self):
        shards = tiny_dataset(count=512)
        tc = TrainConfig(lr=3e-3, epochs=6, batch_size=64, accum_window=1, seed=1)
        _, history = train(tiny_net(1), shards, tc)
        assert history[-1] < history[0]


class _Unconditioned:
    """What the stub nets below condition on: nothing, shared by any number
    of members."""

    def repeat(self, n):
        return self


class _ConstantNet:
    def __init__(self, c, dim_m, task):
        self.c = np.asarray(c, dtype=np.float32)
        self.task = task
        self.dim_m = dim_m

    def condition(self, d, e):
        return _Unconditioned()

    def velocity(self, m_t, t, cond):
        return np.broadcast_to(self.c, m_t.shape).copy()


class _LinearNet:
    """The field v = x, under which each solver step multiplies x by a fixed gain."""

    def __init__(self, task):
        self.task = task

    def condition(self, d, e):
        return _Unconditioned()

    def velocity(self, m_t, t, cond):
        return m_t.copy()


class _OneRowNet:
    """The field that is 0 everywhere but on one row of the batch."""

    def __init__(self, task, row, value):
        self.task, self.row, self.value = task, row, value

    def condition(self, d, e):
        return _Unconditioned()

    def velocity(self, m_t, t, cond):
        out = np.zeros_like(m_t)
        out[self.row] = self.value
        return out


class _Rows:
    """A conditioning that carries each path's observation."""

    def __init__(self, d):
        self.d = d

    def repeat(self, n):
        return _Rows(np.repeat(self.d, n))


class _OneMemberNet:
    """The field that is 0 everywhere but on one member of the instance
    observing ``bad``, wherever that instance falls in the batch."""

    def __init__(self, task, bad, member):
        self.task, self.bad, self.member = task, bad, member

    def condition(self, d, e):
        return _Rows(d[:, 0])

    def velocity(self, m_t, t, cond):
        out = np.zeros_like(m_t)
        rows = np.flatnonzero(cond.d == self.bad)
        if len(rows):
            out[rows[self.member]] = np.nan
        return out


class TestSamplerConfig:
    @pytest.mark.parametrize("kwargs, problem", [
        ({"steps": 0}, "steps and ensemble must be >= 1"),
        ({"ensemble": 0}, "steps and ensemble must be >= 1"),
        ({"method": "heun"}, "unknown integration method 'heun'"),
    ])
    def test_rejects(self, kwargs, problem):
        with pytest.raises(ValueError, match=problem):
            SamplerConfig(**kwargs)


class TestSamplePosterior:
    @pytest.mark.parametrize("method", ["euler", "midpoint", "rk4"])
    @pytest.mark.parametrize("steps", [1, 7, 50])
    def test_constant_field_exact(self, method, steps):
        task = get_task("nonlinear")
        net = _ConstantNet([0.25], 1, task)
        cfg = SamplerConfig(steps=steps, method=method, ensemble=6, seed=3)
        ens = sample_posterior(net, [0.5], [0.5], cfg)
        x0 = _prior_draws(task, 6, 3)
        np.testing.assert_allclose(ens.samples, x0 + 0.25, atol=5e-7)

    @pytest.mark.parametrize("method", ["euler", "midpoint", "rk4"])
    @pytest.mark.parametrize("steps", [1, 7, 50])
    def test_linear_field_endpoint_is_the_solver_gain(self, method, steps):
        # each step of a solver maps x to g x under v = x, with g the
        # solver's truncated Taylor series of e^h
        h = 1.0 / steps
        gain = {"euler": 1 + h, "midpoint": 1 + h + h ** 2 / 2,
                "rk4": 1 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24}[method]
        task = get_task("nonlinear")
        cfg = SamplerConfig(steps=steps, method=method, ensemble=6, seed=4)
        ens = sample_posterior(_LinearNet(task), [0.5], [0.5], cfg)
        np.testing.assert_allclose(ens.samples, _prior_draws(task, 6, 4) * gain ** steps,
                                   rtol=1e-5)

    def test_same_seed_identical(self):
        net = tiny_net()
        cfg = SamplerConfig(steps=10, ensemble=5, seed=11)
        a = sample_posterior(net, [0.5], [0.5], cfg)
        b = sample_posterior(net, [0.5], [0.5], cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_batched_members_match_individual_integration(self):
        net = tiny_net()
        cfg = SamplerConfig(steps=8, ensemble=4, seed=2)
        batch = sample_posterior(net, [0.4], [0.6], cfg).samples
        x0 = _prior_draws(net.task, 4, 2)
        d, e = np.float32([[0.4]]), np.float32([[0.6]])
        singles = [_integrate_flow(net, x0[i:i + 1], d, e, cfg)[0] for i in range(4)]
        np.testing.assert_allclose(batch, np.stack(singles), atol=1e-6)

    def test_seeded_output_pinned(self):
        # recorded from the two-stream net, which an Euler integration of the
        # float64 oracle of tests/test_net.py matches to 1e-7; a change of
        # prior-draw or conditioning stream moves these by far more than the
        # tolerance
        ens = sample_posterior(tiny_net(), [0.5], [0.5], SamplerConfig(steps=6, ensemble=4, seed=2))
        np.testing.assert_allclose(
            ens.samples[:, 0],
            [0.2136095017194748, 0.2009391486644745, 0.919879674911499,
             0.25515905022621155], rtol=1e-6)

    def test_nonfinite_velocity_reported(self):
        task = get_task("nonlinear")
        net = _ConstantNet([np.nan], 1, task)
        with pytest.raises(FloatingPointError):
            sample_posterior(net, [0.5], [0.5], SamplerConfig(steps=3, ensemble=2))

    def test_nonfinite_state_reported(self):
        # each velocity is finite, but the rk4 combination overflows float32
        net = _ConstantNet([3e38], 1, get_task("nonlinear"))
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match="flow state became non-finite after t=1.0000"):
            sample_posterior(net, [0.5], [0.5], SamplerConfig(steps=1, method="rk4", ensemble=2))


class TestSampleBatch:
    D = np.array([[0.4], [0.9], [0.1]])
    E = np.array([[0.6], [0.2], [0.8]])
    SEEDS = [2, 7, 2]

    def test_single_instance_is_sample_posterior(self):
        net = tiny_net()
        cfg = SamplerConfig(steps=8, ensemble=4, seed=5)
        batch = sample_batch(net, self.D[:1], self.E[:1], [cfg.seed], cfg)
        ens = sample_posterior(net, self.D[0], self.E[0], cfg)
        assert batch.shape == (1, 4, 1) and batch.dtype == np.float64
        np.testing.assert_array_equal(batch[0], ens.samples)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_rows_match_own_sample_posterior(self, method):
        net = tiny_net()
        cfg = SamplerConfig(steps=8, method=method, ensemble=4)
        batch = sample_batch(net, self.D, self.E, self.SEEDS, cfg)
        assert batch.shape == (3, 4, 1)
        for i, seed in enumerate(self.SEEDS):
            own = sample_posterior(net, self.D[i], self.E[i],
                                   SamplerConfig(steps=8, method=method, ensemble=4, seed=seed))
            np.testing.assert_allclose(batch[i], own.samples, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("value, method, problem", [
        (np.nan, "euler", "velocity became non-finite at t=0.0000 in row 6"),
        # a finite velocity whose rk4 combination overflows float32
        (3e38, "rk4", "flow state became non-finite after t=1.0000 in row 6")])
    def test_nonfinite_path_names_its_instance_and_member(self, value, method, problem):
        net = _OneRowNet(get_task("nonlinear"), 6, value)
        cfg = SamplerConfig(steps=1, method=method, ensemble=4)
        with np.errstate(over="ignore"), pytest.raises(
                FlowDivergedError, match=re.escape(f"{problem} (instance 1, member 2)")) as err:
            sample_batch(net, self.D, self.E, self.SEEDS, cfg)
        assert err.value.row == 6

    def test_divergence_in_a_later_chunk_names_its_true_instance(self, monkeypatch):
        # 2 instances of 4 members per integration: instance 3 is the second
        # of the second chunk, and its member 2 is path 14 of the call
        monkeypatch.setattr(cfm, "PATH_BATCH", 8)
        d = np.array([[0.4], [0.9], [0.1], [0.7], [0.3]], dtype=np.float32)
        net = _OneMemberNet(get_task("nonlinear"), d[3, 0], 2)
        with pytest.raises(FlowDivergedError, match=re.escape(
                "velocity became non-finite at t=0.0000 in row 14 (instance 3, member 2)")) as err:
            sample_batch(net, d, d, [1, 2, 3, 4, 5], SamplerConfig(steps=1, ensemble=4))
        assert err.value.row == 14

    def test_rejects_seed_count_mismatch(self):
        with pytest.raises(ValueError, match="2 seeds"):
            sample_batch(tiny_net(), self.D, self.E, [1, 2], SamplerConfig(steps=2))

    def test_rejects_an_empty_seed_list(self):
        with pytest.raises(ValueError, match="seeds is empty"):
            sample_batch(tiny_net(), self.D[:0], self.E[:0], [], SamplerConfig(steps=2))
