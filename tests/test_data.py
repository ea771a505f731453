import numpy as np
import pytest

from flowinverse import artifact, cli, data
from flowinverse.config import resolve
from flowinverse.data import (FORMAT_VERSION, MAGIC, Batch, DataGenConfig, DatasetFormatError,
                              DatasetShard, DatasetTaskError, _tuple_rng, batch_iterator,
                              draw_tuples, generate_dataset, generate_shard, load_dataset,
                              save_dataset)
from flowinverse.tasks import DarcyTask, get_task
from flowinverse.tasks.nonlinear import NonlinearTask
from flowinverse.tasks.nonlinear import nonlinear_forward


def small_config(**kw):
    base = dict(task="nonlinear", tuples_per_n_obs=50, n_obs_set=(1, 3), seed=7)
    base.update(kw)
    return DataGenConfig(**base)


class TestGeneration:
    def test_bitwise_reproducible(self):
        a = generate_dataset(small_config())
        b = generate_dataset(small_config())
        for sa, sb in zip(a, b):
            for f in ("m", "e", "d", "eta"):
                np.testing.assert_array_equal(getattr(sa, f), getattr(sb, f))

    def test_noise_free_matches_formula(self):
        class NoiseFreeTask(NonlinearTask):
            sigma = 0.0

        for n_obs in (1, 3):
            s = generate_shard(NoiseFreeTask(), n_obs, 50, 7)
            clean = nonlinear_forward(s.m.astype(np.float64)[:, :1],
                                      s.e.astype(np.float64))
            np.testing.assert_allclose(s.d, clean, atol=1e-6)
            np.testing.assert_array_equal(s.eta, 0.0)

    def test_shard_layout(self):
        shards = generate_dataset(small_config(task="seir", n_obs_set=(6,),
                                               tuples_per_n_obs=20))
        (s,) = shards
        assert s.n_obs == 6
        assert s.e.shape == (20, 6)
        assert s.d.shape == (20, 12)
        # a real Darcy shard, so dataset generation runs the PDE solver
        (s,) = generate_dataset(small_config(task="darcy", n_obs_set=(4,),
                                             tuples_per_n_obs=3))
        assert s.e.shape == (3, 10)
        assert s.d.shape == (3, 4)
        assert np.isfinite(s.d).all() and np.abs(s.d - s.eta).max() > 0

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            small_config(tuples_per_n_obs=0)

    def test_observation_counts_are_required(self):
        with pytest.raises(TypeError, match="n_obs_set"):
            DataGenConfig(task="nonlinear", tuples_per_n_obs=4)
        with pytest.raises(ValueError, match="n_obs_set must name at least one"):
            small_config(n_obs_set=())

    def test_rejects_a_repeated_observation_count(self):
        # shards are keyed by n_obs when batched, so a second shard of the
        # same count would lose half its tuples
        with pytest.raises(ValueError, match=r"repeats an observation count: \(2, 2\)"):
            small_config(n_obs_set=(2, 2))

    def test_prior_moments(self):
        shards = generate_dataset(small_config(tuples_per_n_obs=12_000, n_obs_set=(1,)))
        m = shards[0].m.astype(np.float64).ravel()
        n = m.size
        se_mean = np.sqrt(1 / 12 / n)
        assert abs(m.mean() - 0.5) < 3 * se_mean
        # variance of a U[0,1] sample: var of var estimator ~ (mu4 - var^2)/n
        se_var = np.sqrt((1 / 80 - (1 / 12) ** 2) / n)
        assert abs(m.var() - 1 / 12) < 3 * se_var

    def test_gaussian_prior_moments(self):
        class _UnsolvedDarcy(DarcyTask):     # the moments of m need no PDE solves
            def simulate_batch(self, m, e, n_obs):
                return np.zeros((len(m), n_obs)), np.zeros(len(m))

        shard = generate_shard(_UnsolvedDarcy(), 4, 700, 3)
        m = shard.m.astype(np.float64).ravel()
        n = m.size
        assert abs(m.mean()) < 3 / np.sqrt(n)
        assert abs(m.var() - 1.0) < 3 * np.sqrt(2.0 / n)


def _reference_instance(task, n_obs, rng):
    """One tuple drawn the way single instances were drawn before draw_tuples."""
    m = task.sample_params(rng, 1)[0]
    e = task.sample_design(rng, n_obs)
    clean, scale = task.simulate_batch(m[None, :], e[None, :], n_obs)
    eta = rng.standard_normal(clean.shape[1]) * scale[0]
    return m, e, clean[0] + eta, eta


class TestDrawTuples:
    CASES = [("nonlinear", 3, 7), ("seir", 5, 5), ("darcy", 4, 3)]

    @pytest.mark.parametrize("name,n_obs,count", CASES)
    def test_rows_match_generate_shard_and_single_draws(self, name, n_obs, count, monkeypatch):
        monkeypatch.setattr(data, "SIM_BATCH", 2)
        task = get_task(name)
        batch = tuple(draw_tuples(task, n_obs, [_tuple_rng(13, n_obs, i) for i in range(count)]))
        shard = generate_shard(task, n_obs, count, 13)
        for i in range(count):
            ref = _reference_instance(task, n_obs, _tuple_rng(13, n_obs, i))
            for arr, stored, want in zip(batch, (shard.m, shard.e, shard.d, shard.eta), ref):
                np.testing.assert_array_equal(arr[i], want)
                np.testing.assert_array_equal(stored[i], want.astype(np.float32))

    @pytest.mark.parametrize("name,n_obs,count", CASES)
    def test_cli_instance_matches_single_draw(self, name, n_obs, count):
        task = get_task(name)
        cfg = resolve({"task": name, "instance.n_obs": n_obs, "seed": 4,
                       "instance.seed": count})
        rng = np.random.default_rng(np.random.SeedSequence((4, 0x696e7374, count)))
        ref = _reference_instance(task, n_obs, rng)
        for got, want in zip(cli._draw_instance(cfg, task), ref):
            np.testing.assert_array_equal(got, want)

    def test_rejects_empty_shard(self):
        with pytest.raises(ValueError, match="at least one tuple"):
            generate_shard(get_task("nonlinear"), 1, 0, 0)

    def test_forward_model_failure_names_the_shard(self):
        class Failing(NonlinearTask):
            def simulate_batch(self, m, e, n_obs):
                raise FloatingPointError("solver blew up")

        with pytest.raises(RuntimeError, match=r"shard n_obs=3, seed=7: forward model failed "
                                               r"on tuples \[0, 4\): solver blew up"):
            generate_shard(Failing(), 3, 4, 7)

    def test_failing_second_chunk_names_its_tuple_range(self, monkeypatch):
        monkeypatch.setattr(data, "SIM_BATCH", 2)
        rows = []

        class FailsSecond(NonlinearTask):
            def simulate_batch(self, m, e, n_obs):
                rows.append(len(m))
                if len(rows) == 2:
                    raise FloatingPointError("solver blew up")
                return super().simulate_batch(m, e, n_obs)

        with pytest.raises(RuntimeError, match=r"forward model failed on tuples \[2, 3\): "
                                               "solver blew up"):
            draw_tuples(FailsSecond(), 3, [_tuple_rng(7, 3, i) for i in range(3)])
        assert rows == [2, 1]


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        shards = generate_dataset(small_config())
        p1 = tmp_path / "a.cfmd"
        p2 = tmp_path / "b.cfmd"
        save_dataset(shards, "nonlinear", p1)
        name, loaded = load_dataset(str(p1))
        assert name == "nonlinear"
        save_dataset(loaded, name, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.cfmd"
        p.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(str(p))

    def test_version_mismatch(self, tmp_path):
        shards = generate_dataset(small_config(n_obs_set=(1,), tuples_per_n_obs=3))
        p = tmp_path / "v.cfmd"
        save_dataset(shards, "nonlinear", p)
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="version"):
            load_dataset(str(p))

    def test_truncated(self, tmp_path):
        shards = generate_dataset(small_config(n_obs_set=(1,), tuples_per_n_obs=3))
        p = tmp_path / "t.cfmd"
        save_dataset(shards, "nonlinear", p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(DatasetFormatError, match="truncated"):
            load_dataset(str(p))

    def test_empty_shard_list(self, tmp_path):
        p = tmp_path / "e.cfmd"
        save_dataset([], "seir", p)
        name, shards = load_dataset(str(p))
        assert name == "seir" and shards == []

    def test_tampered_tuple_detected(self, tmp_path):
        shards = generate_dataset(small_config(n_obs_set=(2,), tuples_per_n_obs=5))
        shards[0].d[0, 0] += 0.5
        p = tmp_path / "x.cfmd"
        save_dataset(shards, "nonlinear", p)
        with pytest.raises(DatasetFormatError, match="re-verify"):
            load_dataset(str(p))

    def test_unknown_task(self, tmp_path):
        p = tmp_path / "u.cfmd"
        save_dataset(generate_dataset(small_config(n_obs_set=(1,), tuples_per_n_obs=2)),
                     "epidemic", p)
        with pytest.raises(DatasetFormatError, match="unknown task 'epidemic'"):
            load_dataset(str(p))

    @pytest.mark.parametrize("name", ["seir", "darcy"])
    def test_task_of_another_name_rejected_before_verifying(self, tmp_path, monkeypatch, name):
        # verifying nonlinear tuples with another task's forward model fails
        # in that model, so the names are compared first
        p = tmp_path / "n.cfmd"
        save_dataset(generate_dataset(small_config(tuples_per_n_obs=3)), "nonlinear", p)
        monkeypatch.setattr(data, "_verify_sample", lambda *args: pytest.fail("verified"))
        with pytest.raises(DatasetTaskError,
                           match=f"dataset is for task 'nonlinear', not '{name}'"):
            load_dataset(str(p), task=get_task(name))

    @pytest.mark.parametrize("header", [{"task": "nonlinear"}, {"shards": []}, ["nonlinear"]])
    def test_header_lacking_a_key(self, tmp_path, header):
        p = tmp_path / "h.cfmd"
        artifact.write(p, MAGIC, FORMAT_VERSION, header, {})
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(str(p))

    @pytest.mark.parametrize("shards, names", [
        ([[1, 0]], ["0.m", "0.e", "0.d"]),                 # an array is missing
        ([[1, 0]], ["0.m", "0.e", "0.d", "0.eta", "1.m"]),  # an array of no shard
        ([[1]], ["0.m", "0.e", "0.d", "0.eta"]),            # a shard without its seed
    ])
    def test_shards_must_match_arrays(self, tmp_path, shards, names):
        p = tmp_path / "s.cfmd"
        artifact.write(p, MAGIC, FORMAT_VERSION, {"task": "nonlinear", "shards": shards},
                       {name: np.zeros((2, 1)) for name in names})
        with pytest.raises(DatasetFormatError, match="shard"):
            load_dataset(str(p))

    def test_rejects_a_repeated_observation_count(self, tmp_path):
        (shard,) = generate_dataset(small_config(n_obs_set=(2,), tuples_per_n_obs=5))
        p = tmp_path / "r.cfmd"
        save_dataset([shard, shard], "nonlinear", p)
        with pytest.raises(DatasetFormatError, match=r"repeat an observation count: \[2, 2\]"):
            load_dataset(str(p))


def make_shards(sizes, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for n_obs, count in sizes.items():
        out.append(DatasetShard(
            n_obs=n_obs,
            m=rng.normal(size=(count, 2)).astype(np.float32),
            e=rng.normal(size=(count, n_obs)).astype(np.float32),
            d=rng.normal(size=(count, n_obs)).astype(np.float32),
            eta=np.zeros((count, n_obs), dtype=np.float32)))
    return out


class TestBatchIterator:
    def test_round_robin(self):
        shards = make_shards({4: 100, 8: 100})
        seq = [b.n_obs for b in batch_iterator(shards, 50)]
        assert seq == [4, 8, 4, 8]

    def test_round_robin_by_position_over_unequal_shards(self):
        shards = make_shards({4: 25, 8: 60, 2: 45})
        seq = [(b.n_obs, len(b.index)) for b in batch_iterator(shards, 20)]
        assert seq == [(4, 20), (8, 20), (2, 20), (4, 5), (8, 20), (2, 20), (8, 20), (2, 5)]

    @pytest.mark.parametrize("batch_size, sizes", [(4, [4, 4, 1, 1]), (256, [5, 5])])
    def test_two_shards_of_one_count(self, batch_size, sizes):
        shards = [generate_shard(NonlinearTask(), 2, 5, seed) for seed in (0, 1)]
        batches = list(batch_iterator(shards, batch_size))
        assert [len(b.index) for b in batches] == sizes
        for k, s in enumerate(shards):         # each shard's rows, once, in its turns
            rows = np.concatenate([b.m for b in batches[k::2]])
            np.testing.assert_array_equal(np.sort(rows, axis=0), np.sort(s.m, axis=0))

    def test_epoch_is_partition(self):
        shards = make_shards({4: 53})
        seen = np.concatenate([b.index for b in batch_iterator(shards, 10)])
        assert sorted(seen.tolist()) == list(range(53))
        sizes = [len(b.index) for b in batch_iterator(shards, 10)]
        assert sizes == [10, 10, 10, 10, 10, 3]    # short final batch emitted

    def test_epochs_reshuffle(self):
        shards = make_shards({4: 40})
        rows0 = np.concatenate([b.m for b in batch_iterator(shards, 40, epoch=0)])
        rows1 = np.concatenate([b.m for b in batch_iterator(shards, 40, epoch=1)])
        assert not np.array_equal(rows0, rows1)
        assert np.array_equal(np.sort(rows0, axis=0), np.sort(rows1, axis=0))

    def test_order_independent_of_batch_size(self):
        shards = make_shards({4: 64})
        big = np.concatenate([b.m for b in batch_iterator(shards, 32)])
        small = np.concatenate([b.m for b in batch_iterator(shards, 16)])
        np.testing.assert_array_equal(big, small)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batch_iterator(make_shards({4: 4}), 0))
