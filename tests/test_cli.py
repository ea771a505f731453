import ast
import importlib
import inspect
import json
import os
import pathlib
import re
from dataclasses import fields

import numpy as np
import pytest

from flowinverse import cfm, cli, data, metrics, tasks
from flowinverse.cli import main
from flowinverse.cfm import SamplerConfig, TrainConfig
from flowinverse.checkpoint import load_checkpoint, save_checkpoint
from flowinverse.config import (KEY_SPECS, TASK_DEFAULTS, ConfigError, config_reference,
                                load_config_file, parse_config_text, resolve)
from flowinverse.data import DataGenConfig
from flowinverse.mcmc import ChainConfig
from flowinverse.metrics import generation_error
from flowinverse.net import NetConfig, VelocityNet
from flowinverse.tasks import DarcyTask
from flowinverse.tasks.darcy import boundary_profiles


class TestConfigParsing:
    def test_flat_lines_with_comments(self):
        text = """
        # epidemic run
        task = seir
        train.lr = 8e-4

        train.batch_size = 128
        """
        raw = parse_config_text(text)
        assert raw == {"task": "seir", "train.lr": "8e-4", "train.batch_size": "128"}
        cfg = resolve(raw)
        assert (cfg["task"], cfg["train.lr"], cfg["train.batch_size"]) == ("seir", 8e-4, 128)

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="train.lr"):
            resolve(parse_config_text("train.learning = 1"))

    def test_bad_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_task_defaults_applied(self):
        cfg = resolve({"task": "seir"})
        assert cfg["net.n_layer"] == 6
        assert cfg["train.lr"] == 8e-4
        cfg = resolve({"task": "darcy"})
        assert cfg["net.n_layer"] == 4
        assert cfg["train.lr"] == 3e-4

    # a default run gets the paper's values, whether a key's default comes
    # from TASK_DEFAULTS, from data.n_obs or from its library field
    @pytest.mark.parametrize("task, pinned", [
        ("nonlinear", {"data.tuples_per_n_obs": 100_000, "data.n_obs": (1,), "net.n_layer": 4,
                       "train.lr": 8e-4, "train.epochs": 16, "eval.n_obs_list": (1,),
                       "instance.n_obs": 1}),
        ("seir", {"data.tuples_per_n_obs": 20_000, "data.n_obs": (4, 5, 6, 7, 8),
                  "net.n_layer": 6, "train.lr": 8e-4, "train.epochs": 30,
                  "eval.n_obs_list": (4, 5, 6, 7, 8), "instance.n_obs": 8}),
        ("darcy", {"data.tuples_per_n_obs": 4_000, "data.n_obs": (4, 5, 6, 7, 8),
                   "net.n_layer": 4, "train.lr": 3e-4, "train.epochs": 40,
                   "eval.n_obs_list": (4, 5, 6, 7, 8), "instance.n_obs": 8}),
    ])
    def test_default_run_is_pinned(self, task, pinned):
        shared = {"seed": 0, "out_dir": None, "paths.dataset": None, "paths.checkpoint": None,
                  "net.n_emb": 32, "net.n_head": 4, "train.batch_size": 256,
                  "train.accum_window": 4, "train.checkpoint_every": 0, "sampler.steps": 50,
                  "sampler.method": "euler", "sampler.ensemble": 10, "chain.n_samples": 10000,
                  "eval.trials": 25, "eval.n_inferences": 10000, "instance.seed": 1}
        cfg = resolve({"task": task})
        assert cfg == {"task": task, **shared, **pinned}
        assert all(type(cfg[k]) is type(v) for k, v in pinned.items())

    def test_counts_derive_from_data_n_obs(self):
        cfg = resolve({"task": "seir", "data.n_obs": "3,5"})
        assert cfg["eval.n_obs_list"] == (3, 5) and cfg["instance.n_obs"] == 5
        cfg = resolve({"task": "seir", "data.n_obs": "3,5", "eval.n_obs_list": "4",
                       "instance.n_obs": "2"})
        assert cfg["eval.n_obs_list"] == (4,) and cfg["instance.n_obs"] == 2

    def test_explicit_value_beats_task_default(self):
        cfg = resolve({"task": "darcy", "train.lr": 1e-3})
        assert cfg["train.lr"] == 1e-3

    def test_int_list_parsing(self):
        cfg = resolve({"task": "seir", "data.n_obs": "4,6,8"})
        assert cfg["data.n_obs"] == (4, 6, 8)

    @pytest.mark.parametrize("key", ["data.n_obs", "eval.n_obs_list"])
    def test_repeated_count_rejected(self, key):
        with pytest.raises(ConfigError, match=re.escape(
                f"bad value for '{key}': repeats an observation count: (2, 2)")):
            resolve({"task": "seir", key: "2 2"})

    @pytest.mark.parametrize("key, value", [("eval.trials", 2.7), ("chain.n_samples", 99.9),
                                            ("seed", 1.5)])
    def test_fractional_integer_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for '{key}': expected an integer"):
            resolve({key: value})
        assert resolve({key: float(round(value))})[key] == round(value)

    def test_fractional_integer_in_manifest_is_a_usage_error(self, workdir, capsys):
        (workdir / "run.json").write_text(json.dumps({"config": {"eval.trials": 2.7}}))
        assert run_cli("mcmc", "--config", "run.json") == 1
        assert "bad value for 'eval.trials'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, problem", [
        ('{"config": {"task": "se', "not valid JSON"),      # truncated
        ("[1, 2]", "expected a JSON object"),
        ('{"config": [1, 2]}', "expected a JSON object"),
    ])
    def test_config_file_that_is_not_a_json_object_is_a_usage_error(self, workdir, capsys,
                                                                    text, problem):
        (workdir / "bad.json").write_text(text)
        assert run_cli("mcmc", "--config", "bad.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad.json: ") and problem in err
        assert len(err.splitlines()) == 1

    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="unknown task 'epidemic'"):
            resolve({"task": "epidemic"})
        with pytest.raises(ValueError, match="unknown task 'epidemic'"):
            tasks.get_task("epidemic")

    def test_reference_covers_all_keys(self):
        ref = config_reference()
        assert "train.lr" in ref and "chain.n_samples" in ref

    def test_reference_shows_every_task_default_on_its_key_line(self):
        lines = {line.split()[0]: line for line in config_reference().splitlines()}
        assert set(lines) == set(KEY_SPECS)
        for task, values in TASK_DEFAULTS.items():
            for key, value in values.items():
                shown = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
                assert f"{task}={shown}" in lines[key].split(), (task, key)
        assert "default=4 seir=6" in lines["net.n_layer"]
        assert "= data.n_obs " in lines["eval.n_obs_list"]
        assert "= max(data.n_obs) " in lines["instance.n_obs"]

    def test_manifest_list_as_comma_string_still_loads(self, tmp_path):
        # manifests written before list keys became JSON arrays
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"config": {"task": "seir", "data.n_obs": "4,5,6,7,8"}}))
        assert resolve(load_config_file(str(path)))["data.n_obs"] == (4, 5, 6, 7, 8)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


class TestMallocSettings:
    class FakeMallopt:
        def __init__(self):
            self.calls = []

        def __call__(self, param, value):
            self.calls.append((param, value))
            return 1

    def test_no_op_where_libc_has_no_mallopt(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_memory() is False

    def test_no_op_where_no_libc_loads(self, monkeypatch):
        def load(name):
            raise OSError("no C library")
        monkeypatch.setattr(cli.ctypes, "CDLL", load)
        assert cli._keep_freed_memory() is False

    def test_sets_each_threshold_once(self, monkeypatch):
        libc = type("Libc", (), {"mallopt": self.FakeMallopt()})()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        assert cli._keep_freed_memory() is True
        assert libc.mallopt.calls == list(cli._MALLOC_SETTINGS)
        assert libc.mallopt.argtypes == (cli.ctypes.c_int, cli.ctypes.c_int)

    def test_main_sets_them_first(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append("mallopt"))
        assert run_cli() == 1
        assert calls == ["mallopt"]


class TestCliBasics:
    def test_no_arguments_shows_help(self, capsys):
        assert run_cli() == 1
        assert "generate-data" in capsys.readouterr().out

    def test_unknown_subcommand(self):
        assert run_cli("explode") == 1

    def test_unknown_set_key(self, workdir, capsys):
        rc = run_cli("generate-data", "--set", "nope=1")
        assert rc == 1
        assert "valid keys" in capsys.readouterr().err

    def test_missing_checkpoint_is_runtime_error(self, workdir, capsys):
        rc = run_cli("sample", "--set", "paths.checkpoint=missing.cfmt")
        assert rc == 2
        assert "checkpoint not found" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [("--set", "out_dir=afile"),     # a file, not a directory
                                      ("--config", "missing.cfg")])
    def test_unusable_path_is_one_error_line(self, workdir, capsys, args):
        (workdir / "afile").write_text("")
        assert run_cli("mcmc", *args, "--set", "chain.n_samples=10") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and args[1].split("=")[-1] in err
        assert len(err.splitlines()) == 1

    def test_set_without_equals_is_a_usage_error(self, workdir, capsys):
        assert run_cli("mcmc", "--set", "chain.n_samples") == 1
        assert "--set expects key=value, got 'chain.n_samples'" in capsys.readouterr().err

    def test_train_without_a_dataset_file_is_one_error_line(self, workdir, capsys):
        # with no paths.dataset, train reads generate-data's default output
        assert run_cli("train", "--set", "out_dir=runs") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and os.path.join("runs", "nonlinear.cfmd") in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("task", ["seir", "darcy"])
    def test_dataset_for_another_task_is_a_usage_error(self, workdir, capsys, task):
        assert run_cli("generate-data", "--set", "data.tuples_per_n_obs=8",
                       "--set", "paths.dataset=n.cfmd") == 0
        capsys.readouterr()
        assert run_cli("train", "--set", f"task={task}", "--set", "paths.dataset=n.cfmd") == 1
        assert capsys.readouterr().err == (
            f"error: n.cfmd: dataset is for task 'nonlinear', not '{task}'\n")
        assert not list(workdir.rglob("*.cfmt*"))

    def test_checkpoint_for_another_task_is_a_usage_error(self, workdir, capsys):
        cfg = NetConfig(n_emb=8, n_head=2, n_layer=1, dim_m=6, obs_token_dim=3)
        save_checkpoint("s.cfmt", "seir", cfg, VelocityNet(tasks.SeirTask(), cfg).params)
        assert run_cli("sample", "--set", "paths.checkpoint=s.cfmt") == 1
        assert ("checkpoint is for task 'seir', config says 'nonlinear'"
                in capsys.readouterr().err)

    def test_repeated_observation_count_is_a_usage_error(self, workdir, capsys):
        rc = run_cli("generate-data", "--set", "data.n_obs=2,2",
                     "--set", "data.tuples_per_n_obs=4")
        assert rc == 1
        assert "repeats an observation count" in capsys.readouterr().err
        assert not (workdir / "nonlinear.cfmd").exists()

    def test_flat_text_config_file(self, workdir):
        (workdir / "run.cfg").write_text(
            "# a toy dataset\n"
            "\n"
            "task = nonlinear\n"
            "   # indented comment\n"
            "data.tuples_per_n_obs = 8\n"
            "data.n_obs = 1, 3\n"
            "paths.dataset = c.cfmd\n")
        assert run_cli("generate-data", "--config", "run.cfg", "--seed", "2") == 0
        manifest = json.load(open("manifest_generate_data.json"))
        assert manifest["config"]["data.tuples_per_n_obs"] == 8
        assert manifest["config"]["data.n_obs"] == [1, 3]
        assert manifest["config"]["seed"] == 2
        assert set(manifest["input_hashes"]) == {"run.cfg"}
        _, shards = data.load_dataset("c.cfmd")
        assert [(s.n_obs, len(s)) for s in shards] == [(1, 8), (3, 8)]


    def test_zero_epochs_rejected_before_training(self, workdir, capsys):
        rc = run_cli("train", "--set", "paths.dataset=missing.cfmd",
                     "--set", "train.epochs=0")
        assert rc == 1
        assert "error: epochs must be >= 1" in capsys.readouterr().err
        assert not list(workdir.rglob("*.cfmt"))

    def test_negative_checkpoint_every_rejected_before_training(self, workdir, capsys):
        rc = run_cli("train", "--set", "paths.dataset=missing.cfmd",
                     "--set", "train.checkpoint_every=-1")
        assert rc == 1
        assert "error: checkpoint_every must be >= 0, got -1" in capsys.readouterr().err
        assert not list(workdir.rglob("*.cfmt*"))

    @pytest.mark.parametrize("subcommand, argv, key, expected", [
        ("generate-data", ["--seed", "-1"], "seed", "an integer >= 0"),
        ("mcmc", ["--set", "instance.seed=-3"], "instance.seed", "an integer >= 0"),
    ])
    def test_value_out_of_range_is_a_usage_error(self, workdir, capsys, subcommand, argv,
                                                 key, expected):
        rc = run_cli(subcommand, *argv, "--set", "chain.n_samples=5")
        assert rc == 1
        assert f"error: bad value for '{key}': expected {expected}" in capsys.readouterr().err
        assert not list(workdir.iterdir())

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_learning_rate_that_is_not_finite_is_rejected(self, workdir, capsys, lr):
        assert run_cli("generate-data", "--set", "data.tuples_per_n_obs=32",
                       "--set", "paths.dataset=toy.cfmd") == 0
        rc = run_cli("train", "--set", "paths.dataset=toy.cfmd", "--set", f"train.lr={lr}")
        assert rc == 1
        assert "error: learning rate must be finite and >= 0" in capsys.readouterr().err
        assert not list(workdir.rglob("*.cfmt*"))

    def test_net_without_blocks_is_rejected_before_training(self, workdir, capsys):
        assert run_cli("generate-data", "--set", "data.tuples_per_n_obs=32",
                       "--set", "paths.dataset=toy.cfmd") == 0
        rc = run_cli("train", "--set", "paths.dataset=toy.cfmd", "--set", "net.n_layer=0")
        assert rc == 1
        assert "error: n_emb, n_head and n_layer must be >= 1" in capsys.readouterr().err
        assert not list(workdir.rglob("*.cfmt*"))

    def test_zero_tuples_is_a_usage_error(self, workdir, capsys):
        rc = run_cli("generate-data", "--set", "data.tuples_per_n_obs=0")
        assert rc == 1
        assert "error: tuples_per_n_obs must be positive" in capsys.readouterr().err
        assert not list(workdir.rglob("*.cfmd"))

    @pytest.mark.parametrize("key, value", [
        ("eval.trials", "0"), ("eval.n_inferences", "0"), ("instance.n_obs", "0"),
        ("data.n_obs", "4,0"), ("data.n_obs", ""), ("eval.n_obs_list", "-1"),
    ])
    def test_count_below_one_is_a_usage_error(self, workdir, capsys, key, value):
        rc = run_cli("mcmc", "--set", f"{key}={value}", "--set", "chain.n_samples=5")
        assert rc == 1
        assert f"error: bad value for '{key}': expected " in capsys.readouterr().err
        assert not list(workdir.iterdir())

    def test_manifest_with_chain_tune_is_rejected(self, workdir, capsys):
        (workdir / "old.json").write_text(json.dumps({"config": {"chain.tune": True}}))
        assert run_cli("mcmc", "--config", "old.json") == 1
        assert "unknown config key 'chain.tune'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("net.arch", "transformer"),
                                            ("net.mlp_hidden", 256), ("net.mlp_n_obs", 4),
                                            ("seir.shifted_ramp", False),
                                            ("darcy.sigma_w", 0.2),
                                            ("net.rope_base", 10000.0),
                                            ("chain.sigma_obs", 1.0),
                                            ("net.init_seed", 0),
                                            ("paths.n_paths", 32),
                                            ("data.sigma", 0.2),
                                            ("chain.burn_in", 0.5),
                                            ("chain.proposal_scale", None)])
    def test_manifest_with_mlp_net_key_is_rejected(self, workdir, capsys, key, value):
        # the keys of deleted variants and fixed constants are gone: the
        # fixed-size MLP velocity net, the printed SEIR ramp, the Darcy bump
        # width, the rotary base, the MH likelihood noise (always the
        # task's), the net's init stream (the master seed's), the path count
        # of the deleted straightness probe, the noise level (one per task),
        # the burn-in fraction (mcmc.BURN_IN) and the fixed proposal scale
        # (every chain is tuned)
        (workdir / "old.json").write_text(json.dumps({"config": {key: value}}))
        assert run_cli("mcmc", "--config", "old.json") == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_removed_key_on_the_command_line_is_unknown(self, workdir, capsys):
        assert run_cli("generate-data", "--set", "data.sigma=0.2") == 1
        assert "error: unknown config key 'data.sigma'" in capsys.readouterr().err
        assert not list(workdir.iterdir())

    def test_dataset_without_tuples_is_a_usage_error(self, workdir, capsys):
        data.save_dataset([], "nonlinear", "empty.cfmd")
        assert run_cli("train", "--set", "paths.dataset=empty.cfmd") == 1
        assert capsys.readouterr().err == "error: empty.cfmd: the dataset holds no tuples\n"
        assert not list(workdir.rglob("*.cfmt*"))

    def test_value_error_during_the_run_is_a_runtime_failure(self, workdir, capsys,
                                                             monkeypatch):
        def fail(config):
            raise ValueError("forward model diverged")

        monkeypatch.setattr(cli, "generate_dataset", fail)
        assert run_cli("generate-data") == 2
        assert "runtime failure: ValueError: forward model diverged" in capsys.readouterr().err

    def test_os_error_during_the_run_is_one_error_line(self, workdir, capsys, monkeypatch):
        def fail(config):
            raise PermissionError("cannot write nonlinear.cfmd")

        monkeypatch.setattr(cli, "generate_dataset", fail)
        assert run_cli("generate-data") == 2
        assert capsys.readouterr().err == "error: cannot write nonlinear.cfmd\n"


class TestTaskFromConfig:
    @pytest.mark.parametrize("name", ["nonlinear", "seir", "darcy"])
    def test_sigma_is_the_noise_level_of_every_task(self, name, kl_basis):
        # a subclass with another level: generation and sigma_for both read it
        task = type("NoisierTask", (tasks.TASKS[name],), {"sigma": 0.03})()
        assert task.sigma == 0.03
        rng = np.random.default_rng(1)
        m = task.sample_params(rng, 2)
        e = np.stack([task.sample_design(rng, 3) for _ in range(2)])
        _, scale = task.simulate_batch(m, e, 3)
        np.testing.assert_array_equal(scale, [task.sigma_for(row) for row in e])

    def test_darcy_sigma_is_relative_to_the_boundary_maximum(self):
        task = DarcyTask()
        e_row = np.array([0.2, 0.9, 0.5, 0.5])
        f, g = boundary_profiles(0.2, 0.9)
        assert task.sigma_for(e_row) == 0.01 * max(np.abs(f).max(), np.abs(g).max())


class TestPipeline:
    def test_generate_train_sample_evaluate(self, workdir, capsys):
        rc = run_cli("generate-data",
                     "--set", "data.tuples_per_n_obs=64",
                     "--set", "paths.dataset=toy.cfmd", "--seed", "3")
        assert rc == 0
        assert os.path.exists("toy.cfmd")
        manifest = json.load(open("manifest_generate_data.json"))
        assert manifest["seed"] == 3
        assert "toy.cfmd" in manifest["outputs"]

        rc = run_cli("train",
                     "--set", "paths.dataset=toy.cfmd",
                     "--set", "paths.checkpoint=toy.cfmt",
                     "--set", "train.epochs=1",
                     "--set", "train.batch_size=32",
                     "--set", "net.n_emb=8", "--set", "net.n_head=2",
                     "--set", "net.n_layer=1", "--seed", "3")
        assert rc == 0
        assert os.path.exists("toy.cfmt")
        assert os.path.exists("loss_history.csv")

        rc = run_cli("sample", "--set", "paths.checkpoint=toy.cfmt",
                     "--set", "sampler.ensemble=4", "--set", "sampler.steps=6",
                     "--seed", "3")
        assert rc == 0
        rows = open("ensemble.csv").read().strip().splitlines()
        assert rows[0] == "m0" and len(rows) == 5
        assert all(repr(float(r)) == r for r in rows[1:])

        rc = run_cli("evaluate", "--set", "paths.checkpoint=toy.cfmt",
                     "--set", "eval.trials=2", "--set", "eval.n_inferences=10",
                     "--set", "sampler.steps=6", "--seed", "3")
        assert rc == 0
        assert os.path.exists("sweep_nonlinear.csv")
        assert os.path.exists("generation_error.json")

        assert run_cli("mcmc", "--set", "chain.n_samples=40", "--seed", "3") == 0
        # every subcommand's manifest times its phases
        for name in cli._BODIES:
            phases = json.load(open(f"manifest_{name.replace('-', '_')}.json"))["phases_s"]
            assert phases and all(type(v) is float and v >= 0.0 for v in phases.values()), name
        assert set(json.load(open("manifest_evaluate.json"))["phases_s"]) == {
            "sweep", "generation_error"}

    def test_pipeline_without_paths_keys(self, workdir):
        # each reader defaults to the path its writer used: <out_dir>/<task>.*
        net = ["--set", "net.n_emb=8", "--set", "net.n_head=2", "--set", "net.n_layer=1"]
        shared = ["--set", "out_dir=runs", "--set", "sampler.steps=2", "--seed", "3"]
        assert run_cli("generate-data", "--set", "data.tuples_per_n_obs=16", *shared) == 0
        assert run_cli("train", "--set", "train.epochs=1", *net, *shared) == 0
        assert run_cli("sample", "--set", "sampler.ensemble=3", *shared) == 0
        assert run_cli("evaluate", "--set", "eval.trials=1", "--set", "eval.n_inferences=2",
                       *shared) == 0
        train = json.load(open("runs/manifest_train.json"))
        assert train["outputs"][0] == os.path.join("runs", "nonlinear.cfmt")
        assert list(train["input_hashes"]) == [os.path.join("runs", "nonlinear.cfmd")]
        for name in ("sample", "evaluate"):
            manifest = json.load(open(f"runs/manifest_{name}.json"))
            assert list(manifest["input_hashes"]) == [os.path.join("runs", "nonlinear.cfmt")]
            assert manifest["config"]["paths.checkpoint"] is None

    def test_sample_and_mcmc_time_one_instance(self, workdir, capsys):
        # the flow-versus-MH speed-up is chain over inference on one instance
        cfg = resolve({"net.n_emb": 8, "net.n_head": 2, "net.n_layer": 1})
        task = tasks.get_task(cfg["task"])
        net = VelocityNet(task, cli._net_config(cfg, task), seed=0)
        save_checkpoint("n.cfmt", "nonlinear", net.config, net.params)
        shared = ["--set", "instance.n_obs=3", "--set", "instance.seed=7", "--seed", "2"]
        assert run_cli("sample", "--set", "paths.checkpoint=n.cfmt", *shared) == 0
        assert run_cli("mcmc", "--set", "chain.n_samples=200", *shared) == 0
        sample = json.load(open("manifest_sample.json"))
        mcmc = json.load(open("manifest_mcmc.json"))
        assert sample["phases_s"]["inference"] > 0 and mcmc["phases_s"]["chain"] > 0
        for key in ["seed"] + [k for k in KEY_SPECS if k.startswith("instance.")]:
            assert sample["config"][key] == mcmc["config"][key], key
        printed = re.search(r" in (\S+)s$", capsys.readouterr().out.splitlines()[-2])
        assert float(printed.group(1)) == float(f"{mcmc['phases_s']['chain']:.3g}")

    def test_evaluate_generation_error_uses_the_configured_sampler(self, workdir):
        cfg = resolve({"net.n_emb": 8, "net.n_head": 2, "net.n_layer": 1})
        task = tasks.get_task(cfg["task"])
        net = VelocityNet(task, cli._net_config(cfg, task), seed=0)
        save_checkpoint("n.cfmt", "nonlinear", net.config, net.params)
        rc = run_cli("evaluate", "--set", "paths.checkpoint=n.cfmt", "--set", "eval.trials=1",
                     "--set", "eval.n_inferences=4", "--set", "sampler.steps=2",
                     "--set", "sampler.ensemble=3", "--set", "sampler.method=midpoint")
        assert rc == 0
        pooled = json.load(open("generation_error.json"))["pooled"]
        sampler = SamplerConfig(steps=2, method="midpoint", ensemble=3)
        assert pooled == generation_error(net, task, 4, 1, sampler=sampler)[0]
        euler = SamplerConfig(steps=2, method="euler", ensemble=3)
        assert pooled != generation_error(net, task, 4, 1, sampler=euler)[0]

    def test_periodic_checkpoints(self, workdir):
        # 64 tuples in batches of 32 over 2 epochs are 4 batches, so windows
        # of 2 give 2 optimizer steps and no trailing partial window
        run_cli("generate-data", "--set", "data.tuples_per_n_obs=64",
                "--set", "paths.dataset=k.cfmd")
        rc = run_cli("train", "--set", "paths.dataset=k.cfmd",
                     "--set", "paths.checkpoint=k.cfmt", "--set", "train.epochs=2",
                     "--set", "train.batch_size=32", "--set", "train.accum_window=2",
                     "--set", "train.checkpoint_every=1", "--set", "net.n_emb=8",
                     "--set", "net.n_head=2", "--set", "net.n_layer=1", "--seed", "5")
        assert rc == 0
        assert sorted(p.name for p in workdir.glob("k.cfmt*")) == [
            "k.cfmt", "k.cfmt.step1", "k.cfmt.step2"]
        steps = {k: load_checkpoint(f"k.cfmt.step{k}") for k in (1, 2)}
        for k, ck in steps.items():
            assert ck.step == k and ck.rng_state == {"seed": 5, "epoch": k - 1}
        final = load_checkpoint("k.cfmt")
        assert final.step == 2
        assert list(steps[2].params) == list(final.params)
        for name, p in final.params.items():
            np.testing.assert_array_equal(steps[2].params[name].data, p.data)
        assert any(not np.array_equal(steps[1].params[n].data, p.data)
                   for n, p in final.params.items())

    def test_train_lr_override_recorded(self, workdir):
        run_cli("generate-data", "--set", "data.tuples_per_n_obs=32",
                "--set", "paths.dataset=t.cfmd")
        rc = run_cli("train", "--set", "paths.dataset=t.cfmd",
                     "--set", "paths.checkpoint=t.cfmt",
                     "--set", "train.epochs=1", "--set", "net.n_emb=8",
                     "--set", "net.n_head=2", "--set", "net.n_layer=1",
                     "--set", "train.lr=8e-4")
        assert rc == 0
        manifest = json.load(open("manifest_train.json"))
        assert manifest["config"]["train.lr"] == 8e-4

    def test_rerun_from_manifest_bitwise(self, workdir):
        run_cli("generate-data", "--set", "data.tuples_per_n_obs=48",
                "--set", "paths.dataset=a.cfmd", "--seed", "11")
        first = open("a.cfmd", "rb").read()
        assert json.load(open("manifest_generate_data.json"))["config"]["data.n_obs"] == [1]
        os.remove("a.cfmd")
        rc = run_cli("generate-data", "--config", "manifest_generate_data.json")
        assert rc == 0
        assert open("a.cfmd", "rb").read() == first

    @staticmethod
    def _rerun_config(*argv):
        return cli._build_config(cli._parser().parse_args(
            ["mcmc", "--config", "manifest_mcmc.json", *argv]))

    def test_rerun_with_another_task_takes_its_defaults(self, workdir):
        assert run_cli("mcmc", "--set", "chain.n_samples=40", "--set", "train.epochs=3") == 0
        assert self._rerun_config() == resolve({"chain.n_samples": 40, "train.epochs": 3})
        # nonlinear's data.n_obs, n_layer and tuple count do not carry over;
        # a value set away from its default does
        assert self._rerun_config("--set", "task=seir") == resolve(
            {"task": "seir", "chain.n_samples": 40, "train.epochs": 3})

    def test_rerun_with_other_counts_derives_from_them(self, workdir):
        assert run_cli("mcmc", "--set", "chain.n_samples=40") == 0
        cfg = self._rerun_config("--set", "data.n_obs=3,5")
        assert (cfg["eval.n_obs_list"], cfg["instance.n_obs"]) == ((3, 5), 5)
        # a derived key set away from its derivation keeps its value
        assert run_cli("mcmc", "--set", "chain.n_samples=40", "--set", "instance.n_obs=2") == 0
        cfg = self._rerun_config("--set", "data.n_obs=3,5")
        assert (cfg["eval.n_obs_list"], cfg["instance.n_obs"]) == ((3, 5), 2)

    def test_rerun_from_manifest_leaves_unset_paths_unset(self, workdir):
        run_cli("generate-data", "--set", "data.tuples_per_n_obs=8",
                "--set", "paths.dataset=a.cfmd")
        first = json.load(open("manifest_generate_data.json"))
        assert first["config"]["out_dir"] is None
        assert run_cli("generate-data", "--config", "manifest_generate_data.json") == 0
        assert json.load(open("manifest_generate_data.json"))["config"] == first["config"]
        assert not (workdir / "None").exists()

    def test_mcmc_subcommand(self, workdir):
        rc = run_cli("mcmc", "--set", "chain.n_samples=40",
                     "--set", "instance.n_obs=2", "--seed", "4")
        assert rc == 0
        lines = open("chain.csv").read().strip().splitlines()
        assert lines[0] == "step,m0,log_posterior,accepted"
        assert len(lines) == 41
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(40))
        for r in rows:
            assert r[1] == f"{float(r[1]):.8g}" and r[2] == f"{float(r[2]):.8g}"
            assert r[3] in ("0", "1")
        result = json.load(open("mcmc_result.json"))
        assert 0.0 <= result["acceptance_rate"] <= 1.0
        assert result["acceptance_rate"] == sum(r[3] == "1" for r in rows) / 40

    @pytest.mark.parametrize("seed, printed", [
        (2, ["warning: acceptance 0.125 outside the tuning band [0.2, 0.4]"]), (1, [])],
        ids=["warns", "quiet"])
    def test_mcmc_prints_chain_warnings(self, workdir, capsys, seed, printed):
        # each ChainResult warning goes to stderr as well as into the JSON;
        # a warning does not change the exit code
        rc = run_cli("mcmc", "--set", "chain.n_samples=40",
                     "--set", "instance.n_obs=2", "--seed", str(seed))
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == printed
        assert ["warning: " + w for w in json.load(open("mcmc_result.json"))["warnings"]] == printed


class TestWriteCsv:
    def test_repr_cells_round_trip_exactly(self, tmp_path):
        values = [[4, 100 * 0.0123456789, 100 * 0.001987654321], [8, 4.56, 0.07]]
        path = cli._write_csv(tmp_path / "sweep.csv", ["N", "mean_error_pct", "std_error_pct"],
                              [[n, repr(a), repr(b)] for n, a, b in values])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "N,mean_error_pct,std_error_pct"
        assert [[int(r[0]), float(r[1]), float(r[2])]
                for r in (line.split(",") for line in lines[1:])] == values

    def test_chain_table(self, tmp_path):
        path = cli._write_csv(tmp_path / "mcmc.csv", ["N", "n_sample", "error_pct"],
                              [[8, 10000, repr(100.0 * 0.0144)]])
        assert path.read_bytes() == b"N,n_sample,error_pct\r\n8,10000,1.44\r\n"

    def test_empty_table_is_header_only(self, tmp_path):
        path = cli._write_csv(tmp_path / "empty.csv", ["N", "mean_error_pct", "std_error_pct"], [])
        assert path.read_text().strip() == "N,mean_error_pct,std_error_pct"

    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        def rows():
            yield [1, "0.5"]
            raise RuntimeError("cell formatting failed")

        path = cli._write_csv(tmp_path / "sweep.csv", ["N", "err"], [[4, "0.25"]])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="cell formatting failed"):
            cli._write_csv(path, ["N", "err"], rows())
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["sweep.csv"]


def test_every_config_key_is_read():
    # a key nothing reads is dead surface, and only cli reads the config
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(set(KEY_SPECS) - literals) == []


def _modules_importing(name):
    src = pathlib.Path(cli.__file__).parent
    importers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # `from .m import x`, `from flowinverse.m import x` and `from . import m`
                names = [(node.module or "").rpartition(".")[2], *(a.name for a in node.names)]
            else:
                continue
            if name in names:
                importers.add(path.relative_to(src).as_posix())
    return importers


def test_no_task_module_picks_the_net_input_dtype():
    # the net casts its inputs to its parameters' dtype; a task hands over what it computes
    src = pathlib.Path(tasks.__file__).parent
    assert [p.name for p in src.glob("*.py") if "float32" in p.read_text()] == []


# the library config that the keys with each prefix feed; the suffix names the field
LIBRARY_CONFIGS = {"net": NetConfig, "train": TrainConfig, "sampler": SamplerConfig,
                   "chain": ChainConfig}


@pytest.mark.parametrize("task", sorted(TASK_DEFAULTS))
def test_library_keys_default_to_their_field(task):
    # a CLI run and a library run start from the same values
    cfg = resolve({"task": task})
    for key in KEY_SPECS:
        prefix, _, name = key.partition(".")
        if prefix in LIBRARY_CONFIGS and key not in TASK_DEFAULTS[task]:
            default = {f.name: f.default for f in fields(LIBRARY_CONFIGS[prefix])}[name]
            assert cfg[key] == default and type(cfg[key]) is type(default), key


def test_every_task_takes_no_keyword():
    # a task is its name and fixed constants, its noise level among them
    for cls in tasks.TASKS.values():
        assert list(inspect.signature(cls).parameters) == [], cls
    assert {name: cls.sigma for name, cls in tasks.TASKS.items()} == {
        "nonlinear": 0.01, "seir": 0.5, "darcy": 0.01}
    assert list(inspect.signature(tasks.get_task).parameters) == ["name"]
    assert set(TASK_DEFAULTS) == set(tasks.TASKS)


def test_only_cli_imports_csv():
    assert _modules_importing("csv") == {"cli.py"}


def test_only_cli_imports_config():
    assert _modules_importing("config") == {"cli.py"}


# The spans the benchmark's per-layer metrics and scopes read. Its tracer
# wraps the functions it finds in the vars() of a module or of a class
# defined there, so a span that is renamed, inlined or re-exported from
# another module would silently read 0.
BENCHMARK_SPANS = (
    "net.VelocityNet.forward", "net.VelocityNet.velocity",
    "cfm.cfm_loss", "cfm.sample_posterior",
    "tensor.backward", "tensor.adam_step",
    "data.batch_iterator", "data.generate_shard", "data.save_dataset", "data.load_dataset",
    "tasks.seir.SeirTask.prior_sample", "tasks.seir.SeirTask.simulate_batch",
    "tasks.seir.SeirTask.de_solution", "tasks.seir.SeirTask.forward_observed",
    "tasks.darcy.darcy_solve", "tasks.darcy.kl_expand", "tasks.darcy.DarcyTask.forward_observed",
    "mcmc.log_posterior", "mcmc.run_chain", "metrics.relative_error_de",
)
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _untraceable(spans):
    """The spans that are not a function defined in the vars() of their
    flowinverse module, or of a class defined there."""
    missing = []
    for span in spans:
        *path, name = span.split(".")
        cls = path.pop() if path[-1][0].isupper() else None
        module = importlib.import_module(".".join(["flowinverse", *path]))
        owner = module if cls is None else vars(module).get(cls)
        fn = getattr(owner, "__dict__", {}).get(name)
        if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            missing.append(span)
    return missing


def _perfbench_spans():
    """The span names the benchmark's tracer and layer_metrics read, from
    their source: the tracer's SCOPES and SIZES keys, and every dotted string
    in layer_metrics that is not a metric's name (a dict key), an f-string or
    a prefix."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    spans = set()
    for node in tracer.body:
        name = getattr(node.targets[0], "id", "") if isinstance(node, ast.Assign) else ""
        if name in ("SCOPES", "SIZES"):
            items = node.value.keys if isinstance(node.value, ast.Dict) else node.value.elts
            spans.update(item.value for item in items)
    worker = ast.parse((PERFBENCH / "worker.py").read_text())
    (fn,) = [n for n in worker.body
             if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics"]
    skip = {id(n) for node in ast.walk(fn) if isinstance(node, (ast.Dict, ast.JoinedStr))
            for n in (node.keys if isinstance(node, ast.Dict) else node.values)}
    spans.update(node.value for node in ast.walk(fn)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and id(node) not in skip and re.fullmatch(r"\w+(\.\w+)+", node.value))
    return spans


def test_every_name_the_benchmark_uses_exists():
    # what the benchmark imports or calls besides its spans: a removal that
    # would stop a benchmark run fails here first
    from flowinverse.tasks import darcy, seir

    assert isinstance(darcy.CONST, darcy.DarcyConstants)
    assert "cache_dir" in inspect.signature(darcy.kl_basis_build).parameters
    assert seir.TRUE_RATES.shape == (6,)
    assert tasks.SeirTask is seir.SeirTask and tasks.DarcyTask is darcy.DarcyTask
    assert inspect.isfunction(tasks.SeirTask.sample_params)
    assert isinstance(vars(tasks.DarcyTask)["basis"], property)
    assert metrics.sample_posterior is cfm.sample_posterior
    assert cfm.batch_iterator is data.batch_iterator
    cfg = NetConfig(dim_m=tasks.SeirTask.dim_m, obs_token_dim=tasks.SeirTask.obs_token_dim)
    assert (cfg.dim_m, cfg.obs_token_dim) == (6, 3)
    # each config object built with exactly the keywords the benchmark passes
    ChainConfig(n_samples=10, seed=1)
    DataGenConfig(task="seir", tuples_per_n_obs=8, n_obs_set=(4, 5), seed=1)
    TrainConfig(epochs=2, batch_size=256, accum_window=4, seed=1, checkpoint_every=1)
    SamplerConfig(seed=1, steps=50, method="euler", ensemble=10)
    # each task built as the benchmark builds it: no argument, and a counting
    # subclass whose __init__ calls super().__init__()
    tasks.SeirTask()
    tasks.DarcyTask()

    class CountingSeirTask(tasks.SeirTask):
        def __init__(self):
            super().__init__()
            self.calls = 0

    assert CountingSeirTask().calls == 0
    # every span name the tracer and layer_metrics read: a rename fails here,
    # where a traced metric would silently read 0
    spans = _perfbench_spans()
    assert {"net.VelocityNet.velocity", "net.VelocityNet.forward", "cfm.sample_posterior",
            "cfm.cfm_loss", "data.load_dataset", "mcmc.run_chain", "tensor.backward",
            "tensor.adam_step", "tasks.seir.SeirTask.prior_sample",
            "tasks.seir.SeirTask.simulate_batch"} <= spans
    assert _untraceable(sorted(spans)) == []


def test_every_span_the_benchmark_reads_is_traceable():
    assert _untraceable(BENCHMARK_SPANS) == []


def test_only_artifact_imports_struct():
    # one binary layout: datasets and checkpoints both go through artifact
    assert _modules_importing("struct") == {"artifact.py"}


def test_only_cli_imports_time():
    # one clock: the manifest's phases_s
    assert _modules_importing("time") == {"cli.py"}


def test_cli_docstring_lists_every_subcommand():
    listed = re.findall(r"^  ([a-z-]+)  ", cli.__doc__, re.MULTILINE)
    assert listed == list(cli._BODIES)
