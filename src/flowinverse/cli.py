"""Command-line entry points for the full experiment pipeline.

Each run reads a flat key=value config file (optionally a previous run's
manifest), applies --set overrides, executes, and writes a manifest with the
resolved config, master seed, and content hashes of every input file, which
is sufficient to reproduce the run bit for bit (rerun with
``--config <manifest.json>``; its values equal to their defaults count as
unset, so ``--set task=...`` or ``data.n_obs=...`` takes the new defaults).

This module is the only one that reads the config and the only one that
writes run outputs; the library calls take plain values and return data.
Each subcommand writes, into the output directory (the ``out_dir`` key, else
``.``) unless a ``paths.*`` key names the file, its ``manifest_<subcommand>.json``
and:

  generate-data  <task>.cfmd (dataset)
  train          <task>.cfmt (checkpoint; .step<k> ones too), loss_history.csv
  sample         ensemble.csv, instance.json
  evaluate       sweep_<task>.csv; on nonlinear also generation_error.json
  mcmc           chain.csv, mcmc_<task>.csv, mcmc_result.json

``train`` reads the dataset, and ``sample`` and ``evaluate`` the checkpoint,
from those paths; a missing file exits 2 with ``error: ...`` and its path.

Each manifest's ``phases_s`` holds the wall seconds of the run's main calls:
generate, train, inference (sample), sweep and generation_error (evaluate)
and chain (mcmc). ``sample`` and ``mcmc`` on one config draw one instance, so
phases_s.chain of manifest_mcmc.json over phases_s.inference of
manifest_sample.json is the flow-versus-MH speed-up on that instance.

Exit codes: 0 success, 1 usage error, 2 runtime failure. A usage error or an
``OSError`` (such as an unwritable output) prints ``error: ...``, any other
failure ``runtime failure: <type>: ...``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .artifact import atomic_open
from .checkpoint import load_checkpoint, save_checkpoint
from .cfm import SamplerConfig, TrainConfig, sample_posterior, train
from .config import ConfigError, config_reference, load_config_file, resolve
from .data import (DataGenConfig, DatasetTaskError, draw_tuples, generate_dataset,
                   load_dataset, save_dataset)
from .mcmc import ChainConfig, run_chain
from .metrics import evaluate_sweep, generation_error, relative_error_de
from .net import NetConfig, VelocityNet
from .tasks import get_task


# glibc mallopt(3) settings that main makes, as (parameter, value)
_MALLOC_SETTINGS = (
    (-3, 32 << 20),     # M_MMAP_THRESHOLD: blocks up to 32 MiB (glibc's ceiling) come from the heap
    (-1, 256 << 20),    # M_TRIM_THRESHOLD: up to 256 MiB of freed memory stays in it
    (-2, 64 << 20),     # M_TOP_PAD: and it grows 64 MiB at a time
)


def _keep_freed_memory() -> bool:
    """Set ``_MALLOC_SETTINGS`` through glibc's ``mallopt``, so that a training
    step reuses the pages the step before it freed instead of faulting fresh
    ones in: without it a fresh process takes thousands of minor faults per
    paper-config SEIR step. Does nothing, and returns False, where libc has
    no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOC_SETTINGS:
        mallopt(param, value)
    return True


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _build_config(args) -> dict:
    explicit = {}
    if args.config:
        explicit.update(load_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, _, raw = item.partition("=")
        explicit[key.strip()] = raw.strip()
    if args.seed is not None:
        explicit["seed"] = args.seed
    return resolve(explicit)


def _make(cls, **kwargs):
    """Build a config object; a value it rejects is a usage error."""
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _net_config(cfg: dict, task) -> NetConfig:
    return _make(
        NetConfig,
        n_emb=cfg["net.n_emb"], n_head=cfg["net.n_head"], n_layer=cfg["net.n_layer"],
        dim_m=task.dim_m, obs_token_dim=task.obs_token_dim,
        design_token_dim=task.design_token_dim)


def _sampler_config(cfg: dict) -> SamplerConfig:
    return _make(SamplerConfig, steps=cfg["sampler.steps"], method=cfg["sampler.method"],
                 ensemble=cfg["sampler.ensemble"], seed=cfg["seed"])


def _path(cfg: dict, out_dir, key):
    """``paths.dataset`` or ``paths.checkpoint``, else ``<out_dir>/<task>.cfmd``
    or ``.cfmt``: where one subcommand writes the file and the next reads it."""
    ext = {"paths.dataset": "cfmd", "paths.checkpoint": "cfmt"}[key]
    return cfg[key] or os.path.join(out_dir, f"{cfg['task']}.{ext}")


def _load_net(cfg: dict, out_dir):
    path = _path(cfg, out_dir, "paths.checkpoint")
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path}")
    ck = load_checkpoint(path)
    if ck.task_name != cfg["task"]:
        raise ConfigError(f"checkpoint is for task '{ck.task_name}', config says '{cfg['task']}'")
    return VelocityNet(get_task(cfg["task"]), ck.net_config, ck.params), path


def _draw_instance(cfg: dict, task):
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg["seed"], 0x696e7374, cfg["instance.seed"])))
    m, e, d, _ = draw_tuples(task, cfg["instance.n_obs"], [rng])
    return m[0], e[0], d[0]


def _write_csv(path, header, rows):
    """One header row, then ``rows``; each caller formats its own cells."""
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return path


def _chain_table(res):
    """Header and rows of chain.csv: every state of a ``ChainResult``."""
    header = ["step"] + [f"m{j}" for j in range(res.chain.shape[1])]
    return (header + ["log_posterior", "accepted"],
            [[i] + [f"{v:.8g}" for v in state] + [f"{lp:.8g}", int(ok)]
             for i, (state, lp, ok) in enumerate(zip(res.chain, res.log_posterior,
                                                     res.accepted))])


def _write_json(path, obj):
    with atomic_open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
    return path


def _write_manifest(cfg: dict, subcommand, inputs, outputs, phases, out_dir):
    path = os.path.join(out_dir, f"manifest_{subcommand.replace('-', '_')}.json")
    return _write_json(path, {
        "tool": f"flowinverse {__version__}",
        "subcommand": subcommand,
        "seed": cfg["seed"],
        "config": cfg,
        "input_hashes": {p: _sha256(p) for p in inputs if p and os.path.exists(p)},
        "outputs": outputs,
        "phases_s": phases,
    })


@contextlib.contextmanager
def _phase(phases: dict, name):
    """Record the wall seconds of the ``with`` body as ``phases[name]``."""
    t0 = time.perf_counter()
    yield
    phases[name] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_generate_data(cfg: dict, out_dir, phases):
    path = _path(cfg, out_dir, "paths.dataset")
    gen = _make(DataGenConfig, task=cfg["task"], tuples_per_n_obs=cfg["data.tuples_per_n_obs"],
                n_obs_set=cfg["data.n_obs"], seed=cfg["seed"])
    with _phase(phases, "generate"):
        shards = generate_dataset(gen)
    save_dataset(shards, cfg["task"], path)
    print(f"wrote {sum(len(s) for s in shards)} tuples in {len(shards)} shards to {path}")
    return [], [path]


def _cmd_train(cfg: dict, out_dir, phases):
    data_path = _path(cfg, out_dir, "paths.dataset")
    tc = _make(TrainConfig, lr=cfg["train.lr"], epochs=cfg["train.epochs"],
               batch_size=cfg["train.batch_size"],
               accum_window=cfg["train.accum_window"], seed=cfg["seed"],
               checkpoint_every=cfg["train.checkpoint_every"])
    task = get_task(cfg["task"])
    try:
        _, shards = load_dataset(data_path, task=task)
    except DatasetTaskError as err:
        raise ConfigError(str(err)) from err
    if not any(map(len, shards)):
        raise ConfigError(f"{data_path}: the dataset holds no tuples")
    net_cfg = _net_config(cfg, task)
    net = VelocityNet(task, net_cfg, seed=cfg["seed"])
    ckpt_path = _path(cfg, out_dir, "paths.checkpoint")

    def save_at(step, epoch, trained):
        save_checkpoint(ckpt_path + f".step{step}", cfg["task"], net_cfg,
                        trained.params, step=step,
                        rng_state={"seed": cfg["seed"], "epoch": epoch})

    with _phase(phases, "train"):
        net, history = train(net, shards, tc,
                             checkpoint_fn=save_at if tc.checkpoint_every else None)
    save_checkpoint(ckpt_path, cfg["task"], net_cfg, net.params, step=len(history),
                    rng_state={"seed": cfg["seed"], "epoch": tc.epochs})
    loss_path = _write_csv(os.path.join(out_dir, "loss_history.csv"), ["step", "loss"],
                           [[i, repr(v)] for i, v in enumerate(history)])
    print(f"trained {net.n_params} parameters, {len(history)} steps in {phases['train']:.1f}s; "
          f"final loss {history[-1]:.6g}; wrote {ckpt_path}")
    return [data_path], [ckpt_path, loss_path]


def _cmd_sample(cfg: dict, out_dir, phases):
    net, ckpt_path = _load_net(cfg, out_dir)
    task = net.task
    m_true, e, d = _draw_instance(cfg, task)
    with _phase(phases, "inference"):
        ens = sample_posterior(net, d, e, _sampler_config(cfg))
    out = _write_csv(os.path.join(out_dir, "ensemble.csv"),
                     [f"m{i}" for i in range(task.dim_m)],
                     [[repr(v) for v in row] for row in ens.samples.tolist()])
    inst = _write_json(os.path.join(out_dir, "instance.json"),
                       {"m_true": m_true.tolist(), "e": e.tolist(), "d": d.tolist()})
    err = relative_error_de(m_true, ens.mean, task, e)
    print(f"posterior mean {np.round(ens.mean, 4).tolist()}; "
          f"solution relative error {100 * err:.2f}%")
    return [ckpt_path], [out, inst]


def _cmd_evaluate(cfg: dict, out_dir, phases):
    net, ckpt_path = _load_net(cfg, out_dir)
    task = net.task
    with _phase(phases, "sweep"):
        reports = evaluate_sweep(net, task, cfg["eval.n_obs_list"], cfg["eval.trials"],
                                 _sampler_config(cfg), seed=cfg["seed"])
    outputs = [_write_csv(os.path.join(out_dir, f"sweep_{cfg['task']}.csv"),
                          ["N", "mean_error_pct", "std_error_pct"],
                          [[r.n_obs, repr(100.0 * r.mean_error), repr(100.0 * r.std_error)]
                           for r in reports])]
    for r in reports:
        print(f"N={r.n_obs}: {100 * r.mean_error:.2f}% +/- {100 * r.std_error:.2f}% "
              f"({r.trials} trials)")
    if cfg["task"] == "nonlinear":
        with _phase(phases, "generation_error"):
            pooled, per_case = generation_error(net, task, cfg["eval.n_inferences"],
                                                cfg["data.n_obs"][0],
                                                sampler=_sampler_config(cfg), seed=cfg["seed"])
        outputs.append(_write_json(os.path.join(out_dir, "generation_error.json"),
                                   {"pooled": pooled,
                                    "median_per_case": float(np.median(per_case)),
                                    "n_inferences": cfg["eval.n_inferences"]}))
        print(f"reconstruction error (pooled over {cfg['eval.n_inferences']} "
              f"inferences): {pooled:.4g}")
    return [ckpt_path], outputs


def _cmd_mcmc(cfg: dict, out_dir, phases):
    chain_cfg = _make(ChainConfig, n_samples=cfg["chain.n_samples"], seed=cfg["seed"])
    task = get_task(cfg["task"])
    m_true, e, d = _draw_instance(cfg, task)
    with _phase(phases, "chain"):
        res = run_chain(task, d, e, chain_cfg)
    err = relative_error_de(m_true, res.posterior_mean, task, e)
    chain_csv = _write_csv(os.path.join(out_dir, "chain.csv"), *_chain_table(res))
    table = _write_csv(os.path.join(out_dir, f"mcmc_{cfg['task']}.csv"),
                       ["N", "n_sample", "error_pct"],
                       [[cfg["instance.n_obs"], cfg["chain.n_samples"], repr(100.0 * err)]])
    result = _write_json(os.path.join(out_dir, "mcmc_result.json"),
                         {"acceptance_rate": res.acceptance_rate,
                          "posterior_mean": res.posterior_mean.tolist(),
                          "relative_error": err,
                          "proposal_scale": res.proposal_scale,
                          "warnings": res.warnings})
    print(f"chain of {cfg['chain.n_samples']}: acceptance {res.acceptance_rate:.2f}, "
          f"solution relative error {100 * err:.2f}% in {phases['chain']:.3g}s")
    for warning in res.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return [], [chain_csv, table, result]


_BODIES = {
    "generate-data": _cmd_generate_data,
    "train": _cmd_train,
    "sample": _cmd_sample,
    "evaluate": _cmd_evaluate,
    "mcmc": _cmd_mcmc,
}


def _parser():
    p = argparse.ArgumentParser(
        prog="flowinverse",
        description="Amortized Bayesian inversion with conditional flow matching.",
        epilog="Config keys:\n" + config_reference(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand")
    for name in _BODIES:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key=value config file or a run manifest (.json)")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key")
        sp.add_argument("--seed", type=int, help="override the master seed")
    return p


def main(argv=None) -> int:
    _keep_freed_memory()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    if not argv:
        parser.print_help()
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        cfg = _build_config(args)
        out_dir = cfg["out_dir"] or "."
        os.makedirs(out_dir, exist_ok=True)
        phases = {}
        inputs, outputs = _BODIES[args.subcommand](cfg, out_dir, phases)
        if args.config:
            inputs = [args.config] + inputs
        manifest = _write_manifest(cfg, args.subcommand, inputs, outputs, phases, out_dir)
        print(f"manifest: {manifest}")
        return 0
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:          # e.g. an unreadable file or an unusable out_dir
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"runtime failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
