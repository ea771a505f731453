"""Flat key=value run configuration with per-task defaults.

Config files hold one ``key = value`` pair per line (``#`` comments and
blank lines ignored); keys are dotted per module, e.g. ``train.lr``.
Command-line ``--set key=value`` overrides file values; ``--seed`` overrides
the master seed. Every key has a documented default below; some defaults
depend on the task (the published hyperparameters differ between tasks). A
key that feeds a library config field, such as ``net.n_emb``, reads its default.

Only ``cli`` reads this module: it resolves a run's config into a plain dict
and passes plain values on to the library, which never sees a config key.
"""

from __future__ import annotations

import json

from .cfm import SamplerConfig, TrainConfig
from .mcmc import ChainConfig
from .net import NetConfig


def _int(v):
    if isinstance(v, float) and not v.is_integer():     # a float from a JSON manifest
        raise ValueError(f"expected an integer, got {v}")
    return int(v)


def _seed(v):
    n = _int(v)
    if n < 0:
        raise ValueError(f"expected an integer >= 0, got {n}")
    return n


def _count(v):
    n = _int(v)
    if n < 1:
        raise ValueError(f"expected an integer >= 1, got {n}")
    return n


def _count_list(v):
    items = v if isinstance(v, (list, tuple)) else str(v).replace(",", " ").split()
    if not items:
        raise ValueError("expected at least one integer >= 1")
    return tuple(_count(x) for x in items)


def _opt_float(v):
    if v is None or str(v).strip().lower() in ("", "none", "default"):
        return None
    return float(v)


def _opt_scale(v):
    x = _opt_float(v)
    if x is not None and not 0.0 < x < float("inf"):
        raise ValueError(f"expected a finite value > 0, got {x}")
    return x


def _str(v):
    return None if v is None else str(v)   # a manifest records an unset key as null


# key -> (parser, default, help); None default means "task-dependent" or unset
KEY_SPECS = {
    "task": (_str, "nonlinear", "one of nonlinear | seir | darcy"),
    "seed": (_seed, 0, "master seed; all randomness derives from it"),
    "out_dir": (_str, None, "output directory (fallback: $CFM_OUT_DIR, then '.')"),
    "paths.dataset": (_str, None, "dataset file to read or write"),
    "paths.checkpoint": (_str, None, "checkpoint file to read or write"),
    "data.tuples_per_n_obs": (_int, None, "tuples per observation count"),
    "data.n_obs": (_count_list, None, "observation counts, e.g. '4,5,6,7,8'"),
    "data.sigma": (_opt_scale, None, "noise scale override (task default if unset)"),
    "net.n_emb": (_int, NetConfig.n_emb, "embedding width"),
    "net.n_head": (_int, NetConfig.n_head, "attention heads"),
    "net.n_layer": (_int, None, "transformer blocks"),
    "train.lr": (float, None, "Adam learning rate"),
    "train.epochs": (_int, None, "training epochs"),
    "train.batch_size": (_int, TrainConfig.batch_size, "tuples per batch"),
    "train.accum_window": (_int, TrainConfig.accum_window, "batches accumulated per optimizer step"),
    "train.checkpoint_every": (_int, TrainConfig.checkpoint_every,
                               "optimizer steps between checkpoints (0: off)"),
    "sampler.steps": (_int, SamplerConfig.steps, "ODE integration steps"),
    "sampler.method": (_str, SamplerConfig.method, "euler | midpoint | rk4"),
    "sampler.ensemble": (_int, SamplerConfig.ensemble, "posterior draws per inference"),
    "chain.n_samples": (_int, ChainConfig.n_samples, "MCMC chain length"),
    "chain.burn_in": (float, ChainConfig.burn_in, "burn-in fraction discarded"),
    "chain.proposal_scale": (_opt_float, ChainConfig.proposal_scale, "proposal std (tuned if unset)"),
    "eval.n_obs_list": (_count_list, None, "sweep observation counts"),
    "eval.trials": (_count, 25, "fresh instances per observation count"),
    "eval.n_inferences": (_count, 10000, "instances for the reconstruction error"),
    "instance.n_obs": (_count, None, "observation count of the conditioning instance"),
    "instance.seed": (_seed, 1, "stream for drawing the conditioning instance"),
}

# task-dependent defaults, applied when the key is not set explicitly
TASK_DEFAULTS = {
    "nonlinear": {
        "net.n_layer": 4,
        "train.lr": 8e-4,
        "train.epochs": 16,
        "data.tuples_per_n_obs": 100_000,
        "data.n_obs": (1,),
        "eval.n_obs_list": (1,),
        "instance.n_obs": 1,
    },
    "seir": {
        "net.n_layer": 6,
        "train.lr": 8e-4,
        "train.epochs": 30,
        "data.tuples_per_n_obs": 20_000,
        "data.n_obs": (4, 5, 6, 7, 8),
        "eval.n_obs_list": (4, 5, 6, 7, 8),
        "instance.n_obs": 8,
    },
    "darcy": {
        "net.n_layer": 4,
        "train.lr": 3e-4,
        "train.epochs": 40,
        "data.tuples_per_n_obs": 4_000,
        "data.n_obs": (4, 5, 6, 7, 8),
        "eval.n_obs_list": (4, 5, 6, 7, 8),
        "instance.n_obs": 8,
    },
}


class ConfigError(ValueError):
    pass


def parse_value(key, raw):
    if key not in KEY_SPECS:
        known = "\n  ".join(sorted(KEY_SPECS))
        raise ConfigError(f"unknown config key '{key}'; valid keys:\n  {known}")
    parser = KEY_SPECS[key][0]
    try:
        return parser(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad value for '{key}': {err}") from err


def parse_config_text(text):
    """Parse flat 'key = value' lines into a dict of typed values."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        out[key] = parse_value(key, raw.strip())
    return out


def load_config_file(path):
    """Read a config from a flat-text file or from a run manifest (.json)."""
    with open(path) as f:
        text = f.read()
    if path.endswith(".json"):
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON: {err}") from err
        explicit = manifest.get("config", manifest) if isinstance(manifest, dict) else None
        if not isinstance(explicit, dict):
            raise ConfigError(f"{path}: expected a JSON object of config keys")
        return {k: parse_value(k, v) for k, v in explicit.items()}
    return parse_config_text(text)


def resolve(explicit: dict) -> dict:
    """Every key's value: explicit, else the task's default, else the key's."""
    explicit = {k: parse_value(k, v) for k, v in explicit.items()}
    task = explicit.get("task", KEY_SPECS["task"][1])
    if task not in TASK_DEFAULTS:
        raise ConfigError(f"unknown task '{task}'; expected one of {sorted(TASK_DEFAULTS)}")
    values = {key: default for key, (_, default, _h) in KEY_SPECS.items()}
    return {**values, **TASK_DEFAULTS[task], **explicit}


def _show(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def config_reference():
    """Human-readable key reference: key, default, help. A task-dependent
    key shows each task's default instead, e.g. ``nonlinear=16 seir=30 darcy=40``."""
    lines = []
    for key, (_, default, help_) in sorted(KEY_SPECS.items()):
        per_task = [f"{task}={_show(values[key])}" for task, values in TASK_DEFAULTS.items()
                    if key in values]
        d = " ".join(per_task) if per_task else f"default={default!r}"
        lines.append(f"{key:26s} {d:24s} {help_}")
    return "\n".join(lines)
