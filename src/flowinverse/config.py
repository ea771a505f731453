"""Flat key=value run configuration with per-task defaults.

Config files hold one ``key = value`` pair per line (``#`` comments and
blank lines ignored); keys are dotted per module, e.g. ``train.lr``.
Command-line ``--set key=value`` overrides file values; ``--seed`` overrides
the master seed. Every key has a documented default below; some defaults
depend on the task (the published hyperparameters differ between tasks), and
the evaluation and instance counts derive from ``data.n_obs``. A key that
feeds a library config field, such as ``net.n_emb``, reads its default.

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
    counts = tuple(_count(x) for x in items)
    if len(set(counts)) != len(counts):
        raise ValueError(f"repeats an observation count: {counts}")
    return counts


def _str(v):
    return None if v is None else str(v)   # a manifest records an unset key as null


# key -> (parser, default, help); None default means "set per task", derived or unset
KEY_SPECS = {
    "task": (_str, "nonlinear", "one of nonlinear | seir | darcy"),
    "seed": (_seed, 0, "master seed; all randomness derives from it"),
    "out_dir": (_str, None, "output directory (default '.')"),
    "paths.dataset": (_str, None, "dataset file (default <out_dir>/<task>.cfmd)"),
    "paths.checkpoint": (_str, None, "checkpoint file (default <out_dir>/<task>.cfmt)"),
    "data.tuples_per_n_obs": (_int, None, "tuples per observation count"),
    "data.n_obs": (_count_list, None, "observation counts, e.g. '4,5,6,7,8'"),
    "net.n_emb": (_int, NetConfig.n_emb, "embedding width"),
    "net.n_head": (_int, NetConfig.n_head, "attention heads"),
    "net.n_layer": (_int, NetConfig.n_layer, "transformer blocks"),
    "train.lr": (float, TrainConfig.lr, "Adam learning rate"),
    "train.epochs": (_int, None, "training epochs"),
    "train.batch_size": (_int, TrainConfig.batch_size, "tuples per batch"),
    "train.accum_window": (_int, TrainConfig.accum_window, "batches accumulated per optimizer step"),
    "train.checkpoint_every": (_int, TrainConfig.checkpoint_every,
                               "optimizer steps between checkpoints (0: off)"),
    "sampler.steps": (_int, SamplerConfig.steps, "ODE integration steps"),
    "sampler.method": (_str, SamplerConfig.method, "euler | midpoint | rk4"),
    "sampler.ensemble": (_int, SamplerConfig.ensemble, "posterior draws per inference"),
    "chain.n_samples": (_int, ChainConfig.n_samples, "MCMC chain length"),
    "eval.n_obs_list": (_count_list, None, "sweep observation counts"),
    "eval.trials": (_count, 25, "fresh instances per observation count"),
    "eval.n_inferences": (_count, 10000, "instances for the reconstruction error (nonlinear only)"),
    "instance.n_obs": (_count, None, "observation count of the conditioning instance"),
    "instance.seed": (_seed, 1, "stream for drawing the conditioning instance"),
}

# the paper's values where they differ by task, applied when the key is not set
TASK_DEFAULTS = {
    "nonlinear": {
        "train.epochs": 16,
        "data.tuples_per_n_obs": 100_000,
        "data.n_obs": (1,),
    },
    "seir": {
        "net.n_layer": 6,
        "train.epochs": 30,
        "data.tuples_per_n_obs": 20_000,
        "data.n_obs": (4, 5, 6, 7, 8),
    },
    "darcy": {
        "train.lr": 3e-4,
        "train.epochs": 40,
        "data.tuples_per_n_obs": 4_000,
        "data.n_obs": (4, 5, 6, 7, 8),
    },
}

# defaults computed from the resolved data.n_obs: key -> (shown as, function)
DERIVED_DEFAULTS = {
    "eval.n_obs_list": ("data.n_obs", tuple),
    "instance.n_obs": ("max(data.n_obs)", max),
}


class ConfigError(ValueError):
    pass


def _parse_value(key, raw):
    if key not in KEY_SPECS:
        known = "\n  ".join(sorted(KEY_SPECS))
        raise ConfigError(f"unknown config key '{key}'; valid keys:\n  {known}")
    parser = KEY_SPECS[key][0]
    try:
        return parser(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad value for '{key}': {err}") from err


def parse_config_text(text):
    """Split flat 'key = value' lines into a dict of raw value strings."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        out[key.strip()] = raw.strip()
    return out


def load_config_file(path):
    """Read the raw values of a flat-text config file, or those a run manifest
    (.json) did not leave at their defaults."""
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
        return _set_in_manifest(explicit)
    return parse_config_text(text)


def _set_in_manifest(recorded: dict) -> dict:
    """The manifest's task and the raw values that differ from what resolve
    gives that task (for a derived key, the manifest's ``data.n_obs``): a
    manifest records every key, so the rest count as unset."""
    values = {k: _parse_value(k, v) for k, v in recorded.items()}
    defaults = resolve({"task": values["task"]} if "task" in values else {})
    if "data.n_obs" in values:
        defaults.update((k, derive(values["data.n_obs"]))
                        for k, (_, derive) in DERIVED_DEFAULTS.items())
    return {k: v for k, v in recorded.items() if k == "task" or values[k] != defaults[k]}


def resolve(explicit: dict) -> dict:
    """Every key's value: explicit, else the task's default, else one derived
    from ``data.n_obs``, else the key's own. Only here are raw values parsed."""
    explicit = {k: _parse_value(k, v) for k, v in explicit.items()}
    task = explicit.get("task", KEY_SPECS["task"][1])
    if task not in TASK_DEFAULTS:
        raise ConfigError(f"unknown task '{task}'; expected one of {sorted(TASK_DEFAULTS)}")
    values = {key: default for key, (_, default, _h) in KEY_SPECS.items()}
    cfg = {**values, **TASK_DEFAULTS[task], **explicit}
    for key, (_, derive) in DERIVED_DEFAULTS.items():
        if key not in explicit:
            cfg[key] = derive(cfg["data.n_obs"])
    return cfg


def _show(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def config_reference():
    """Human-readable key reference: key, default, help. A key's default is
    followed by the tasks that differ from it (``default=4 seir=6``); a key
    every task sets shows only theirs, and a derived key its source
    (``= max(data.n_obs)``)."""
    lines = []
    for key, (_, default, help_) in sorted(KEY_SPECS.items()):
        if key in DERIVED_DEFAULTS:
            shown = ["= " + DERIVED_DEFAULTS[key][0]]
        else:
            shown = [f"{task}={_show(values[key])}" for task, values in TASK_DEFAULTS.items()
                     if key in values]
            if default is not None or not shown:
                shown.insert(0, f"default={default!r}")
        lines.append(f"{key:26s} {' '.join(shown):24s} {help_}")
    return "\n".join(lines)
