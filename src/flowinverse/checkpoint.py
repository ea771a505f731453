"""Checkpoints of velocity-network parameters.

A checkpoint is an :mod:`artifact` with magic ``CFMT``. Its header holds the
task name, the net config, ``param_count``, the training ``step`` and the
``rng_state``; its arrays are the parameters, by name and in order. Loading a
saved checkpoint reproduces every parameter bitwise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import artifact
from .net import NetConfig, param_count
from .tasks import TASKS
from .tensor import Tensor

MAGIC = b"CFMT"
FORMAT_VERSION = 7


class CheckpointFormatError(artifact.FormatError):
    pass


@dataclass
class Checkpoint:
    task_name: str
    net_config: NetConfig
    params: dict
    step: int
    rng_state: dict


def save_checkpoint(path, task_name, net_config: NetConfig, params: dict,
                    step: int = 0, rng_state: dict | None = None):
    header = {"task": task_name, "net": asdict(net_config),
              "param_count": param_count(params), "step": step,
              "rng_state": rng_state or {}}
    artifact.write(path, MAGIC, FORMAT_VERSION, header,
                   {name: p.data for name, p in params.items()})


def load_checkpoint(path) -> Checkpoint:
    header, arrays = artifact.read(path, MAGIC, FORMAT_VERSION, CheckpointFormatError,
                                   keys=("task", "net", "param_count", "step", "rng_state"))
    if header["task"] not in TASKS:
        raise CheckpointFormatError(f"{path}: unknown task {header['task']!r}")
    params = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    if header["param_count"] != param_count(params):
        raise CheckpointFormatError(
            f"{path}: parameter count mismatch: header says {header['param_count']}, "
            f"arrays hold {param_count(params)}")
    try:
        net_config = NetConfig(**header["net"])
    except (TypeError, ValueError) as err:
        raise CheckpointFormatError(f"{path}: bad net config: {err}") from err
    return Checkpoint(task_name=header["task"], net_config=net_config, params=params,
                      step=header["step"], rng_state=header["rng_state"])
