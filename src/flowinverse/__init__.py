"""Amortized Bayesian inverse problems via conditional flow matching.

The package learns the conditional distribution of model parameters given
observations and experiment designs by regressing a transformer velocity
field on straight-line interpolation displacements, then samples posteriors
by integrating the learned flow. Three reference inverse problems are
included (a closed-form nonlinear map, an SEIR epidemic ODE, and Darcy-flow
permeability inversion), together with a random-walk Metropolis-Hastings
baseline and the evaluation metrics used to compare them.
"""

__version__ = "0.1.0"

from . import tensor
from .cfm import (PosteriorEnsemble, SamplerConfig, TrainConfig, cfm_loss,
                  interpolate, path_straightness, sample_batch, sample_posterior,
                  train)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (Batch, DataGenConfig, DatasetShard, batch_iterator, draw_tuples,
                   generate_dataset, load_dataset, save_dataset)
from .mcmc import ChainConfig, ChainResult, log_posterior, mh_step, run_chain
from .metrics import (EvalReport, benchmark_timing, evaluate_sweep,
                      generation_error, relative_error_de)
from .net import NetConfig, VelocityNet, init_params, param_count, timestep_basis
from .tasks import (DarcyTask, NonlinearTask, SeirTask, darcy_solve, get_task,
                    kl_basis_build, kl_expand, seir_solve)
from .tensor import AdamState, Tape, Tensor, adam_step, backward

__all__ = [
    "tensor", "Tensor", "Tape", "backward", "adam_step", "AdamState",
    "NetConfig", "VelocityNet", "init_params", "param_count", "timestep_basis",
    "get_task", "NonlinearTask", "SeirTask", "DarcyTask", "seir_solve",
    "darcy_solve", "kl_basis_build", "kl_expand",
    "DataGenConfig", "DatasetShard", "Batch", "draw_tuples", "generate_dataset",
    "save_dataset", "load_dataset", "batch_iterator", "TrainConfig",
    "SamplerConfig", "PosteriorEnsemble", "interpolate", "cfm_loss", "train",
    "sample_batch", "sample_posterior", "path_straightness", "ChainConfig",
    "ChainResult", "log_posterior", "mh_step", "run_chain", "EvalReport",
    "relative_error_de", "evaluate_sweep",
    "generation_error", "benchmark_timing", "Checkpoint", "save_checkpoint",
    "load_checkpoint",
]
