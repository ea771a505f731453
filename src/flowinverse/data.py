"""Joint-distribution dataset generation, shard batching, and persistence.

A dataset is a list of shards, one per observation count; within a shard all
tuples share the same layout so they batch into contiguous arrays. Every
tuple draws (parameters, design, noise) from its own counter-derived RNG
stream, so generation is order-independent and parallelizable, and the file
round-trips bitwise.

A dataset file is an :mod:`artifact` with magic ``CFMD``. Its header holds
the task name and ``[n_obs, seed]`` per shard, each n_obs once; shard i
stores its arrays m, e, d and eta as ``i.m``, ``i.e``, ``i.d`` and ``i.eta``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import artifact
from .tasks import TASKS, get_task

MAGIC = b"CFMD"
FORMAT_VERSION = 2
_ARRAYS = ("m", "e", "d", "eta")      # the arrays of a shard, in file order

_STREAM_TUPLE = 0x64617461          # tag for per-tuple draws
_STREAM_SHUFFLE = 0x73687566        # tag for per-epoch shard shuffles

# Tuples per simulate_batch call in draw_tuples. A SEIR chunk keeps every
# RK4 step its reads bracket, up to 514 steps x 4 states x rows float64:
# transiently about 67 MB at 4096 rows and n_obs 8 (17 MB at 1024 rows).
SIM_BATCH = 4096
VERIFY_FRACTION = 0.01      # share of each shard's tuples load_dataset re-verifies


class DatasetFormatError(artifact.FormatError):
    pass


class DatasetTaskError(ValueError):
    """A dataset of one task loaded for another."""


@dataclass
class DatasetShard:
    n_obs: int
    m: np.ndarray        # (N, dim_m) float32
    e: np.ndarray        # (N, e_width) float32
    d: np.ndarray        # (N, d_width) float32
    eta: np.ndarray      # (N, d_width) float32
    seed: int = 0

    def __len__(self):
        return self.m.shape[0]


@dataclass
class DataGenConfig:
    task: str
    tuples_per_n_obs: int
    n_obs_set: tuple          # observation counts, one shard each
    seed: int = 0

    def __post_init__(self):
        if self.tuples_per_n_obs <= 0:
            raise ValueError("tuples_per_n_obs must be positive")
        self.n_obs_set = tuple(self.n_obs_set)
        if not self.n_obs_set:
            raise ValueError("n_obs_set must name at least one observation count")
        if len(set(self.n_obs_set)) != len(self.n_obs_set):
            raise ValueError(f"n_obs_set repeats an observation count: {self.n_obs_set}")


def _tuple_rng(seed, n_obs, index):
    return np.random.default_rng(
        np.random.Philox(np.random.SeedSequence((seed, _STREAM_TUPLE, n_obs, index))))


def draw_tuples(task, n_obs, rngs):
    """One (m, e, d, eta) row per generator, as float64 arrays.

    Each generator draws the parameters, then the design, then unit-variance
    noise z; ``simulate_batch`` then gives ``SIM_BATCH`` rows' clean observations
    and noise scales at a time, and eta = z * scale, d = clean + eta. ``rngs``
    may be lazy. A failing chunk raises ``RuntimeError`` naming its tuple range.
    """
    rngs = iter(rngs)
    chunks = []
    while batch := list(itertools.islice(rngs, SIM_BATCH)):
        draws = [(task.sample_params(rng, 1)[0], task.sample_design(rng, n_obs),
                  rng.standard_normal(task.d_width(n_obs))) for rng in batch]
        m, e, z = (np.array(a, dtype=np.float64) for a in zip(*draws))
        try:
            clean, scale = task.simulate_batch(m, e, n_obs)
        except Exception as err:
            lo = SIM_BATCH * len(chunks)
            raise RuntimeError(f"forward model failed on tuples [{lo}, {lo + len(batch)}): "
                               f"{err}") from err
        eta = z * scale[:, None]
        chunks.append((m, e, clean + eta, eta))
    return tuple(np.concatenate(a) for a in zip(*chunks))


def generate_shard(task, n_obs, count, seed) -> DatasetShard:
    if count < 1:
        raise ValueError(f"a shard needs at least one tuple, got count={count}")
    try:
        rows = draw_tuples(task, n_obs, (_tuple_rng(seed, n_obs, i) for i in range(count)))
    except Exception as err:
        raise RuntimeError(f"shard n_obs={n_obs}, seed={seed}: {err}") from err
    m, e, d, eta = (a.astype(np.float32) for a in rows)
    return DatasetShard(n_obs=n_obs, m=m, e=e, d=d, eta=eta, seed=seed)


def generate_dataset(config: DataGenConfig) -> list[DatasetShard]:
    """Sample (m, e, eta) per tuple and push through the forward model."""
    task = get_task(config.task)
    return [generate_shard(task, n, config.tuples_per_n_obs, config.seed)
            for n in config.n_obs_set]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_dataset(shards, task_name, path):
    header = {"task": task_name, "shards": [[int(s.n_obs), int(s.seed)] for s in shards]}
    artifact.write(path, MAGIC, FORMAT_VERSION, header,
                   {f"{i}.{k}": getattr(s, k) for i, s in enumerate(shards) for k in _ARRAYS})


def load_dataset(path, task=None):
    """Load shards; returns (task_name, shards).

    A deterministic sample of ``VERIFY_FRACTION`` of each shard's tuples,
    at least one, is re-verified against the forward model: d minus the
    stored noise must match F(m, e) to within 1e-6 relative to the
    observation scale. It compares d - eta with the noise-free forward
    model, so it does not depend on the noise level; passing ``task`` saves
    building one (for Darcy, its KL basis), and a ``task`` of another name
    raises ``DatasetTaskError`` before anything is verified.
    """
    header, arrays = artifact.read(path, MAGIC, FORMAT_VERSION, DatasetFormatError,
                                   keys=("task", "shards"))
    task_name = header["task"]
    if task_name not in TASKS:
        raise DatasetFormatError(f"{path}: unknown task {task_name!r}")
    if task is not None and task.name != task_name:
        raise DatasetTaskError(f"{path}: dataset is for task '{task_name}', "
                               f"not '{task.name}'")
    try:
        shards = [DatasetShard(n_obs=n_obs, seed=seed,
                               **{k: arrays[f"{i}.{k}"] for k in _ARRAYS})
                  for i, (n_obs, seed) in enumerate(header["shards"])]
    except (KeyError, TypeError, ValueError) as err:
        raise DatasetFormatError(f"{path}: shards do not match the arrays: {err!r}") from err
    if len(arrays) != len(_ARRAYS) * len(shards):
        raise DatasetFormatError(f"{path}: {len(arrays)} arrays for {len(shards)} shards")
    n_obs = [s.n_obs for s in shards]
    if len(set(n_obs)) != len(n_obs):
        raise DatasetFormatError(f"{path}: shards repeat an observation count: {n_obs}")
    _verify_sample(task if task is not None else get_task(task_name), shards)
    return task_name, shards


def _verify_sample(task, shards):
    for s in shards:
        take = max(1, int(len(s) * VERIFY_FRACTION)) if len(s) else 0
        idx = np.linspace(0, len(s) - 1, take).astype(int) if take else []
        for i in idx:
            clean = task.forward_observed(s.m[i].astype(np.float64),
                                          s.e[i].astype(np.float64))
            stored = s.d[i].astype(np.float64) - s.eta[i].astype(np.float64)
            scale = max(1.0, np.abs(clean).max())
            if np.abs(clean - stored).max() > 1e-6 * scale:
                raise DatasetFormatError(
                    f"stored tuple {i} of shard n_obs={s.n_obs} does not re-verify "
                    f"against the forward model")


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    n_obs: int
    m: np.ndarray
    e: np.ndarray
    d: np.ndarray
    index: np.ndarray    # positions within the shard's epoch order


def shuffled_order(n, seed, epoch, n_obs):
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_SHUFFLE, epoch, n_obs)))
    return rng.permutation(n)


def batch_iterator(shards, batch_size, seed=0, epoch=0):
    """Yield fixed-n_obs batches, round-robin over shards: for each batch
    offset, each shard in list order that still has rows gives one batch.

    Each shard is reshuffled per epoch (seeded); the final short batch of a
    shard is emitted. Element order within an epoch depends only on
    (seed, epoch), never on batch_size, so gradient-accumulation windows can
    be rearranged without changing the data stream.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    orders = [shuffled_order(len(s), seed, epoch, s.n_obs) for s in shards]
    for lo in range(0, max(map(len, shards), default=0), batch_size):
        for s, order in zip(shards, orders):
            if lo < len(s):
                take = order[lo:lo + batch_size]
                yield Batch(n_obs=s.n_obs, m=s.m[take], e=s.e[take], d=s.d[take],
                            index=np.arange(lo, lo + len(take)))
