"""The four benchmark workloads, one per user phase of flowinverse.

Each workload builds its inputs from the seed in :meth:`Workload.setup`.
The timed phase (:func:`run_phase`) then repeats a fixed unit of work, a
*round*, until the phase has lasted ``seconds``; the figures are totals over
whole rounds, so two versions of the program are compared on the same work
per round. A reference kernel timed between rounds scales each round's
seconds to the host's reference speed (see ``reference.py``). Rounds check the program's outputs as they go. Where every round
repeats the same inputs (training, inference), each must reproduce round 0
bitwise; the digest of round 0 makes a change in numbers visible.

| workload      | one round                                       | throughput counts | latency per    |
|---------------|-------------------------------------------------|-------------------|----------------|
| seir-train    | cfm.train, 2 epochs (10 steps) from seeded init | training tuples   | optimizer step |
| seir-infer    | 16 sample_posterior calls, one evaluate_sweep   | sweep instances   | inference      |
| seir-mh       | one auto-tuned run_chain of 200 samples         | model evaluations | evaluation     |
| darcy-datagen | generate_shard of 16 tuples, save, load, verify | dataset tuples    | tuple          |
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from flowinverse import cfm, data, mcmc, metrics
from flowinverse.net import NetConfig, VelocityNet
from flowinverse.tasks import DarcyTask, SeirTask
from flowinverse.tasks.darcy import CONST as DARCY_CONST, kl_basis_build
from flowinverse.tasks.seir import TRUE_RATES

from perfbench.ess import bulk_ess_min
from perfbench.reference import Reference

N_OBS_SET = (4, 5, 6, 7, 8)
N_OBS = 8                       # observation count of single instances

_TAG_INSTANCE = 0x696e7374
_TAG_SAMPLER = 0x73616d70
_TAG_SWEEP = 0x73776570
_TAG_CHAIN = 0x6368616e
_TAG_SHARD = 0x73686172


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _seed(seed, tag, k):
    """The k-th derived seed of stream ``tag``."""
    return int(np.random.SeedSequence((seed, tag, k)).generate_state(1)[0])


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def seir_net_config():
    """The SEIR velocity net of the paper: 6 blocks, n_emb 32, 4 heads."""
    return NetConfig(n_emb=32, n_head=4, n_layer=6, dim_m=SeirTask.dim_m,
                     obs_token_dim=SeirTask.obs_token_dim)


@dataclass
class Round:
    """What one round did and measured."""
    attempted: int                  # operations tried
    failed: int                     # operations that failed
    units: int                      # work items the throughput counts ...
    busy_s: float                   # ... and the seconds spent on them
    ops: int                        # operations the latency averages ...
    op_s: float                     # ... and the seconds spent on them
    latencies_s: list               # per-operation samples, for the report
    outputs: list                   # numeric outputs: digest and replica check
    errors: list = field(default_factory=list)       # failed correctness checks
    info: dict = field(default_factory=dict)         # raw figures for summarize()
    scale: float = 1.0              # seconds -> reference seconds, see reference.py


@dataclass
class Phase:
    """The rounds of one timed phase and what they add up to."""
    rounds: list
    wall_s: float
    digest: str
    errors: list
    named: dict                     # workload-specific figures, for the report
    layer: dict                     # per-layer values the workload measures itself

    def total(self, attr):
        return sum(getattr(r, attr) for r in self.rounds)

    def rate(self, scaled=True):
        """Throughput units per (reference) second."""
        busy = sum(r.busy_s * (r.scale if scaled else 1.0) for r in self.rounds)
        return self.total("units") / busy if busy else 0.0

    def latency_ms(self, scaled=True):
        """Mean (reference) milliseconds per latency operation."""
        op_s = sum(r.op_s * (r.scale if scaled else 1.0) for r in self.rounds)
        ops = self.total("ops")
        return 1e3 * op_s / ops if ops else 0.0

    @property
    def mean_scale(self):
        return float(np.mean([r.scale for r in self.rounds]))

    @property
    def latencies_s(self):
        return [x for r in self.rounds for x in r.latencies_s]


class Workload:
    name = ""
    replicas = False                # every round repeats the same inputs

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def setup(self):
        raise NotImplementedError

    def round(self, k) -> Round:
        raise NotImplementedError

    def summarize(self, rounds) -> tuple[dict, dict]:
        """(figures for the report, per-layer values) of a phase's rounds."""
        return {}, {}

    def cold_setup(self) -> dict:
        """Per-layer values of set-up work that only a traced run repeats cold."""
        return {}


def run_phase(wl: Workload, seconds: float, ref: Reference) -> Phase:
    """Run whole rounds of ``wl`` until ``seconds`` have passed, timing the
    reference kernel before the first round and after every round."""
    rounds = []
    t0 = perf_counter()
    before = ref.seconds()
    while not rounds or perf_counter() - t0 < seconds:
        r = wl.round(len(rounds))
        after = ref.seconds()
        r.scale = ref.scale(before, after)
        rounds.append(r)
        before = after
    wall = perf_counter() - t0
    errors = [e for r in rounds for e in r.errors]
    if wl.replicas:
        first = rounds[0].outputs
        for k, r in enumerate(rounds[1:], 1):
            if len(r.outputs) != len(first) or not all(
                    np.array_equal(a, b) for a, b in zip(first, r.outputs)):
                errors.append(f"round {k} did not reproduce the outputs of round 0")
    named, layer = wl.summarize(rounds)
    return Phase(rounds=rounds, wall_s=wall, digest=_digest(rounds[0].outputs),
                 errors=errors, named=named, layer=layer)


class SeirTrain(Workload):
    name = "seir-train"
    replicas = True

    TUPLES_PER_N_OBS = 1024
    BATCH = 256
    ACCUM = 4
    EPOCHS = 2

    def setup(self):
        self.task = SeirTask()
        self.shards = data.generate_dataset(data.DataGenConfig(
            task="seir", tuples_per_n_obs=self.TUPLES_PER_N_OBS,
            n_obs_set=N_OBS_SET, seed=self.seed))

    def round(self, k):
        # An epoch is 20 batches of 256 (four per observation count), that
        # is 5 optimizer steps. Over 5 steps the window loss does not fall
        # reliably for every seed; over 10 it does.
        net = VelocityNet(self.task, seir_net_config(), seed=self.seed)
        cfg = cfm.TrainConfig(epochs=self.EPOCHS, batch_size=self.BATCH, accum_window=self.ACCUM,
                              seed=self.seed, checkpoint_every=1)
        batches = self.EPOCHS * sum(len(s) // self.BATCH for s in self.shards)
        stamps = []
        errors = []
        history = []
        diverged = 0
        t0 = perf_counter()
        try:
            _, history = cfm.train(net, self.shards, cfg,
                                   checkpoint_fn=lambda step, epoch, net: stamps.append(perf_counter()))
        except cfm.TrainingDivergedError as err:
            diverged = 1
            errors.append(f"training diverged: {err}")
        busy = perf_counter() - t0
        history = np.asarray(history, dtype=np.float64)
        if len(history) != batches // self.ACCUM:
            errors.append(f"ran {len(history)} optimizer steps, expected {batches // self.ACCUM}")
        elif not np.isfinite(history).all():
            errors.append("non-finite training loss")
        elif not history[-1] < history[0]:
            errors.append(f"loss did not fall: first window {history[0]:.6g}, "
                          f"last window {history[-1]:.6g}")
        return Round(
            attempted=batches, failed=diverged,
            units=self.EPOCHS * sum(len(s) for s in self.shards), busy_s=busy,
            ops=len(stamps), op_s=busy, latencies_s=list(np.diff([t0] + stamps)),
            outputs=[history, *(net.params[n].data for n in sorted(net.params))],
            errors=errors, info={"history": history})

    def summarize(self, rounds):
        history = rounds[0].info["history"]
        return {"train_loss_first": float(history[0]) if len(history) else None,
                "train_loss_end": float(history[-1]) if len(history) else None,
                "optimizer_steps_per_round": int(len(history))}, {}


class SeirInfer(Workload):
    name = "seir-infer"
    replicas = True

    N_INSTANCES = 16
    SWEEP_TRIALS = 2
    SAMPLER = dict(steps=50, method="euler", ensemble=10)

    def setup(self):
        self.task = SeirTask()
        self.net = VelocityNet(self.task, seir_net_config(), seed=self.seed)
        rng = _rng(self.seed, _TAG_INSTANCE)
        m = self.task.sample_params(rng, self.N_INSTANCES)
        e = np.stack([self.task.sample_design(rng, N_OBS) for _ in m])
        clean, scale = self.task.simulate_batch(m, e, N_OBS)
        d = clean + rng.standard_normal(clean.shape) * scale[:, None]
        self.instances = list(zip(d, e))
        # warm-up inference: first-call costs are paid by set-up, not the phase
        d0, e0 = self.instances[0]
        cfm.sample_posterior(self.net, d0, e0, self._sampler(0))

    def _sampler(self, i):
        return cfm.SamplerConfig(seed=_seed(self.seed, _TAG_SAMPLER, i), **self.SAMPLER)

    def round(self, k):
        errors = []
        failed = 0
        latencies = []
        outputs = []
        for i, (d, e) in enumerate(self.instances):
            t0 = perf_counter()
            try:
                ens = cfm.sample_posterior(self.net, d, e, self._sampler(i))
            except FloatingPointError as err:
                failed += 1
                errors.append(f"inference {i} failed: {err}")
                continue
            latencies.append(perf_counter() - t0)
            s = ens.samples
            if s.shape != (self.SAMPLER["ensemble"], self.task.dim_m) or not np.isfinite(s).all():
                errors.append(f"inference {i}: bad ensemble, shape {s.shape}")
            outputs.append(s)

        sweep = len(N_OBS_SET) * self.SWEEP_TRIALS
        t0 = perf_counter()
        try:
            reports = metrics.evaluate_sweep(self.net, self.task, N_OBS_SET,
                                             trials=self.SWEEP_TRIALS,
                                             sampler=cfm.SamplerConfig(seed=0, **self.SAMPLER),
                                             seed=_seed(self.seed, _TAG_SWEEP, 0))
        except FloatingPointError as err:
            failed += sweep
            errors.append(f"sweep failed: {err}")
            reports = []
        sweep_s = perf_counter() - t0
        sweep_errors = np.array([[r.mean_error, r.std_error] for r in reports])
        if not np.isfinite(sweep_errors).all():
            errors.append("non-finite sweep error")
        outputs.append(sweep_errors)
        return Round(
            attempted=len(self.instances) + sweep, failed=failed,
            units=sweep if reports else 0, busy_s=sweep_s,
            ops=len(latencies), op_s=float(sum(latencies)), latencies_s=latencies,
            outputs=outputs, errors=errors,
            info={"sweep_mean_error": float(sweep_errors[:, 0].mean()) if reports else None})

    def summarize(self, rounds):
        return {"sweep_mean_error": rounds[0].info["sweep_mean_error"]}, {}


class _CountingSeirTask(SeirTask):
    """SEIR task that counts what ``run_chain`` asks of it: one log-prior
    call per proposal plus one for the starting point, and one forward-model
    evaluation per proposal inside the prior support."""

    def __init__(self):
        super().__init__()
        self.log_prior_calls = 0
        self.forward_calls = 0

    def log_prior(self, m):
        self.log_prior_calls += 1
        return super().log_prior(m)

    def forward_observed(self, m, e_row):
        self.forward_calls += 1
        return super().forward_observed(m, e_row)


class SeirMh(Workload):
    name = "seir-mh"

    N_SAMPLES = 200

    def setup(self):
        # One fixed instance, the package's reference rates; the seed draws
        # its observation times and noise.
        self.task = _CountingSeirTask()
        rng = _rng(self.seed, _TAG_INSTANCE)
        m = TRUE_RATES
        e = self.task.sample_design(rng, N_OBS)
        clean, scale = self.task.simulate_batch(m[None, :], e[None, :], N_OBS)
        self.d = clean[0] + rng.standard_normal(clean.shape[1]) * scale[0]
        self.e = e
        # The scalar RK4 that MH uses must agree with the batched one.
        self.scalar_gap = float(np.max(np.abs(self.task.forward_observed(m, e) - clean[0])))

    def round(self, k):
        # Each round is a new chain on the same instance. Tuning adds 60 to
        # about 600 proposals to the 200 kept; a proposal inside the prior
        # box costs one scalar RK4 solve.
        errors = []
        if k == 0 and not self.scalar_gap <= 1e-9:
            errors.append(f"scalar forward_observed differs from simulate_batch by {self.scalar_gap:.3g}")
        cfg = mcmc.ChainConfig(n_samples=self.N_SAMPLES, seed=_seed(self.seed, _TAG_CHAIN, k))
        calls0, evals0 = self.task.log_prior_calls, self.task.forward_calls
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            result = mcmc.run_chain(self.task, self.d, self.e, cfg)
            busy = perf_counter() - t0
        failed = sum("forward model failed" in str(w.message) for w in caught)
        proposals = self.task.log_prior_calls - calls0 - 1
        evals = self.task.forward_calls - evals0
        if not np.isfinite(result.samples).all():
            errors.append(f"chain {k}: non-finite samples")
        return Round(
            attempted=proposals, failed=failed, units=evals, busy_s=busy,
            ops=evals, op_s=busy, latencies_s=[busy / max(evals, 1)],
            outputs=[result.samples], errors=errors,
            info={"samples": result.samples, "proposals": proposals,
                  "acceptance": result.acceptance_rate})

    def summarize(self, rounds):
        proposals = sum(r.info["proposals"] for r in rounds)
        busy = sum(r.busy_s for r in rounds)
        accept = float(np.mean([r.info["acceptance"] for r in rounds]))
        ess_min = bulk_ess_min(np.stack([r.info["samples"] for r in rounds]))
        figures = {"mh_steps_per_s": proposals / busy, "chains": len(rounds),
                   "ess_min": ess_min, "acceptance_rate": accept}
        layer = {"mcmc.tune_steps": proposals / len(rounds) - self.N_SAMPLES,
                 "mcmc.acceptance_rate": accept,
                 "mcmc.ess_min": ess_min,
                 "mcmc.ess_per_step": ess_min / proposals,
                 "mcmc.failed_evals": sum(r.failed for r in rounds)}
        return figures, layer


class DarcyDatagen(Workload):
    name = "darcy-datagen"

    SHARD_TUPLES = 16

    def setup(self):
        self.task = DarcyTask()
        self.task.basis                        # loads the warmed KL cache
        data.generate_shard(self.task, N_OBS, 1, self.seed)   # warm-up solve

    def cold_setup(self):
        cold_dir = os.path.join(self.scratch, "kl-cold")
        t0 = perf_counter()
        kl_basis_build(DARCY_CONST, cache_dir=cold_dir)
        return {"tasks.darcy.kl_basis_build_s": perf_counter() - t0}

    def round(self, k):
        # Each round generates a new shard; loading it back is not timed.
        path = os.path.join(self.scratch, f"shard{k}.cfmd")
        t0 = perf_counter()
        try:
            shard = data.generate_shard(self.task, N_OBS, self.SHARD_TUPLES,
                                        _seed(self.seed, _TAG_SHARD, k))
        except RuntimeError as err:
            return Round(attempted=self.SHARD_TUPLES, failed=self.SHARD_TUPLES, units=0,
                         busy_s=0.0, ops=0, op_s=0.0, latencies_s=[], outputs=[],
                         errors=[f"shard {k}: {err}"])
        data.save_dataset([shard], self.task.name, path)
        busy = perf_counter() - t0
        size = os.path.getsize(path)
        errors = []
        try:
            task_name, (loaded,) = data.load_dataset(path, task=self.task)
        except data.DatasetFormatError as err:
            errors.append(f"shard {k}: {err}")
        else:
            same = (task_name == self.task.name and loaded.n_obs == shard.n_obs
                    and loaded.seed == shard.seed
                    and all(np.array_equal(getattr(loaded, a), getattr(shard, a))
                            for a in ("m", "e", "d", "eta")))
            if not same:
                errors.append(f"shard {k} did not round-trip bitwise")
        os.remove(path)
        return Round(
            attempted=self.SHARD_TUPLES, failed=0, units=self.SHARD_TUPLES, busy_s=busy,
            ops=self.SHARD_TUPLES, op_s=busy, latencies_s=[busy / self.SHARD_TUPLES],
            outputs=[shard.m, shard.e, shard.d, shard.eta], errors=errors,
            info={"bytes": size})

    def summarize(self, rounds):
        sizes = [r.info["bytes"] for r in rounds if "bytes" in r.info]
        return {}, {"data.bytes_written": float(np.mean(sizes)) if sizes else 0.0}


WORKLOADS = {w.name: w for w in (SeirTrain, SeirInfer, SeirMh, DarcyDatagen)}
