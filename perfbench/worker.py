"""Child process of ``perfbench/run.py``: runs one workload and prints JSON.

It prints two lines on standard output: a report (machine, workload figures,
per-round totals, digest of the numeric outputs, failed checks), then the
result object with the metrics named in ``BENCHMARK.json``. Thread
pinning and the KL cache location come from the environment that ``run.py``
sets before this process imports numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import scipy

from perfbench.reference import Reference
from perfbench.workloads import WORKLOADS, run_phase

ROOT = Path(__file__).resolve().parent.parent
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TENSOR_OPS = ("add", "matmul", "transpose", "reshape", "rms_norm", "rope_apply",
              "relu_squared", "scale", "softmax_lastdim", "concat", "slice_axis",
              "sub", "mul", "mean_all")


def _git_sha(root: Path):
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_sha": _git_sha(ROOT),
        "thread_pinning": {"method": "environment, set before numpy is imported",
                           **{v: os.environ.get(v) for v in PINNED}},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tr, phase, extras, overhead_pct):
    """Every per-layer metric; layers the workload does not call read 0."""
    fwd = "net.VelocityNet.forward"
    post = "cfm.sample_posterior"
    bwd_calls = tr.calls["tensor.backward"]
    op_calls = sum(n for (scope, name), n in tr.within.items()
                   if scope == fwd and name.startswith("tensor.")
                   and not name.startswith("tensor.Tensor."))
    m = {"tensor.records_per_forward": (tr.ratio(op_calls, fwd), "count")}
    for op in TENSOR_OPS:
        m[f"tensor.fwd_ms.{op}"] = (tr.ratio(1e3 * tr.seconds[f"tensor.{op}"], fwd), "ms")
    for op in TENSOR_OPS:
        m[f"tensor.bwd_ms.{op}"] = (1e3 * tr.bwd_seconds[op] / bwd_calls if bwd_calls else 0.0, "ms")
    m.update({
        "tensor.backward_ms": (tr.per_call_ms("tensor.backward"), "ms"),
        "tensor.adam_step_ms": (tr.per_call_ms("tensor.adam_step"), "ms"),
        "net.forward_ms": (tr.per_call_ms(fwd), "ms"),
        "cfm.cfm_loss_ms": (tr.per_call_ms("cfm.cfm_loss"), "ms"),
        "cfm.sample_posterior_ms": (tr.per_call_ms(post), "ms"),
        "cfm.velocity_calls": (tr.ratio(tr.within[post, "net.VelocityNet.velocity"], post), "count"),
        "cfm.prior_sample_calls": (tr.ratio(tr.within[post, "tasks.seir.SeirTask.prior_sample"], post), "count"),
        "data.batch_ms": (tr.per_call_ms("data.batch_iterator"), "ms"),
        "data.generate_ms": (tr.per_call_ms("data.generate_shard"), "ms"),
        "data.save_ms": (tr.per_call_ms("data.save_dataset"), "ms"),
        "data.bytes_written": (0.0, "bytes"),
        "data.load_ms": (tr.per_call_ms("data.load_dataset"), "ms"),
        "data.verify_solves": (tr.ratio(tr.within["data.load_dataset", "tasks.darcy.DarcyTask.forward_observed"],
                                        "data.load_dataset"), "count"),
        "tasks.seir.simulate_batch_ms": (tr.per_call_ms("tasks.seir.SeirTask.simulate_batch"), "ms"),
        "tasks.seir.simulate_rows": (tr.ratio(tr.items["tasks.seir.SeirTask.simulate_batch"],
                                              "tasks.seir.SeirTask.simulate_batch"), "count"),
        "tasks.seir.de_solution_ms": (tr.per_call_ms("tasks.seir.SeirTask.de_solution"), "ms"),
        "tasks.seir.forward_observed_ms": (tr.per_call_ms("tasks.seir.SeirTask.forward_observed"), "ms"),
        "tasks.darcy.solve_ms": (tr.per_call_ms("tasks.darcy.darcy_solve"), "ms"),
        "tasks.darcy.cg_iters": (tr.ratio(tr.cg_iterations, "tasks.darcy.darcy_solve"), "count"),
        "tasks.darcy.kl_expand_ms": (tr.per_call_ms("tasks.darcy.kl_expand"), "ms"),
        "tasks.darcy.kl_basis_build_s": (0.0, "s"),
        "mcmc.log_posterior_ms": (tr.per_call_ms("mcmc.log_posterior"), "ms"),
        "mcmc.log_posterior_calls": (tr.ratio(tr.within["mcmc.run_chain", "mcmc.log_posterior"],
                                              "mcmc.run_chain"), "count"),
        "mcmc.tune_steps": (0.0, "count"),
        "mcmc.acceptance_rate": (0.0, "ratio"),
        "mcmc.ess_min": (0.0, "count"),
        "mcmc.ess_per_step": (0.0, "ratio"),
        "mcmc.failed_evals": (0.0, "count"),
        "metrics.relative_error_de_ms": (tr.per_call_ms("metrics.relative_error_de"), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    for name, value in {**phase.layer, **extras}.items():
        m[name] = (value, m[name][1])
    return m


def _setup_seconds(wl, ref):
    """Raw and reference-scaled seconds of each set-up repetition."""
    raw, scaled = [], []
    before = ref.seconds()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup()
        raw.append(perf_counter() - t0)
        after = ref.seconds()
        scaled.append(raw[-1] * ref.scale(before, after))
        before = after
    return raw, scaled


def run_untraced(wl, seconds):
    ref = Reference()
    setup_raw, setup = _setup_seconds(wl, ref)
    phase = run_phase(wl, seconds, ref)
    values = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (phase.rate(), "1/s"),
        "latency_ms_mean": (phase.latency_ms(), "ms"),
    }
    unscaled = {"setup_s": median(setup_raw), "throughput_per_s": phase.rate(scaled=False),
                "latency_ms_mean": phase.latency_ms(scaled=False),
                "mean_scale": phase.mean_scale}
    return phase, values, unscaled


def run_traced(wl, seconds):
    """An untraced phase, then a traced one; their rates give the overhead."""
    from perfbench.tracer import Tracer

    ref = Reference()
    extras = wl.cold_setup()
    wl.setup()
    plain = run_phase(wl, seconds, ref)
    with Tracer() as tr:
        wl.setup()
        phase = run_phase(wl, seconds, ref)
    overhead = 100.0 * (plain.rate() / phase.rate() - 1.0) if phase.rate() else 0.0
    phase.errors = plain.errors + phase.errors
    if plain.digest != phase.digest:
        phase.errors.append("tracing changed the numeric outputs")
    return phase, layer_metrics(tr, phase, extras, overhead), {
        "untraced_per_s": plain.rate(scaled=False), "traced_per_s": phase.rate(scaled=False),
        "mean_scale": phase.mean_scale}


def _latency_summary(samples_s):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples_s)
    out = {"samples": n}
    if n:
        ms = 1e3 * np.asarray(samples_s)
        out["p50_ms"] = float(np.median(ms))
    if n >= 20:
        pct = 10 * int(10 * (1 - 10 / n))
        out[f"p{pct}_ms"] = float(np.percentile(ms, pct))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scratch", required=True)
    args = p.parse_args(argv)

    import flowinverse
    src = (ROOT / "src").resolve()
    if src not in Path(flowinverse.__file__).resolve().parents:
        sys.exit(f"flowinverse was imported from {flowinverse.__file__}, not from {src}")
    missing = [v for v in PINNED + ("FLOWINVERSE_CACHE",) if v not in os.environ]
    if missing:
        sys.exit(f"run through perfbench/run.py; environment lacks {', '.join(missing)}")

    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    try:
        wl = WORKLOADS[args.workload](args.seed, scratch)
        phase, values, unscaled = (run_traced if args.trace else run_untraced)(wl, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = phase.total("attempted"), phase.total("failed")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "rounds": {a: [getattr(r, a) for r in phase.rounds]
                   for a in ("units", "busy_s", "ops", "op_s")},
        "figures": phase.named, "latency": _latency_summary(phase.latencies_s),
        "phase_s": phase.wall_s, "unscaled": unscaled, "digest": phase.digest,
        "failed_frac": failed / attempted, "errors": phase.errors,
    }
    result = {
        "correct": not phase.errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps({"report": report}, default=float))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
