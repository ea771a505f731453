"""Run one flowinverse benchmark workload and print its result as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload seir-train --seed 1 --seconds 10 --trace 0

Workloads: seir-train, seir-infer, seir-mh, darcy-datagen. With ``--trace 0``
the last line of standard output holds the end-to-end metrics, measured with
tracing off and scaled to the host's reference speed (see
``perfbench/reference.py``); with ``--trace 1`` it holds the per-layer
metrics of a traced run, whose overhead it reports as ``trace.overhead_pct``.
The line before it is a report with the machine, the workload's own figures,
the unscaled times and a digest of its numeric outputs.

The workload runs in a fresh child process whose BLAS and OpenMP pools are
pinned to one thread through the environment, because threadpoolctl is not
available. The child imports flowinverse from ``src/`` of this checkout and
keeps its KL-basis cache and temporary datasets under ``.perfbench/``; it
writes nothing outside the checkout. This process imports no numpy.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("seir-train", "seir-infer", "seir-mh", "darcy-datagen")
DEADLINE_S = 175           # the whole run, warm-up included


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["FLOWINVERSE_CACHE"] = str(STATE / "cache")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_child(argv, deadline, what):
    """Run ``python3 argv`` in the checkout with the pinned environment and
    return its standard output. ``subprocess.run`` kills the child and waits
    for it when the deadline passes."""
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, check=False,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"{what} did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        sys.exit(f"{what} exited with code {proc.returncode}")
    return proc.stdout


def main(argv=None):
    p = argparse.ArgumentParser(description="Run one flowinverse benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "flowinverse" / "__init__.py").is_file():
        sys.exit(f"no flowinverse sources under {ROOT / 'src'}")

    deadline = time.monotonic() + DEADLINE_S
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    if args.workload == "darcy-datagen":
        # Build the KL basis into the cache in a process of its own, so that
        # set-up time and peak memory never include a cold build.
        run_child(["-c", "from flowinverse.tasks.darcy import kl_basis_build; kl_basis_build()"],
                  deadline, "building the KL-basis cache")
    out = run_child(["-m", "perfbench.worker", "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--scratch", str(STATE / "tmp")],
                    deadline, "the workload process")
    lines = out.strip().splitlines()
    if not lines:
        sys.exit("workload process printed no result")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
