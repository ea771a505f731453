"""Benchmark of the flowinverse package: four workloads, one per user phase.

Run one workload from the repository root with::

    python3 perfbench/run.py --workload seir-train --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads and the metrics they report.
"""
