"""A fixed reference kernel that measures how fast the host is right now.

The benchmark was built on a 2-CPU KVM guest whose speed drifts by +-20%
(at times 2x) over tens of seconds, with no steal time: the guest's CPU
itself runs slower or faster. Raw wall times of runs made minutes apart then
scatter by more than a regression bound. The benchmark therefore times this
kernel between the rounds of a phase and between set-ups, and scales each
measured time to the speed the host had when the benchmark was sized.

The kernel does the three kinds of work the workloads do: sparse
matrix-vector products (the Darcy CG solves), many small numpy operations
(the velocity net at small batch) and plain-Python float arithmetic (the
scalar SEIR RK4). It calls no flowinverse code, so no change to the program
can change it. It takes about 60 ms.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp

# Median kernel time on the 2-CPU Intel Xeon (Sapphire Rapids, KVM guest) on
# which the workloads were sized; scaled times are seconds on that machine.
REFERENCE_S = 0.060

_N = 65


class Reference:
    """Times the kernel; :meth:`scale` turns its time into a factor that
    converts seconds measured next to it into reference seconds."""

    def __init__(self):
        n2 = _N * _N
        self._lap = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-_N, -1, 0, 1, _N],
                             shape=(n2, n2), format="csr")
        self._v = np.ones(n2)
        self._a = np.random.default_rng(0).standard_normal(64)

    def _kernel(self):
        x = self._v
        for _ in range(1000):
            x = self._lap @ x
            x = x / np.abs(x).max()
        y = self._a
        for _ in range(2000):
            y = np.tanh(y * 0.5) + 0.1 * y
        s, b = 0.0, 1.0
        for _ in range(100_000):
            s = s + b * 0.999
            b = b * 0.9999 + 1e-6
        return float(x.sum() + y.sum() + s)

    def seconds(self):
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0

    @staticmethod
    def scale(before_s, after_s):
        """Factor for work timed between two kernel runs."""
        return REFERENCE_S / (0.5 * (before_s + after_s))
