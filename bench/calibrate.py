"""Host-speed calibration: a fixed piece of work timed between operations.

The benchmark runs on a vCPU of a shared host whose throughput swings by
about a quarter over tens of seconds: 15-second medians of a fixed sparse
LU kernel ranged from 32 to 51 ms over five minutes, and those of a
pure-Python loop moved with them, so that the ratio of the two stayed
within 5 %. A run's wall times therefore move with the host, not with the
program. ``Calibration.sample`` times a fixed sparse LU factorization of
a 3-D Laplacian and two solves with it, the kind of work that dominates
gqc. Of the kernels tried (2-D LUs of 40², 60² and 100², the 14³ 3-D LU,
streaming numpy arithmetic, an interpreted loop, and sums of them), timed
between the operations of all four workloads in one process for seven
minutes, the 3-D LU alone tracked the operations' times about as well as
the best sum and better than any other single kernel. The benchmark takes
samples between operations and scales each operation's wall time by
``REFERENCE_S`` over the mean of the samples on its two sides. The scaled time reads as seconds at the speed at which one
unit of the fixed work takes ``REFERENCE_S``; work the program adds or
removes changes it, a slower or faster host mostly does not.

``splu`` is bound when this module loads, so the tracer, which patches
``scipy.sparse.linalg.splu`` later, never sees the calibration work.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# one unit's typical time on the 2-vCPU machine the benchmark was defined
# on; only the unit of the scaled times depends on it
REFERENCE_S = 0.048
# a sample is the median of this many units, which drops a unit that a
# context switch or a page fault landed in
UNITS = 3
GRID = 14
SOLVES = 2


class Calibration:
    def __init__(self):
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        eye = sp.eye(GRID)
        self.matrix = (sp.kron(sp.kron(t, eye), eye) + sp.kron(sp.kron(eye, t), eye)
                       + sp.kron(sp.kron(eye, eye), t)).tocsc()
        self.rhs = np.linspace(1.0, 2.0, GRID**3)
        self.samples: list[float] = []
        self.sample()  # first-call costs (imports, allocator growth) stay out

    def _unit(self) -> float:
        lu = splu(self.matrix)
        x = self.rhs
        for _ in range(SOLVES):
            x = lu.solve(x)
            x = x / np.max(np.abs(x)) + 0.5 * self.rhs
        return float(x[0])

    def sample(self) -> float:
        """Median time of ``UNITS`` units of the fixed work, in seconds."""
        times = []
        for _ in range(UNITS):
            t0 = perf_counter()
            self._unit()
            times.append(perf_counter() - t0)
        s = statistics.median(times)
        self.samples.append(s)
        return s

    def scale(self, before: float, after: float) -> float:
        """Factor that turns wall seconds measured between two samples into
        seconds at the reference speed."""
        return REFERENCE_S / (0.5 * (before + after))
