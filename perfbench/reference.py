"""A fixed reference computation that measures the machine's current speed.

The reference box is a VM on a shared host whose speed drifts by up to 1.5x
over seconds to minutes, for interpreter-bound and BLAS-bound code alike.
A run times :class:`Reference` just before and just after each command and
divides the command's wall time by the mean of the two, which cancels most
of that drift.  The reference is the benchmark's own code and never changes,
so a change to vequil moves the ratio only through vequil's own time.

Its work mixes the three kinds of cost vequil's commands have: interpreted
Python loops, dense LAPACK and BLAS (the matrix product runs on every BLAS
thread), and element-wise numpy passes.  Its arrays take under 4 MB, so
``peak_rss_mb`` stays the program's.  One run of it takes about 45 ms on the
reference box; a measurement is the median of three runs.
"""

from __future__ import annotations

import statistics
import time

# Timings per measurement; their median is the measurement, so that a
# momentary stall of the host does not set a command's scale.
REPEATS = 3
PY_LOOP = 200_000
DENSE_N = 480
ELEMENTWISE_PASSES = 20


class Reference:
    """The reference work, with its inputs built once."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        m = rng.standard_normal((DENSE_N, DENSE_N))
        self._np = np
        self._spd = m @ m.T + DENSE_N * np.eye(DENSE_N)
        self._buf = np.empty_like(self._spd)
        self.seconds()  # warm-up: first-touch allocation and BLAS start-up

    def _work(self) -> float:
        np = self._np
        acc = 0
        for i in range(PY_LOOP):
            acc += i * i
        chol = np.linalg.cholesky(self._spd)
        np.matmul(self._spd, self._spd, out=self._buf)
        eig = np.linalg.eigvalsh(self._spd[:DENSE_N // 2, :DENSE_N // 2])
        for _ in range(ELEMENTWISE_PASSES):
            np.multiply(self._spd, self._spd, out=self._buf)
            np.sqrt(self._buf, out=self._buf)
        return float(acc) + chol[-1, -1] + eig[0] + float(self._buf.sum())

    def _once(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Wall time of the reference work: the median of ``REPEATS`` runs."""
        return statistics.median(self._once() for _ in range(REPEATS))
