"""Host-speed calibration: a fixed kernel timed between operations.

On a shared host the same call can take 50 % longer for seconds at a time
(other tenants on the sibling hyperthreads, frequency changes); CPU time
moves with wall time, so neither clock removes it.  The kernel below is the
benchmark's own code, independent of specgap, and mixes the three kinds of
work the workloads do: exact-rational and plain Python loops, small NumPy
vector operations, and small dense LAPACK calls.  Its duration near an
operation measures how fast the host runs at that moment; dividing by it
turns an operation's time into host-independent units.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np
import scipy.linalg

# A calibrated time is ``raw * NOMINAL_NS / local kernel time``: the time on a
# host where the kernel takes NOMINAL_NS, near its typical time on the
# reference host of README.md.  Fixed, so that figures compare across commits.
NOMINAL_NS = 3_500_000
SIDE = 2                    # kernel samples pooled on each side of an operation
INTERVAL_NS = 200_000_000   # sample at most this often between operations


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._v = rng.standard_normal(64)
        self.starts = []          # ns
        self.durations = []       # ns

    def _kernel(self):
        acc = Fraction(0)
        for k in range(1, 120):
            acc += Fraction(1, k)
        s = 0.0
        v = self._v
        for k in range(120):
            s += float(np.max(v * k + np.cumsum(v)))
        for _ in range(2):
            scipy.linalg.eigvals(self._a)
            np.linalg.svd(self._a, compute_uv=False)
        return acc, s

    def sample(self):
        # the first pass refills the caches the last operation evicted, so
        # that the timed second pass depends on the host, not on that operation
        self._kernel()
        t0 = time.perf_counter_ns()
        self._kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter_ns() - t0)

    def maybe_sample(self):
        """Sample when the last sample is older than the interval."""
        if not self.starts or time.perf_counter_ns() - self.starts[-1] > INTERVAL_NS:
            self.sample()

    def factor(self, t0_ns: int, t1_ns: int) -> float:
        """NOMINAL_NS over the median kernel time of the SIDE samples taken
        last before the span [t0, t1] and the SIDE taken first after it."""
        lo = bisect.bisect_left(self.starts, t0_ns)
        hi = bisect.bisect_left(self.starts, t1_ns)
        near = self.durations[max(0, lo - SIDE):lo] + self.durations[hi:hi + SIDE]
        return NOMINAL_NS / statistics.median(near)
