"""Host speed, sampled between operations, to scale timings to a reference host.

On a shared host the speed of the processor switches between a faster and
a slower state, within a second and over minutes, by up to 1.75 times,
alike for interpreted Python, vector arithmetic and scattered memory
access. The benchmark therefore runs a short fixed kernel, the *probe*,
between the operations of each case, outside every timed interval, and
divides each timed interval by its *host factor*: the mean probe time
within ``WINDOW_S`` of the interval over ``REFERENCE_S``, the probe time on
the reference host. A factor above 1 means the host ran slower than that.

The probe uses only Python and numpy element-wise and indexing operations,
so no change to ``levelset`` and no BLAS or thread setting changes its time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 2.0e-3   # probe time on a 2-vCPU x86-64 host in its faster state
EVERY_S = 0.1          # least time between two bursts of probes inside a case
BURST = 3              # probes in a row at each pause
AFTER = 6              # probes after each case, so every case has some
TRIM = 0.1             # share of samples left out at each end of the mean
WINDOW_S = 0.5         # probes this close to an interval give its host factor


class HostProbe:
    """Times the probe kernel; :meth:`factor` turns the samples into a host factor."""

    def __init__(self, every_s=EVERY_S, clock=time.perf_counter):
        rng = np.random.default_rng(0)
        self._x = rng.random(8192)
        self._order = rng.permutation(8192)
        self.every_s = every_s
        self.clock = clock
        self.samples = []     # (start, duration) of each probe
        self._due = 0.0
        self._kernel()        # warm-up, not recorded

    def _kernel(self):
        total = 0
        for i in range(8000):
            total += i * i % 7
        x = self._x
        for _ in range(16):
            x = np.sin(x) * 0.5 + np.sqrt(x)[self._order] * 0.25
        return total + float(x[0])

    def sample(self):
        """Run the probe once; return the time it took."""
        start = self.clock()
        self._kernel()
        end = self.clock()
        self.samples.append((start, end - start))
        self._due = end + self.every_s
        return end - start

    def pause(self):
        """Between two operations: probe if one is due. Return the time spent here."""
        start = self.clock()
        if start < self._due:
            return 0.0
        for _ in range(BURST):
            self.sample()
        return self.clock() - start

    def close(self):
        """After a case: probe ``AFTER`` times."""
        for _ in range(AFTER):
            self.sample()

    def factor(self, start, length):
        """Host factor of the interval of ``length`` seconds from clock time ``start``.

        The trimmed mean of the probe times within ``WINDOW_S`` of the
        interval, or of every probe so far if none is that close, over
        ``REFERENCE_S``.
        """
        lo, hi = start - WINDOW_S, start + length + WINDOW_S
        near = [d for t, d in self.samples if lo <= t <= hi]
        return trimmed_mean(near or [d for _, d in self.samples]) / REFERENCE_S

    def scale(self, case):
        """``case``'s wall time and operation times at the reference host speed.

        Each operation is divided by its own host factor; the rest of the
        wall time (set-up, output, work between operations) by the factor
        of the whole case.
        """
        whole = self.factor(case.started, case.wall_s)
        ops = [t / self.factor(a, t) for a, t in zip(case.op_at, case.op_s)]
        return sum(ops) + (case.wall_s - sum(case.op_s)) / whole, ops


def trimmed_mean(values, trim=TRIM):
    """Mean of ``values`` without the lowest and highest ``trim`` share of them.

    The host switches between a fast and a slow state within a second, so a
    median would jump between the two; the mean follows the share of time
    spent in each, and trimming drops probes cut short or preempted.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("mean of no samples")
    k = int(trim * len(xs))
    return statistics.fmean(xs[k:len(xs) - k])
