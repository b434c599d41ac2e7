"""Interval timers for the benchmark.

The shared host this benchmark was written on changes speed by up to 1.8x
for seconds at a time, alike for the package's code and for any fixed
loop; raw medians of one workload differed by 20-34% between runs.
:class:`SpeedProbe` therefore samples the host's speed while an interval
runs: every ``PROBE_PERIOD_S`` a SIGALRM handler times a short fixed loop
(the probe).  The handler's own time is taken out of the interval, and the
rest is rescaled to the speed at which the probe takes ``REFERENCE_S``.
Such times read as "seconds at reference speed"; the raw wall time is
kept beside them.  :class:`WallTimer` is the plain clock.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

#: Probe time at the reference speed (about the median on a 2-core x86 VM).
REFERENCE_S = 0.00225
PROBE_PERIOD_S = 0.05
PROBE_STEPS = 150

_ROTATION = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
_SAMPLE_JSON = json.dumps([[[0.1 * k, -0.2 * k] for k in range(8)] for _ in range(4)])


def probe_loop(steps: int = PROBE_STEPS) -> float:
    """Seconds for a fixed mix of interpreter work, small numpy updates and JSON parsing,
    the kinds of work the package's Jacobi kernel and file layer do."""
    work = np.eye(8, dtype=complex)
    total = 0.0
    start = time.perf_counter()
    for k in range(steps):
        cols = [k % 7, k % 7 + 1]
        work[:, cols] = work[:, cols] @ _ROTATION
        total += abs(work[cols[0], cols[0]])
        if k % 10 == 0:
            total += len(json.loads(_SAMPLE_JSON))
    return time.perf_counter() - start


class WallTimer:
    """Plain wall-clock intervals: ``measure`` returns (value, raw_s, raw_s)."""

    def measure(self, fn):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        return value, elapsed, elapsed


class SpeedProbe:
    """Wall-clock intervals rescaled by host-speed probes taken during them.

    ``measure`` returns (value, raw_s, scaled_s): raw_s is the interval
    without the probes' own time.  The work done in it is the integral of
    the host's speed, which the probes sample evenly in time, so scaled_s is
    raw_s times the mean of REFERENCE_S / probe time, counting one probe
    just before and one just after the interval.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self.history: list[float] = []

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe_loop())
        self.stolen += time.perf_counter() - start

    def measure(self, fn):
        self.samples = [probe_loop()]
        self.stolen = 0.0
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        start = time.perf_counter()
        try:
            value = fn()
        finally:
            elapsed = time.perf_counter() - start
            stolen = self.stolen
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(probe_loop())
        self.history += self.samples
        raw = elapsed - stolen
        return value, raw, raw * statistics.fmean(REFERENCE_S / p for p in self.samples)
