"""Speed probe: how fast this CPU runs Python, sampled while rowpack runs.

On a shared machine other tenants change how fast a vCPU runs Python by
up to ~1.7x, in phases lasting from one to tens of seconds.  The benchmark
scales every latency by CAL_REFERENCE_S over the time a fixed calibration
unit takes at that moment, so a run measures the program, not the phase.
Imports only the standard library: the setup probe loads it before rowpack.
"""
from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

# Speed probe: one calibration unit every PROBE_INTERVAL_S of wall time.
# CAL_REFERENCE_S is about the unit's median time on the machine of
# baseline/BENCH_seed.json, so scaled latencies read as milliseconds there;
# it is a fixed constant, so scaled figures stay comparable between runs.
PROBE_INTERVAL_S = 0.025
CAL_REFERENCE_S = 0.0006
PROBE_MIN_SAMPLES = 1


def _calibration_unit() -> float:
    """Fixed pure-Python work, ~0.6 ms: half dict updates and integer
    arithmetic (like the search layer), half float math over a list of
    points (like the geometry layer and the compactor)."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(1200):
        k = i % 31
        table[k] = table.get(k, 0) + i
        acc += (i * 7) // 3
    pts = [(i * 0.37 % 7.0, i * 0.11 % 5.0) for i in range(40)]
    worst = 0.0
    for i in range(len(pts)):
        xi, yi = pts[i]
        for j in range(i + 1, len(pts)):
            worst = max(worst, 2.0 - math.hypot(xi - pts[j][0], yi - pts[j][1]))
    return acc + worst


def calibrate(units: int = 20) -> float:
    """Mean time of one calibration unit over `units` back-to-back runs."""
    t = time.perf_counter()
    for _ in range(units):
        _calibration_unit()
    return (time.perf_counter() - t) / units


class SpeedProbe:
    """Samples how fast this CPU runs Python while the round runs.

    On a shared machine other tenants slow a process down by up to ~1.7x in
    phases lasting from one to tens of seconds, and the slowdown hits
    rowpack's code and the calibration unit nearly alike (interleaved, their
    ratio varied by 2% where raw times varied by 15%).  A SIGALRM handler
    runs the unit every PROBE_INTERVAL_S, and once on entry and exit; an
    operation's latency is its wall time minus the handler time inside it,
    scaled by CAL_REFERENCE_S over the mean unit time sampled during the
    operation (or the nearest sample, for an operation shorter than the
    probe interval): the speed changes within tens of milliseconds, so
    wider windows scaled short operations worse.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        _calibration_unit()
        self.starts.append(t)
        self.seconds.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def own(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] minus the probe's own time inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return (t1 - t0) - sum(self.seconds[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        while hi - lo < PROBE_MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0 and (hi == len(self.starts) or t0 - self.starts[lo - 1] < self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return self.own(t0, t1) * CAL_REFERENCE_S / statistics.fmean(self.seconds[lo:hi])

    def speed(self) -> float:
        """Median machine speed over the round, relative to the reference."""
        return CAL_REFERENCE_S / statistics.median(self.seconds)
