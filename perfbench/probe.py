"""Machine-speed probe: scale measured times to a reference machine speed.

The host this benchmark runs on is shared, and its speed drifts: in 6 s
windows a fixed mix of campaign ops read 0.67 to 1.17 of its median time,
and back-to-back timings of the probe spread by 12-29% (quartiles over their
median), so the speed changes within a fraction of a second.  The probe is
a fixed piece of pure-Python ``Fraction`` arithmetic, the kind of work the
library does, owned by the benchmark so that a library change cannot change
it.

``Sampler`` times a probe every ``GAP_S`` of wall time from a timer signal,
so probes also run in the middle of long ops, between two bytecodes.  Its
``clock_ns`` leaves out the time spent in probes.  An op's time is scaled by
``NOMINAL_S`` over the mean probe time during the op and just before and
after it: a time so scaled reads what it would on a machine where the probe
takes ``NOMINAL_S``.  A library change moves it as it moves wall time, while
host drift, which slows the probe too, cancels.  On a 2-vCPU x86-64 VM,
scaling cut the spread of requests' ``ops_per_s`` over seeds 1-10 from 9-15%
to 1-3%.

Garbage collection is off while a probe runs, so a library that changes the
collector's thresholds or grows the heap does not change the probe.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter_ns

import arith

# Gauss-Jordan inverse of a fixed invertible 6x6 rational matrix.
_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 3) + 5 * (i == j) for j in range(6)]
           for i in range(6)]

# Median probe time on a 2-vCPU x86-64 VM with Python 3.11; only a scale.
NOMINAL_S = 2.0e-3

# Wall time between two probes of a Sampler.
GAP_S = 0.05


def sample_ns() -> int:
    """Nanoseconds one probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        arith.inverse(_MATRIX)
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while a probe took ``probe_s``, at the reference speed."""
    return seconds * NOMINAL_S / probe_s


class Sampler:
    """Probes every GAP_S from SIGALRM, between start() and stop()."""

    def __init__(self) -> None:
        self.stamps: list[int] = []  # perf_counter_ns at the middle of each probe
        self.probe_ns: list[int] = []
        self.total_ns = 0
        self._busy = False

    def _probe(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter_ns()
        took = sample_ns()
        end = perf_counter_ns()
        self.stamps.append((start + end) // 2)
        self.probe_ns.append(took)
        self.total_ns += end - start
        self._busy = False

    def start(self) -> None:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, GAP_S, GAP_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def clock_ns(self) -> int:
        """perf_counter_ns minus the time spent in probes so far."""
        while True:
            probes = len(self.stamps)
            now = perf_counter_ns() - self.total_ns
            if probes == len(self.stamps):  # no probe ran between the two reads
                return now

    def probe_s(self, start_ns: int, end_ns: int) -> float:
        """Mean probe time from the last probe before ``start_ns`` (real
        perf_counter_ns) to the first after ``end_ns``."""
        lo = max(bisect.bisect_left(self.stamps, start_ns) - 1, 0)
        hi = bisect.bisect_right(self.stamps, end_ns) + 1
        return statistics.fmean(self.probe_ns[lo:hi]) / 1e9
