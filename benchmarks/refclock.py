"""Host-speed normalized time, for timing on a machine shared with other tenants.

Wall time on a shared machine swings by a third between runs, because other
tenants slow the processor down for seconds at a time.  `RefClock` runs a
fixed reference kernel every 50 ms (from a SIGALRM handler, so it
interleaves with the timed code) and converts a wall-clock interval into
reference time: each stretch between two samples is divided by how long the
kernel took around it, then multiplied by the kernel's nominal duration.
With the machine at its quietest, reference time equals wall time; when
the machine runs slower, the kernel runs slower by about the same factor
and the quotient stays.  The time spent in the kernel itself is left out.

The kernel does exact Fraction arithmetic and random reads from a table of
30,000 big ints, the kind of work the package does, so contention from other
tenants slows it about as much as the code under test.  It runs with the garbage
collector paused, so its duration does not depend on how many objects the
code under test keeps alive.  It shares no code with `descartes_folium`.
Only the main thread may use a RefClock.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array
from fractions import Fraction

PERIOD_S = 0.05
SMOOTHING = 3
# Duration of one reference() call when the machine is quiet: the minimum
# over 2000 calls on the 2-vCPU Xeon sandbox that defined this benchmark.
NOMINAL_S = 0.00024
_TABLE = [(i << 70) + 7 for i in range(30_000)]
_STEP = Fraction(7, 5)


def reference() -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        x, j, acc = Fraction(1, 3), 1, 0
        for _ in range(40):
            x = (x * _STEP + 1) / (x + 2)
            if x.denominator > 10**30:
                x = Fraction(1, 3)
            for _ in range(4):
                j = (j * 7919 + 13) % len(_TABLE)
                acc += _TABLE[j] & 0xFFFF
        return acc
    finally:
        if collecting:
            gc.enable()


class RefClock:
    """Samples the reference kernel while active; converts wall intervals to reference time."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._previous = None
        self._gaps = None

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def scale(self) -> float:
        """NOMINAL_S over the median kernel duration of all samples so far."""
        return NOMINAL_S / statistics.median(self._durations())

    def _durations(self) -> list:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def _gap_durations(self) -> list:
        """Per gap i (the stretch before sample i): the median kernel duration of
        the SMOOTHING samples on each side, since one sample alone is noisy."""
        if self._gaps is None or len(self._gaps) != len(self.starts) + 1:
            durations = self._durations()
            self._gaps = [
                statistics.median(durations[max(0, i - SMOOTHING):i + SMOOTHING])
                for i in range(len(durations) + 1)
            ]
        return self._gaps

    def normalize(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end], kernel time excluded.

        Needs a sample before `start` and one after `end`, which entering and
        leaving the clock provide.
        """
        gaps = self._gap_durations()
        total = 0.0
        i = bisect.bisect_right(self.ends, start)
        while i < len(self.starts) and self.starts[i] < end:
            if self.starts[i] > start:
                total += (self.starts[i] - start) / gaps[i]
            start = max(start, self.ends[i])
            i += 1
        if end > start:
            total += (end - start) / gaps[i]
        return total * NOMINAL_S
