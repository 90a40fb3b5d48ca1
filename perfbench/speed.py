"""Host speed, sampled all through a run, and timings scaled to a reference speed.

The reference host is shared, and its speed for single-threaded
pure-Python work drifts: a fixed loop ran up to 1.5x slower or faster
from one ten-second stretch to the next, with ``process_time`` equal to
wall time.  Raw wall times of the same code therefore spread by about a
fifth between runs.  To see the program through that, a timer signal
runs a fixed pure-Python kernel every ``INTERVAL`` seconds of wall time,
inside and between operations, and records how long it took.

An interval's *scaled* time is its wall time, less the kernel time that
fell inside it, divided by the host's speed factor around it: the mean
kernel time of the samples taken within ``MARGIN`` seconds of the
interval, over ``REFERENCE_S``.  It reads as the time the interval would
have taken at the reference speed.  A slower program raises it, a slower
host does not.  The raw times are kept in the run record.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

INTERVAL = 0.05  # seconds of wall time between two kernel samples
MARGIN = 0.25  # samples this close to an interval count for its speed
KERNEL_STEPS = 1000
# about the median kernel time on the reference host (2 CPUs, Python 3.11.7, Linux)
REFERENCE_S = 1.5e-3


@dataclass(frozen=True, slots=True, order=True)
class _Cell:
    row: int
    col: int


@dataclass(frozen=True, slots=True)
class _Pair:
    a: _Cell
    b: _Cell

    def __post_init__(self) -> None:
        if self.b < self.a:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Fixed pure-Python work of the kinds the program does.

    Tuples, dict updates, hashing and a sort; then frozen, ordered
    dataclasses built, compared and put in a set.  Neither half alone
    followed the program's slowdowns as closely as both together.
    """
    seen: dict = {}
    acc = 0
    for i in range(steps):
        key = (i % 61, i % 53)
        seen[key] = seen.get(key, 0) + 1
        acc ^= hash(key) & 0xFFFF
    pairs = set()
    for i in range(steps // 8):
        pairs.add(_Pair(_Cell(i % 7, i % 11), _Cell(i % 5, i % 13)))
    return acc + len(sorted(seen)) + len(pairs)


class HostSpeed:
    """Kernel samples taken on a timer signal: start times and durations, in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []
        self._busy = [0.0]  # prefix sums of costs
        self._inside = False

    def _tick(self, signum, frame) -> None:
        if self._inside:
            return
        self._inside = True
        start = perf_counter()
        kernel()
        self.record(start, perf_counter())
        self._inside = False

    def record(self, start: float, end: float) -> None:
        self.starts.append(start)
        self.ends.append(end)
        self.costs.append(end - start)
        self._busy.append(self._busy[-1] + end - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, t0: float, t1: float) -> float:
        """Kernel time inside [t0, t1]; samples never overlap, so only the edges need clipping."""
        lo, hi = bisect_left(self.ends, t0), bisect_right(self.starts, t1)
        if lo >= hi:
            return 0.0
        total = self._busy[hi] - self._busy[lo]
        total -= max(0.0, t0 - self.starts[lo])
        total -= max(0.0, self.ends[hi - 1] - t1)
        return total

    def factor(self, t0: float, t1: float) -> float:
        """Host slowness around [t0, t1] relative to the reference: mean nearby kernel time / REFERENCE_S."""
        lo, hi = bisect_left(self.starts, t0 - MARGIN), bisect_right(self.starts, t1 + MARGIN)
        if lo >= hi:  # no sample close by: take the nearest one
            lo = min(max(lo - 1, 0), len(self.costs) - 1)
            hi = lo + 1
        return statistics.fmean(self.costs[lo:hi]) / REFERENCE_S

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at the reference speed, kernel samples left out."""
        return (t1 - t0 - self.busy(t0, t1)) / self.factor(t0, t1)

    def run_factor(self) -> float:
        """Host slowness over the whole run: median kernel time / REFERENCE_S."""
        return statistics.median(self.costs) / REFERENCE_S
