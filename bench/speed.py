"""Timing that cancels the shared host's changes of speed.

On a few cores of a shared host the same single-threaded code runs up to
twice as fast at one moment as at another, and a run of half a minute can
fall wholly in a fast or a slow period. Two fixed pieces of Python code slow
down together, though: their time ratio holds within a few per cent while
each swings by tens of per cent.

``SpeedProbe`` therefore runs a short fixed burst of Python (``_burst``) on a
wall-clock timer all through the run, and reports each measured interval at
the reference speed: its wall time, minus the time the bursts took, times
``REFERENCE_BURST_S`` over the median burst time in the interval, or in the
last ``WINDOW_S`` of it when the interval is shorter. The median, not the
mean, so that a burst the host happened to interrupt does not count. The
bursts are the benchmark's own code, so a change to the program moves the
reported times as it moves the wall times.

``WallClock`` has the same interface and reports plain wall time; the traced
run uses it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

# The burst's typical time on the 2.1 GHz Xeon (2 vCPUs of a shared host) the
# benchmark was tuned on, where it took 0.17 to 0.39 ms as the host's load
# changed. It sets the unit only: reported times are seconds at the speed at
# which a burst takes this long. Bursts take about 1.5% of the run.
REFERENCE_BURST_S = 3.0e-4
PERIOD_S = 0.02
WINDOW_S = 0.25

_WORDS = [f"w{i * 7919 % 1021}" for i in range(1600)]


def _burst() -> int:
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    return sum(len(word) * n for word, n in counts.items())


@dataclass(frozen=True)
class Lap:
    t0: float
    spent0: float


class WallClock:
    def __enter__(self) -> "WallClock":
        return self

    def __exit__(self, *_exc) -> None:
        pass

    def start(self) -> Lap:
        return Lap(time.perf_counter(), 0.0)

    def stop(self, lap: Lap) -> float:
        return time.perf_counter() - lap.t0

    def factor(self, lap: Lap) -> float:
        """Reported seconds per wall second since ``lap``."""
        return 1.0


class SpeedProbe:
    def __init__(self) -> None:
        self.ends: list[float] = []     # when each burst ended
        self.bursts: list[float] = []   # how long it took
        self.spent = 0.0                # time inside the handler, bursts included
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _burst()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.bursts.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> Lap:
        return Lap(time.perf_counter(), self.spent)

    def _scale(self, lap: Lap, t1: float) -> float:
        lo = bisect.bisect_left(self.ends, min(lap.t0, t1 - WINDOW_S))
        hi = bisect.bisect_right(self.ends, t1)
        window = self.bursts[lo:hi] or self.bursts[-8:]
        if not window:
            return 1.0
        return REFERENCE_BURST_S / statistics.median(window)

    def stop(self, lap: Lap) -> float:
        t1 = time.perf_counter()
        return ((t1 - lap.t0) - (self.spent - lap.spent0)) * self._scale(lap, t1)

    def factor(self, lap: Lap) -> float:
        t1 = time.perf_counter()
        wall = t1 - lap.t0
        return (wall - (self.spent - lap.spent0)) / wall * self._scale(lap, t1)
