"""A reference for the speed of the machine, sampled while a run measures.

On a shared machine the speed of the processor drifts by tens of percent
for seconds or minutes at a time, and a run of the benchmark cannot tell a
slow program from a slow machine.  ``SpeedProbe`` runs a fixed pure-Python
loop (``reference_work``) every ``INTERVAL_S`` seconds from a timer signal
in the main thread.  Time spent in the loop is taken out of every measured
interval, and an interval is then scaled by ``NOMINAL_S`` over the mean
duration of the loop while the interval ran.  The benchmark's end-to-end
timings are therefore in reference seconds: seconds on a machine where the
loop takes ``NOMINAL_S``.  The raw seconds are reported beside them.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# Median duration of reference_work() on the machine the baseline was taken
# on (a 2-vCPU Xeon virtual machine at 2.1 GHz, CPython 3.11.7).
NOMINAL_S = 0.003
INTERVAL_S = 0.1
# An interval with fewer samples of its own borrows the most recent ones.
WINDOW = 10

_TABLE = tuple(tuple((3 * a + b) % 5 for b in range(5)) for a in range(5))


def reference_work():
    """Table lookups, small tuples and exact rationals, as the program does."""
    total = Fraction(0)
    best = 0
    for i in range(500):
        row = _TABLE[i % 5]
        best = max(best, max(row[j] for j in range(5) if j != i % 3))
        step = Fraction(i % 13, i % 7 + 1)
        total = total + step if total < 40 else total - step
    return best, total


def cpu_seconds() -> float:
    """Own CPU time at full resolution, plus that of any child processes."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


@dataclass(frozen=True)
class Mark:
    samples: int
    wall: float
    cpu: float
    paused: float
    paused_cpu: float


class SpeedProbe:
    """Samples ``reference_work`` on a timer between ``start`` and ``stop``."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self.paused_cpu = 0.0
        self._previous = None

    def _sample(self, *_) -> None:
        wall, cpu = time.perf_counter(), cpu_seconds()
        reference_work()
        elapsed = time.perf_counter() - wall
        self.samples.append(elapsed)
        self.paused += elapsed
        self.paused_cpu += cpu_seconds() - cpu

    def start(self) -> None:
        for _ in range(WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(len(self.samples), time.perf_counter(), cpu_seconds(),
                    self.paused, self.paused_cpu)

    def measure(self, begin: Mark) -> tuple[float, float, float, float]:
        """(wall, cpu) since ``begin`` without the probe's own time, raw and
        in reference seconds: (raw wall, raw cpu, wall, cpu)."""
        end = self.mark()
        wall = end.wall - begin.wall - (end.paused - begin.paused)
        cpu = end.cpu - begin.cpu - (end.paused_cpu - begin.paused_cpu)
        first = max(0, min(begin.samples, end.samples - WINDOW))
        window = sorted(self.samples[first:end.samples])
        if not window:  # a probe never started measures raw seconds
            return wall, cpu, wall, cpu
        trim = len(window) // 10
        scale = NOMINAL_S / statistics.mean(window[trim:len(window) - trim])
        return wall, cpu, wall * scale, cpu * scale
