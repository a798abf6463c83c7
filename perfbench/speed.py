"""Correction for the host's CPU-speed swings.

On a shared virtual machine the same pass can take 40% longer for
minutes at a time while other tenants load the host: a fixed loop's CPU
time swings the same way, so the swing is in the CPU, not in waiting.
Raw seconds measured minutes apart then differ by more than any usable
regression bound.

A :class:`SpeedProbe` runs a fixed pure-Python loop in a background
thread every :data:`PERIOD_S` (a few percent of one CPU) and records the
loop's CPU time.  :meth:`SpeedProbe.slowdown` is the mean loop time over
an interval relative to :data:`REFERENCE_LOOP_S`; dividing a measured
duration by it gives the duration at the reference speed.  The loop
touches no program code, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

#: Iterations of the probe loop (about a millisecond of CPU).
_LOOP = 20_000

#: Seconds between probe samples.
PERIOD_S = 0.05

#: CPU seconds the probe loop took on the machine the README's tables
#: were recorded on, in its fast phases: the reference speed.
REFERENCE_LOOP_S = 1.3e-3


class SpeedProbe:
    """Samples the interpreter's speed while the benchmark works."""

    def __init__(self) -> None:
        #: (perf_counter timestamp, loop CPU seconds) per sample.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            started = time.thread_time()
            total = 0
            for i in range(_LOOP):
                total += i * i
            self.samples.append(
                (time.perf_counter(), time.thread_time() - started)
            )

    def slowdown(self, start: float, end: float) -> float:
        """Mean loop time between two ``perf_counter`` readings, relative
        to the reference; the latest samples stand in when the interval
        held none."""
        inside = [loop for at, loop in self.samples if start <= at <= end]
        if not inside:
            inside = [loop for _, loop in self.samples[-5:]]
        if not inside:
            return 1.0
        return statistics.mean(inside) / REFERENCE_LOOP_S

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._stop.set()
        self._thread.join()
