"""The harness's single, injectable source of wall-clock time.

Everything in ``repro.harness`` (and the CLI) that needs real time —
manifest timestamps, cache entry ages, job wall-time accounting — reads
it through this module, never through ``time`` directly.  That buys two
things: tests pin time with :func:`fixed_clock` instead of sleeping or
monkeypatching stdlib, and the ``no-wallclock`` lint rule's allowlist is
exactly this one file, so a stray ``time.time()`` anywhere else in the
``repro`` package is a gate failure.

``now()`` is epoch seconds (timestamps you store); ``perf()`` is a
monotonic high-resolution reading (durations you subtract).  Keep the
distinction: ``now`` can step with NTP, ``perf`` has an arbitrary epoch.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


@dataclass(frozen=True)
class Clock:
    """A pair of time sources: wall epoch seconds and a monotonic timer."""

    now: Callable[[], float]
    perf: Callable[[], float]


SYSTEM_CLOCK = Clock(now=time.time, perf=time.perf_counter)

_active: Clock = SYSTEM_CLOCK


def active_clock() -> Clock:
    """The clock currently in effect (system unless a test injected one)."""
    return _active


def now() -> float:
    """Wall-clock epoch seconds from the active clock."""
    return _active.now()


def perf() -> float:
    """Monotonic high-resolution seconds from the active clock."""
    return _active.perf()


def set_clock(clock: Clock) -> Clock:
    """Install ``clock`` process-wide; returns the previous one."""
    global _active
    previous = _active
    _active = clock
    return previous


@dataclass
class TickingClock:
    """A deterministic clock for tests: advances a fixed step per read.

    Both sources share one timeline, so a manifest's ``started_at`` and
    its ``wall_seconds`` stay mutually consistent under test.
    """

    start: float = 1_000_000_000.0
    step: float = 1.0
    _ticks: Iterator[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._ticks = itertools.count()

    def _read(self) -> float:
        return self.start + self.step * next(self._ticks)

    def as_clock(self) -> Clock:
        return Clock(now=self._read, perf=self._read)


@contextlib.contextmanager
def fixed_clock(
    clock: Optional[Clock] = None,
    start: float = 1_000_000_000.0,
    step: float = 1.0,
) -> Iterator[Clock]:
    """Temporarily replace the active clock (tests).

    With no ``clock`` argument, installs a :class:`TickingClock` that
    starts at ``start`` and advances ``step`` seconds per read.
    """
    installed = (
        clock
        if clock is not None
        else TickingClock(start=start, step=step).as_clock()
    )
    previous = set_clock(installed)
    try:
        yield installed
    finally:
        set_clock(previous)
