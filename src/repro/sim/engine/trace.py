"""The engine's instrumentation spine: counters, phase timers, snapshots.

A :class:`SimTrace` accumulates cheap observability signals while a
simulation runs — event counts, per-phase wall time (read through the
injectable :mod:`repro.harness.clock`, so traces are deterministic under
``fixed_clock``), and per-link utilization snapshots.  The engine writes
into whatever trace the caller installed with :func:`set_collector`;
when none is installed (the default), recording is a no-op and the
simulators pay only a ``None`` check.

The collector slot is **thread-local**: the harness executor installs a
collector per worker process (mirroring
:func:`repro.harness.clock.set_clock`), and the service's in-process
manager threads — or any two test threads — can each run
:func:`collecting` without seeing one another's traces.  A thread that
never installed a collector reads ``None`` and records nothing.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Link keys as the simulators report them: ("net", u, v) / ("up", s) /
#: ("down", s).
LinkKey = Tuple[Any, ...]


def perf_now() -> float:  # repro-effect: allow=reads-clock
    """Monotonic seconds from the injectable harness clock.

    Imported lazily: ``repro.harness``'s package init pulls in the
    experiment registry (which imports ``repro.sim``), so a module-level
    import here would cycle when ``repro.sim`` loads first.
    """
    from repro.harness.clock import perf

    return perf()


def cohort_bucket(kind: str, size: int) -> str:
    """Histogram-bucket counter key for a size-``size`` event cohort.

    Shared by the flow simulator (admission/retirement cohorts) and the
    packet event queue (same-timestamp dispatch cohorts) so the
    ``engine:`` summary line can aggregate one histogram shape.
    """
    if size <= 1:
        tag = "1"
    elif size <= 4:
        tag = "2_4"
    elif size <= 16:
        tag = "5_16"
    else:
        tag = "17plus"
    return f"cohort_{kind}_{tag}"


class SimTrace:
    """A mutable bag of counters, timers, and utilization snapshots.

    Counters are plain integer tallies (events admitted, allocator
    iterations, incidence entries touched).  Timers accumulate seconds
    per named phase.  Snapshots record the hottest links observed when a
    simulator finishes, keyed by a caller-supplied label.
    """

    __slots__ = ("counters", "timers", "snapshots")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.snapshots: List[Dict[str, Any]] = []

    def __bool__(self) -> bool:
        return bool(self.counters or self.timers or self.snapshots)

    # ------------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` against the named phase timer."""
        self.timers[phase] = self.timers.get(phase, 0.0) + seconds

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:  # repro-effect: allow=reads-clock
        """Time a block against the ``name`` phase via the harness clock."""
        started = perf_now()
        try:
            yield
        finally:
            self.add_time(name, perf_now() - started)

    def snapshot_utilization(
        self,
        label: str,
        utilization: Mapping[LinkKey, float],
        top: int = 5,
    ) -> None:
        """Record the ``top`` hottest links from a utilization map.

        Ties break on the link key so snapshots are stable across runs.
        """
        hottest = sorted(utilization.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        self.snapshots.append(
            {
                "label": label,
                "hottest": [
                    {"link": _link_label(key), "utilization": value}
                    for key, value in hottest
                ],
            }
        )

    # ------------------------------------------------------------------

    def merge(self, other: "SimTrace") -> None:
        """Fold another trace's signals into this one."""
        for name, amount in other.counters.items():
            self.count(name, amount)
        for phase, seconds in other.timers.items():
            self.add_time(phase, seconds)
        self.snapshots.extend(other.snapshots)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view (empty dict when nothing was traced)."""
        payload: Dict[str, Any] = {}
        if self.counters:
            payload["counters"] = dict(sorted(self.counters.items()))
        if self.timers:
            payload["timers"] = dict(sorted(self.timers.items()))
        if self.snapshots:
            payload["snapshots"] = list(self.snapshots)
        return payload


def _link_label(key: LinkKey) -> str:
    """Render a link key as a compact string: ``net:4->7``, ``up:12``."""
    kind = str(key[0])
    rest: Sequence[Any] = key[1:]
    if kind == "net" and len(rest) == 2:
        return f"net:{rest[0]}->{rest[1]}"
    return ":".join([kind, *(str(part) for part in rest)])


class _TraceState(threading.local):
    """Per-thread collector slot; each thread starts with ``None``."""

    trace: Optional[SimTrace] = None


#: The per-thread collector slot the engine records into.  Being a
#: ``threading.local``, rebinding ``_STATE.trace`` on one thread cannot
#: leak into — or race with — any other thread's tracing.
_STATE = _TraceState()


def set_collector(trace: Optional[SimTrace]) -> Optional[SimTrace]:
    """Install ``trace`` as this thread's collector; returns the previous one."""
    previous = _STATE.trace
    _STATE.trace = trace
    return previous


def current() -> Optional[SimTrace]:
    """This thread's active collector, or ``None`` when tracing is off."""
    return _STATE.trace


@contextlib.contextmanager
def collecting(trace: Optional[SimTrace] = None) -> Iterator[SimTrace]:
    """Temporarily install a collector (tests and ad-hoc profiling)."""
    installed = trace if trace is not None else SimTrace()
    previous = set_collector(installed)
    try:
        yield installed
    finally:
        set_collector(previous)
