"""Event queue and packet representation for the packet simulator."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.sim.engine.trace import cohort_bucket

if TYPE_CHECKING:
    from repro.sim.packet.link import LinkQueue


class EventQueue:
    """A time-ordered callback queue with deterministic tie-breaking.

    Events at equal timestamps fire in insertion order (a monotonically
    increasing sequence number breaks ties), so runs are reproducible.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._now = 0.0
        #: Cohort-size histogram from the most recent :meth:`run`: how
        #: many same-timestamp dispatch groups fell in each size bucket.
        self.cohort_counts: Dict[str, int] = {}

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._counter), action)
        )

    def schedule_at(self, when: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute time ``when`` (>= now)."""
        self.schedule(when - self._now, action)

    def run(self, max_events: int = 50_000_000) -> int:
        """Drain the queue; returns the number of events processed.

        Same-timestamp events pop as one *cohort* before dispatching —
        the heap is touched once per timestamp group, and the group size
        feeds the cohort histogram.  Dispatch order is unchanged: the
        cohort preserves (timestamp, sequence) order, and events an
        action schedules at the *same* timestamp carry later sequence
        numbers, so they form the next cohort exactly where the
        one-at-a-time loop would have run them.
        """
        processed = 0
        heap = self._heap
        self.cohort_counts.clear()
        cohort: List[Callable[[], None]] = []
        while heap:
            when, _seq, action = heapq.heappop(heap)
            self._now = when
            cohort.append(action)
            while heap and heap[0][0] == when:
                cohort.append(heapq.heappop(heap)[2])
            bucket = cohort_bucket("event", len(cohort))
            self.cohort_counts[bucket] = self.cohort_counts.get(bucket, 0) + 1
            for member in cohort:
                member()
                processed += 1
                if processed >= max_events:
                    raise RuntimeError(
                        f"packet simulation exceeded {max_events} events; "
                        "a flow is probably livelocked"
                    )
            cohort.clear()
        return processed

    def __len__(self) -> int:
        return len(self._heap)


@dataclass
class Packet:
    """One packet in flight.

    ``path`` is the ordered list of link objects the packet still has to
    traverse (set at send time from the flow's hashed route); ``hop``
    indexes the next link.
    """

    flow_id: int
    seq: int
    size_bytes: int
    is_ack: bool
    path: Tuple["LinkQueue", ...]
    hop: int = 0
    #: Time the corresponding data packet was first sent (for RTT).
    sent_at: float = 0.0
    #: Set on retransmissions so RTT samples skip them (Karn's rule).
    retransmitted: bool = False
    #: Congestion-experienced mark (ECN CE on data, ECE echo on ACKs).
    ecn: bool = False

    def next_link(self) -> "LinkQueue":
        return self.path[self.hop]

    def at_destination(self) -> bool:
        return self.hop >= len(self.path)
