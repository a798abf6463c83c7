"""Event-driven flow-level simulator: the stand-in for htsim (Section 5.3).

Flows arrive at their start times, share bandwidth max-min fairly with
every other active flow (the fluid limit of long-lived TCP), and depart
when their bytes are delivered.  Rates are recomputed at every arrival
and departure, so between events the system is piecewise constant and
completion times are exact under the fluid model.

Each flow occupies its source server's uplink, its destination server's
downlink, and the directed network links of the switch path its first
packet was ECMP-hashed onto (``RoutingScheme.sample_path``).  Intra-rack
flows use only the server links, which is how flat networks keep local
traffic off the fabric.

The simulator runs on the array-backed engine (:mod:`repro.sim.engine`):
link ids come from the network's :class:`~repro.core.linktable.LinkTable`
(net links first, then one uplink and one downlink per server), paths
are hashed through the scheme's :class:`CompiledRouting`, and the
flow→link incidence persists across events in a
:class:`~repro.sim.maxmin.Incidence` updated on admit/finish instead of
being rebuilt from Python lists at every event.  Max-min rates
decompose over the connected components of the flow→link graph, so an
event whose admissions and previous retirements touch only links no
other live flow uses keeps every other flow's rate; only the remaining
events solve the allocation afresh with
:func:`~repro.sim.maxmin.fill_levels` over that incidence.  Retired flow
slots are reused, so per-slot arrays stay as long as the most flows
alive at once.  Entry order is kept in admission order throughout, so
allocator demand sums and per-link byte accounting accumulate floats in
exactly the legacy order.  The skipped solves are exact in real
arithmetic; a cold solve threads all components through one running
float sum, so it can differ from them in the last bit.  On every
workload the parity tests check, results are bit-for-bit identical to
the per-event rebuild.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.network import Network
from repro.routing.base import RoutingScheme
from repro.sim.engine import trace as sim_trace
from repro.sim.maxmin import (
    AllocationError,
    FillScratch,
    Incidence,
    fill_levels,
)
from repro.sim.results import FctResults, FlowRecord
from repro.traffic.flows import Flow
from repro.traffic.matrix import Placement

#: Bytes below which a flow counts as finished (guards float round-off).
_RESIDUAL_BYTES = 1e-6

#: Relative tolerance for "this event is the earliest completion": the
#: timestep ``dt`` equals ``finish_dt`` unless an arrival preempts it,
#: and equality survives the float arithmetic because both come from the
#: same ``min``; the tolerance guards the measure-zero case of an
#: arrival landing within rounding distance of a completion.
_COMPLETION_RTOL = 1e-12


@dataclass
class _ActiveFlow:
    flow: Flow
    links: np.ndarray
    path: Tuple[int, ...]
    src_server: int
    dst_server: int


class FlowSimulator:
    """Simulates a flow workload on one (topology, routing) combination."""

    def __init__(
        self,
        network: Network,
        routing: RoutingScheme,
        placement: Placement,
        seed: int = 0,
        hop_latency_s: float = 0.0,
    ) -> None:
        """``hop_latency_s`` adds a fixed per-link latency to each flow's
        completion time (propagation + store-and-forward), improving
        small-flow fidelity; it does not affect bandwidth sharing.  The
        default 0 reproduces the pure fluid model."""
        if hop_latency_s < 0:
            raise ValueError("hop latency must be non-negative")
        if routing.network is not network:
            raise ValueError("routing was built for a different network")
        if placement.network is not network:
            raise ValueError("placement targets a different network")
        self.network = network
        self.routing = routing
        self.placement = placement
        self.hop_latency_s = hop_latency_s
        self._rng = random.Random(seed)

        table = network.link_table()
        bad = np.flatnonzero(table.capacities <= 0)
        if bad.size:
            key = ("net",) + table.pairs[int(bad[0])]
            raise AllocationError(f"link {key!r} has non-positive capacity")
        self._table = table
        self._compiled = routing.compile(table)
        self._num_net = len(table)
        self._num_servers = network.num_servers
        self._server_cap = network.server_link_capacity
        # Dense link ids: net links 0..L-1 in LinkTable order, then one
        # uplink per server, then one downlink per server.  Links a run
        # never touches carry zero demand, so pre-registering all of
        # them leaves the allocation unchanged.
        self._caps = np.concatenate(
            [
                table.capacities,
                np.full(2 * self._num_servers, float(self._server_cap)),
            ]
        )

        self._incidence = Incidence()
        self._fill_scratch = FillScratch()
        #: Active incidence entries per link id; ``> 0`` is exactly the
        #: distinct-link set of the live incidence, handed to
        #: :func:`fill_levels` to skip its per-event ``np.unique`` sort.
        self._link_refs = np.zeros(len(self._caps), dtype=np.int64)
        self._meta: List[_ActiveFlow] = []
        #: Retired slot ids, reused before the slot space grows, so every
        #: per-slot array stays as long as the most flows ever alive at
        #: once rather than the number admitted so far.
        self._free_slots: List[int] = []
        self._slot_alive = np.zeros(0, dtype=bool)
        self._remaining = np.zeros(0)
        #: Per-slot max-min level (Gbps), kept across events so an event
        #: that changes no live flow's component skips the solve (see
        #: :meth:`_allocate`).  Dead slots hold stale values, never read.
        self._levels = np.zeros(0)
        #: False while a link of the flows retired at the previous event
        #: still carries a live flow: that retirement changed a live
        #: flow's component, so the next event must solve.
        self._retired_alone = True
        #: Per-slot bytes drained this event.  Dead slots hold stale
        #: values, which is fine: the incidence only references alive
        #: slots, so stale entries are never gathered.
        self._spent = np.zeros(0)
        #: Alive slot ids in admission order, maintained incrementally so
        #: the event loop never scans the slot space.  Recycled slot ids
        #: are not ascending; admission order is what keeps records and
        #: float sums in the legacy order.
        self._alive_ids = np.zeros(0, dtype=np.intp)
        self._alive_n = 0
        self._num_active = 0
        #: Bytes carried per link id, filled during :meth:`run`.
        self._link_bytes = np.zeros(len(self._caps))
        self._elapsed = 0.0
        #: Instrumentation from the most recent :meth:`run`.
        self.trace = sim_trace.SimTrace()

    # ------------------------------------------------------------------

    def _grow_slots(self, total: int) -> None:
        capacity = len(self._slot_alive)
        if total <= capacity:
            return
        capacity = max(capacity * 2, total, 64)
        alive = np.zeros(capacity, dtype=bool)
        alive[: len(self._slot_alive)] = self._slot_alive
        remaining = np.zeros(capacity)
        remaining[: len(self._remaining)] = self._remaining
        levels = np.zeros(capacity)
        levels[: len(self._levels)] = self._levels
        spent = np.zeros(capacity)
        spent[: len(self._spent)] = self._spent
        alive_ids = np.zeros(capacity, dtype=np.intp)
        alive_ids[: self._alive_n] = self._alive_ids[: self._alive_n]
        self._slot_alive = alive
        self._remaining = remaining
        self._levels = levels
        self._spent = spent
        self._alive_ids = alive_ids

    def reset(self, seed: int = 0) -> None:
        """Rearm for a fresh run without rebuilding topology state.

        Drops all per-run mutable state (rng, flow slots and the free
        list, incidence, byte counters) while keeping the link table,
        compiled routing, and grown buffers.  A reset simulator produces
        bit-identical results to a freshly constructed one with the same
        seed: the rng is rebuilt from the seed and the routing caches
        are deterministic.  This is what lets the phase driver reuse one
        simulator across thousands of collective phases.
        """
        self._rng = random.Random(seed)
        self._incidence = Incidence()
        self._link_refs[:] = 0
        self._meta.clear()
        self._free_slots.clear()
        self._slot_alive[:] = False
        self._remaining[:] = 0.0
        self._levels[:] = 0.0
        self._retired_alone = True
        self._spent[:] = 0.0
        self._alive_n = 0
        self._num_active = 0
        self._link_bytes[:] = 0.0
        self._elapsed = 0.0
        self.trace = sim_trace.SimTrace()

    def _admit(self, flow: Flow) -> int:
        """Resolve endpoints, hash a path, and register the flow's slot.

        Returns the flow's slot; the caller folds the whole admission
        cohort's links into ``_link_refs`` with one scatter-add.
        """
        src = self.placement.network_server(flow.src_server)
        dst = self.placement.network_server(flow.dst_server)
        if self._server_cap <= 0:
            raise AllocationError(
                f"link {('up', src)!r} has non-positive capacity"
            )
        links = [self._num_net + src]
        if dst != src:
            links.append(self._num_net + self._num_servers + dst)
        src_rack = self.network.switch_of_server(src)
        dst_rack = self.network.switch_of_server(dst)
        if src_rack != dst_rack:
            path, net_links = self._compiled.sample(src_rack, dst_rack, self._rng)
            links.extend(net_links)
        else:
            path = (src_rack,)
        link_ids = np.asarray(links, dtype=np.intp)
        entry = _ActiveFlow(
            flow=flow,
            links=link_ids,
            path=path,
            src_server=src,
            dst_server=dst,
        )
        if self._free_slots:
            slot = self._free_slots.pop()
            self._meta[slot] = entry
        else:
            slot = len(self._meta)
            self._meta.append(entry)
            self._grow_slots(slot + 1)
        self._slot_alive[slot] = True
        self._remaining[slot] = flow.size_bytes
        self._alive_ids[self._alive_n] = slot
        self._alive_n += 1
        self._incidence.append(slot, link_ids)
        self._num_active += 1
        return slot

    def _allocate(
        self,
        admitted: List[int],
        delta: Optional[np.ndarray],
        trace: sim_trace.SimTrace,
    ) -> np.ndarray:
        """Max-min levels (Gbps) per slot for this event's live flows.

        ``admitted`` holds the slots admitted at this event and ``delta``
        their links (None when nothing was admitted).  Max-min rates
        decompose over the connected components of the flow→link graph
        (Bertsekas & Gallager, *Data Networks* §6.5).  When every link of
        every admitted flow carries that flow alone and the flows retired
        at the previous event left all their links idle, no other live
        flow's component changed: each admitted flow runs at the smallest
        capacity on its links and every other flow keeps its level.  Any
        other event solves all live flows afresh with :func:`fill_levels`.
        """
        nslots = len(self._meta)
        levels = self._levels[:nslots]
        if self._retired_alone and (
            delta is None or bool((self._link_refs[delta] == 1).all())
        ):
            for slot in admitted:
                levels[slot] = self._caps[self._meta[slot].links].min()
            return levels
        inc = self._incidence
        solved, iterations = fill_levels(
            inc.ent, inc.lnk, inc.val, self._caps, self._slot_alive[:nslots],
            links=np.flatnonzero(self._link_refs > 0),
            scratch=self._fill_scratch,
        )
        levels[:] = solved
        self._retired_alone = True
        trace.count("alloc_solves")
        trace.count("allocator_iterations", iterations)
        return levels

    # ------------------------------------------------------------------

    def run(self, flows: Sequence[Flow]) -> FctResults:
        """Simulate the workload to completion and return all FCTs."""
        # Resolved here, not at module level: repro.harness's package
        # init imports repro.sim, so a top-level import would cycle.
        from repro.harness.clock import perf

        arrivals = sorted(flows, key=lambda f: f.start_time)
        results = FctResults()
        now = 0.0
        next_arrival = 0
        inc = self._incidence
        run_trace = sim_trace.SimTrace()
        run_started = perf()

        while self._num_active or next_arrival < len(arrivals):
            # Admit every flow starting exactly now (zero-width batch);
            # the cohort lands on ``_link_refs`` as one scatter-add.
            cohort: List[int] = []
            while (
                next_arrival < len(arrivals)
                and arrivals[next_arrival].start_time <= now + 1e-15
            ):
                cohort.append(self._admit(arrivals[next_arrival]))
                run_trace.count("flows_admitted")
                next_arrival += 1
            delta = None
            if cohort:
                delta = (
                    self._meta[cohort[0]].links
                    if len(cohort) == 1
                    else np.concatenate([self._meta[s].links for s in cohort])
                )
                np.add.at(self._link_refs, delta, 1)
                run_trace.count("admit_cohorts")
                run_trace.count(sim_trace.cohort_bucket("admit", len(cohort)))

            if not self._num_active:
                now = arrivals[next_arrival].start_time
                continue

            nslots = len(self._meta)
            alive = self._alive_ids[: self._alive_n]

            allocate_started = perf()
            levels = self._allocate(cohort, delta, run_trace)
            run_trace.add_time("allocate", perf() - allocate_started)
            run_trace.count("events")
            rates_bps = levels[alive]
            rates_bps *= 1e9  # fresh array from the fancy index above

            # Earliest completion under current rates, in seconds.
            times = self._remaining[alive] * 8.0 / rates_bps
            finish_dt = float(times.min())
            arrival_dt = (
                arrivals[next_arrival].start_time - now
                if next_arrival < len(arrivals)
                else np.inf
            )
            dt = min(finish_dt, arrival_dt)
            if dt < 0:
                raise RuntimeError("simulation time went backwards")

            # Drain bytes at the constant rates over dt.  The unmasked
            # scatter-add is bitwise equal to the old ``> 0``-masked
            # one: a zero-drain entry adds +0.0, the float identity.
            drained = rates_bps / 8.0 * dt
            now += dt
            self._remaining[alive] -= drained

            spent = self._spent
            spent[alive] = drained
            entry_spent = spent[inc.ent]
            np.add.at(self._link_bytes, inc.lnk, entry_spent)

            # Retire completions only when this event *is* the earliest
            # completion (an arrival may preempt it); the tolerance
            # replaces the old exact ``dt == finish_dt`` float equality.
            if finish_dt - dt <= finish_dt * _COMPLETION_RTOL:
                done_mask = self._remaining[alive] <= _RESIDUAL_BYTES
                done = alive[done_mask]
                # One FlowRecord per completion: object construction
                # cannot vectorize.
                for slot in done:
                    entry = self._meta[slot]
                    latency = self.hop_latency_s * len(entry.links)
                    results.add(
                        FlowRecord(
                            src_server=entry.src_server,
                            dst_server=entry.dst_server,
                            size_bytes=entry.flow.size_bytes,
                            start_time=entry.flow.start_time,
                            finish_time=now + latency,
                            path=entry.path,
                        )
                    )
                    self._slot_alive[slot] = False
                if done.size:
                    # The completion cohort leaves ``_link_refs`` as one
                    # scatter-subtract and the incidence as one compact.
                    retired = (
                        self._meta[int(done[0])].links
                        if done.size == 1
                        else np.concatenate(
                            [self._meta[int(s)].links for s in done]
                        )
                    )
                    np.subtract.at(self._link_refs, retired, 1)
                    self._retired_alone = not self._link_refs[retired].any()
                    kept = alive[~done_mask]
                    self._alive_ids[: len(kept)] = kept
                    self._alive_n = len(kept)
                    self._num_active -= int(done.size)
                    run_trace.count("flows_completed", int(done.size))
                    run_trace.count("retire_cohorts")
                    run_trace.count(sim_trace.cohort_bucket("retire", int(done.size)))
                    inc.compact(self._slot_alive[:nslots])
                    self._free_slots.extend(done.tolist())

        self._elapsed = now
        run_trace.add_time("run", sim_trace.perf_now() - run_started)
        if now > 0.0:
            run_trace.snapshot_utilization("flowsim", self.link_utilization())
        self.trace = run_trace
        collector = sim_trace.current()
        if collector is not None:
            collector.merge(run_trace)
        return results

    # ------------------------------------------------------------------
    # Post-run analysis
    # ------------------------------------------------------------------

    def _key_of(self, link_id: int) -> Tuple[object, ...]:
        if link_id < self._num_net:
            return ("net",) + self._table.pairs[link_id]
        if link_id < self._num_net + self._num_servers:
            return ("up", link_id - self._num_net)
        return ("down", link_id - self._num_net - self._num_servers)

    def link_utilization(self) -> Dict[object, float]:
        """Average utilization per link over the run, keyed by link key.

        Keys are ``("net", u, v)`` for directed network links and
        ``("up"/"down", server)`` for host links; only links that carried
        traffic appear.  Must be called after :meth:`run`.
        """
        if self._elapsed <= 0.0:
            raise RuntimeError("run() has not completed yet")
        report: Dict[object, float] = {}
        for link_id in np.flatnonzero(self._link_bytes > 0.0):
            capacity_bps = self._caps[link_id] * 1e9 / 8.0
            report[self._key_of(int(link_id))] = self._link_bytes[link_id] / (
                capacity_bps * self._elapsed
            )
        return report

    def hottest_links(self, count: int = 5) -> List[Tuple[object, float]]:
        """The ``count`` most utilized links, hottest first.

        Utilization ties break on the link key, so reports are stable
        across runs and platforms.
        """
        utilization = self.link_utilization()
        ranked = sorted(utilization.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:count]


def simulate_fct(
    network: Network,
    routing: RoutingScheme,
    placement: Placement,
    flows: Sequence[Flow],
    seed: int = 0,
) -> FctResults:
    """Convenience wrapper: build the simulator and run one workload."""
    return FlowSimulator(network, routing, placement, seed=seed).run(flows)
