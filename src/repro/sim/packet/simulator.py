"""The packet-level simulator tying links, TCP and routing together.

Every directed network link and every server up/down link becomes a
:class:`LinkQueue`.  Each flow is hashed onto one switch path at start
(per-flow ECMP, as hardware does), TCP self-clocks its packets through
the queues, and the flow-completion time is recorded when the final ACK
returns.  This is the faithful (and ~100x slower) counterpart of
:mod:`repro.sim.flowsim`; use it for validation runs and small studies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.network import Network
from repro.routing.base import RoutingScheme
from repro.sim.engine import trace as sim_trace
from repro.sim.packet.core import EventQueue, Packet
from repro.sim.packet.link import (
    DEFAULT_BUFFER_BYTES,
    DEFAULT_PROPAGATION_S,
    LinkQueue,
)
from repro.sim.packet.tcp import ACK_BYTES, TcpFlow, TcpParams
from repro.sim.results import FctResults, FlowRecord
from repro.traffic.flows import Flow
from repro.traffic.matrix import Placement


@dataclass
class _FlowContext:
    flow: Flow
    tcp: TcpFlow
    forward_path: Tuple[LinkQueue, ...]
    reverse_path: Tuple[LinkQueue, ...]
    switch_path: Tuple[int, ...]
    src_server: int
    dst_server: int
    started_at: float
    #: Time the last data packet was injected (flowlet gap detection).
    last_data_at: float = 0.0
    flowlets: int = 1


class PacketSimulator:
    """Packet-level simulation of one workload on one network."""

    def __init__(
        self,
        network: Network,
        routing: RoutingScheme,
        placement: Placement,
        seed: int = 0,
        tcp_params: TcpParams = TcpParams(),
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        propagation_s: float = DEFAULT_PROPAGATION_S,
        flowlet_gap_s: Optional[float] = None,
        ecn_threshold_bytes: Optional[int] = None,
    ) -> None:
        """``flowlet_gap_s`` enables flowlet switching (Kassing et al.,
        the Section 2 baseline): when a flow pauses for longer than the
        gap, its next burst is re-hashed onto a fresh path.  A gap well
        above the path delay keeps reordering rare, which is the
        mechanism's selling point.  ``None`` (default) pins one path per
        flow, as standard per-flow ECMP hashing does.

        ``ecn_threshold_bytes`` arms DCTCP-style CE marking on every
        queue; pair it with ``TcpParams(dctcp=True)`` for the full
        DCTCP loop (proportional back-off, near-empty queues)."""
        if routing.network is not network:
            raise ValueError("routing was built for a different network")
        if placement.network is not network:
            raise ValueError("placement targets a different network")
        self.network = network
        self.routing = routing
        self.placement = placement
        self.tcp_params = tcp_params
        self.flowlet_gap_s = flowlet_gap_s
        self._rng = random.Random(seed)
        self.events = EventQueue()
        self._buffer_bytes = buffer_bytes
        self._propagation_s = propagation_s
        self._ecn_threshold_bytes = ecn_threshold_bytes
        self._links: Dict[object, LinkQueue] = {}
        table = network.link_table()
        for (u, v), capacity in zip(table.pairs, table.capacities):
            self._add_link(("net", u, v), float(capacity))
        self._compiled = routing.compile(table)
        self._contexts: Dict[int, _FlowContext] = {}
        self.results = FctResults()

    # ------------------------------------------------------------------

    def _add_link(self, key: object, rate_gbps: float) -> LinkQueue:
        if key not in self._links:
            self._links[key] = LinkQueue(
                name=str(key),
                rate_gbps=rate_gbps,
                events=self.events,
                deliver=self._on_hop_done,
                buffer_bytes=self._buffer_bytes,
                propagation_s=self._propagation_s,
                ecn_threshold_bytes=self._ecn_threshold_bytes,
            )
        return self._links[key]

    def _server_link(self, direction: str, server: int) -> LinkQueue:
        return self._add_link(
            (direction, server), self.network.server_link_capacity
        )

    def link(self, key: object) -> LinkQueue:
        """Look up a link queue (for tests and utilization reports)."""
        return self._links[key]

    # ------------------------------------------------------------------
    # Flow setup
    # ------------------------------------------------------------------

    def _paths_for(
        self, src_server: int, dst_server: int
    ) -> Tuple[Tuple[LinkQueue, ...], Tuple[LinkQueue, ...], Tuple[int, ...]]:
        src_rack = self.network.switch_of_server(src_server)
        dst_rack = self.network.switch_of_server(dst_server)
        forward: List[LinkQueue] = [self._server_link("up", src_server)]
        reverse: List[LinkQueue] = [self._server_link("up", dst_server)]
        if src_rack != dst_rack:
            switch_path = self._compiled.sample(src_rack, dst_rack, self._rng)[0]
            for u, v in zip(switch_path, switch_path[1:]):
                forward.append(self._links[("net", u, v)])
            # ACKs take the reverse hash (their own path sample).
            ack_path = self._compiled.sample(dst_rack, src_rack, self._rng)[0]
            for u, v in zip(ack_path, ack_path[1:]):
                reverse.append(self._links[("net", u, v)])
        else:
            switch_path = (src_rack,)
        if dst_server != src_server:
            forward.append(self._server_link("down", dst_server))
            reverse.append(self._server_link("down", src_server))
        return tuple(forward), tuple(reverse), switch_path

    def _resample_forward(self, context: "_FlowContext") -> None:
        """Re-hash the flow's data path (flowlet boundary)."""
        src_rack = self.network.switch_of_server(context.src_server)
        dst_rack = self.network.switch_of_server(context.dst_server)
        if src_rack == dst_rack:
            return
        switch_path = self._compiled.sample(src_rack, dst_rack, self._rng)[0]
        forward: List[LinkQueue] = [
            self._server_link("up", context.src_server)
        ]
        for u, v in zip(switch_path, switch_path[1:]):
            forward.append(self._links[("net", u, v)])
        if context.dst_server != context.src_server:
            forward.append(self._server_link("down", context.dst_server))
        context.forward_path = tuple(forward)
        context.switch_path = switch_path
        context.flowlets += 1

    def _start_flow(self, flow_id: int, flow: Flow) -> None:
        src = self.placement.network_server(flow.src_server)
        dst = self.placement.network_server(flow.dst_server)
        forward, reverse, switch_path = self._paths_for(src, dst)

        def send_data(seq: int, size: int, retransmission: bool) -> None:
            context = self._contexts[flow_id]
            if (
                self.flowlet_gap_s is not None
                and self.events.now - context.last_data_at > self.flowlet_gap_s
            ):
                self._resample_forward(context)
            context.last_data_at = self.events.now
            packet = Packet(
                flow_id=flow_id,
                seq=seq,
                size_bytes=size,
                is_ack=False,
                path=context.forward_path,
                sent_at=self.events.now,
                retransmitted=retransmission,
            )
            self._inject(packet)

        def send_ack(cumulative: int, ece: bool = False) -> None:
            packet = Packet(
                flow_id=flow_id,
                seq=cumulative,
                size_bytes=ACK_BYTES,
                is_ack=True,
                path=reverse,
                ecn=ece,
            )
            self._inject(packet)

        def finished() -> None:
            context = self._contexts[flow_id]
            self.results.add(
                FlowRecord(
                    src_server=context.src_server,
                    dst_server=context.dst_server,
                    size_bytes=context.flow.size_bytes,
                    start_time=context.started_at,
                    finish_time=self.events.now,
                    path=context.switch_path,
                )
            )

        tcp = TcpFlow(
            flow_id=flow_id,
            size_bytes=flow.size_bytes,
            send_data=send_data,
            send_ack=send_ack,
            schedule=self.events.schedule,
            now=lambda: self.events.now,
            finished=finished,
            params=self.tcp_params,
        )
        self._contexts[flow_id] = _FlowContext(
            flow=flow,
            tcp=tcp,
            forward_path=forward,
            reverse_path=reverse,
            switch_path=switch_path,
            src_server=src,
            dst_server=dst,
            started_at=self.events.now,
        )
        tcp.start()

    # ------------------------------------------------------------------
    # Packet movement
    # ------------------------------------------------------------------

    def _inject(self, packet: Packet) -> None:
        # Tail drop at the first hop behaves like any other drop: the
        # packet simply vanishes and TCP recovers.
        packet.next_link().enqueue(packet)

    # Heap callback, once per packet hop.
    def _on_hop_done(self, packet: Packet) -> None:
        packet.hop += 1
        if not packet.at_destination():
            packet.next_link().enqueue(packet)
            return
        tcp = self._contexts[packet.flow_id].tcp
        if packet.is_ack:
            tcp.on_ack_arrival(packet.seq, ece=packet.ecn)
        else:
            tcp.on_data_arrival(packet.seq, ecn=packet.ecn)

    # ------------------------------------------------------------------

    def run(self, flows: Sequence[Flow], max_events: int = 50_000_000) -> FctResults:
        """Simulate the workload to completion and return all FCTs."""
        for flow_id, flow in enumerate(
            sorted(flows, key=lambda f: f.start_time)
        ):
            self.events.schedule_at(
                flow.start_time,
                lambda fid=flow_id, f=flow: self._start_flow(fid, f),
            )
        self.events.run(max_events=max_events)
        collector = sim_trace.current()
        if collector is not None:
            for bucket, tally in sorted(self.events.cohort_counts.items()):
                collector.count(bucket, tally)
        missing = len(flows) - self.results.num_flows
        if missing:
            raise RuntimeError(
                f"{missing} flows never completed; check TCP/RTO settings"
            )
        return self.results

    def total_drops(self) -> int:
        return sum(link.dropped_packets for link in self._links.values())

    def total_ecn_marks(self) -> int:
        return sum(link.marked_packets for link in self._links.values())

    def total_retransmissions(self) -> int:
        return sum(c.tcp.retransmission_count for c in self._contexts.values())

    def total_timeouts(self) -> int:
        return sum(c.tcp.timeout_count for c in self._contexts.values())


def simulate_fct_packet(
    network: Network,
    routing: RoutingScheme,
    placement: Placement,
    flows: Sequence[Flow],
    seed: int = 0,
) -> FctResults:
    """Convenience wrapper mirroring :func:`repro.sim.flowsim.simulate_fct`."""
    return PacketSimulator(network, routing, placement, seed=seed).run(flows)
