"""A path-vector (eBGP) convergence engine over the VRF graph.

This is the executable stand-in for the paper's GNS3/Cisco-7200
prototype.  Every physical router is one AS; its VRFs share that AS.
Advertisements flow against the forwarding direction of each virtual
connection, with the sender prepending its AS ``cost`` times.  Each VRF
runs the standard decision process over a full adj-RIB-in (shortest AS
path, loop rejection, multipath ties) and — like a real BGP speaker —
re-advertises a single deterministic representative of its best set, or
a WITHDRAW when it has no route left.

The engine converges in synchronous rounds (all UPDATEs of a round are
exchanged simultaneously).  :meth:`BgpFabric.fail_link` implements the
paper's Section 7 question natively: it tears the sessions of one
physical link, injects the withdrawals, and reconverges *incrementally*,
reporting how many rounds and messages the fabric needed to repair
itself — typically a tiny fraction of a cold start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bgp.router import Advertisement, RibEntry, RouterVrf
from repro.bgp.vrf import VrfGraph, VrfNode
from repro.core.network import Network


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of running the control plane to a fixpoint."""

    rounds: int
    updates_processed: int
    destinations: int
    withdrawals_processed: int = 0


class BgpFabric:
    """The whole fabric's BGP control plane over a :class:`VrfGraph`."""

    def __init__(self, vrf_graph: VrfGraph) -> None:
        self.vrf_graph = vrf_graph
        self.network: Network = vrf_graph.network
        self.vrfs: Dict[VrfNode, RouterVrf] = {
            node: RouterVrf(node, local_as=node[1])
            for node in vrf_graph.digraph.nodes
        }
        # Host-level VRFs originate their rack prefix.
        for switch in self.network.graph.nodes:
            host = vrf_graph.host_node(switch)
            self.vrfs[host].origin_switch = switch
        self._report: Optional[ConvergenceReport] = None

    # ------------------------------------------------------------------
    # Round propagation (shared by cold start and failure reconvergence)
    # ------------------------------------------------------------------

    def _run_rounds(
        self,
        pending: Set[Tuple[VrfNode, int]],
        max_rounds: int,
    ) -> Tuple[int, int, int]:
        """Exchange UPDATE/WITHDRAW rounds until no best route changes.

        ``pending`` holds (vrf node, prefix) pairs whose selected route
        changed and must be re-announced to all predecessors.  Returns
        (rounds, updates, withdrawals) processed.
        """
        digraph = self.vrf_graph.digraph
        rounds = 0
        updates = 0
        withdrawals = 0
        while pending and rounds < max_rounds:
            rounds += 1
            changed: Set[Tuple[VrfNode, int]] = set()
            for sender_node, dst in sorted(pending):
                sender = self.vrfs[sender_node]
                for receiver_node in digraph.predecessors(sender_node):
                    cost = digraph[receiver_node][sender_node]["cost"]
                    receiver = self.vrfs[receiver_node]
                    as_path = sender.advertise(dst, prepend=cost)
                    if as_path is None:
                        withdrawals += 1
                        if receiver.withdraw(dst, sender_node):
                            changed.add((receiver_node, dst))
                    else:
                        updates += 1
                        advertisement = Advertisement(dst, as_path, sender_node)
                        if receiver.consider(advertisement):
                            changed.add((receiver_node, dst))
            pending = changed
        if pending:
            raise RuntimeError(f"BGP did not converge within {max_rounds} rounds")
        return rounds, updates, withdrawals

    # ------------------------------------------------------------------
    # Cold-start convergence
    # ------------------------------------------------------------------

    def converge(
        self,
        destinations: Optional[Sequence[int]] = None,
        max_rounds: int = 10_000,
    ) -> ConvergenceReport:
        """Run synchronous UPDATE rounds from scratch until stable.

        ``destinations`` restricts the computed prefixes (useful for
        large fabrics); by default every rack prefix is propagated.
        """
        if destinations is None:
            destinations = list(self.network.switches)
        pending: Set[Tuple[VrfNode, int]] = {
            (self.vrf_graph.host_node(dst), dst) for dst in destinations
        }
        rounds, updates, withdrawals = self._run_rounds(pending, max_rounds)
        self._report = ConvergenceReport(
            rounds=rounds,
            updates_processed=updates,
            destinations=len(destinations),
            withdrawals_processed=withdrawals,
        )
        return self._report

    @property
    def report(self) -> ConvergenceReport:
        if self._report is None:
            raise RuntimeError("call converge() first")
        return self._report

    # ------------------------------------------------------------------
    # Incremental failure handling
    # ------------------------------------------------------------------

    def fail_link(
        self, u: int, v: int, max_rounds: int = 10_000
    ) -> ConvergenceReport:
        """Fail the physical link (u, v) and reconverge incrementally.

        Tears down every virtual connection riding the link (both
        directions, all VRF rules), withdraws the routes learned over
        those sessions, and propagates the repair.  The report counts
        only the incremental work — the Section 7 "how quickly can
        routing converge to alternative paths" measurement.
        """
        if self._report is None:
            raise RuntimeError("converge() must run before failing links")
        dead_sessions = self.vrf_graph.remove_link(u, v)
        # Also remove the physical link from the network view so the
        # data plane and any re-derived VrfGraph agree.
        if self.network.graph.has_edge(u, v):
            self.network.remove_link(
                u, v, count=self.network.link_mult(u, v)
            )

        pending: Set[Tuple[VrfNode, int]] = set()
        for receiver_node, sender_node in dead_sessions:
            receiver = self.vrfs[receiver_node]
            for dst in list(receiver.adj_rib_in):
                if receiver.withdraw(dst, sender_node):
                    pending.add((receiver_node, dst))
        rounds, updates, withdrawals = self._run_rounds(pending, max_rounds)
        report = ConvergenceReport(
            rounds=rounds,
            updates_processed=updates,
            destinations=len({dst for _node, dst in pending}),
            withdrawals_processed=withdrawals,
        )
        self._report = report
        return report

    def add_link(
        self, u: int, v: int, mult: int = 1, max_rounds: int = 10_000
    ) -> ConvergenceReport:
        """Cable a new physical link (u, v) and converge incrementally.

        Creates the VRF-graph rules for the link, then performs the full
        table exchange that new eBGP sessions do: every VRF reachable
        over the new connections advertises its selected routes to the
        new receiver, and the improvements propagate.  This is the
        control-plane side of incremental expansion (Section 3.2).
        """
        if self._report is None:
            raise RuntimeError("converge() must run before adding links")
        if u == v:
            raise ValueError("cannot link a switch to itself")
        if self.network.graph.has_edge(u, v):
            raise ValueError(f"link ({u}, {v}) already exists")
        if u not in self.network.graph or v not in self.network.graph:
            raise ValueError("both endpoints must already be switches")
        self.network.add_link(u, v, count=mult)
        new_sessions = self.vrf_graph.add_link(u, v, float(mult))
        # Session establishment: the learnable side sends its full table.
        pending: Set[Tuple[VrfNode, int]] = set()
        for _receiver, sender_node in new_sessions:
            sender = self.vrfs[sender_node]
            for dst in sender.prefixes():
                pending.add((sender_node, dst))
        rounds, updates, withdrawals = self._run_rounds(pending, max_rounds)
        report = ConvergenceReport(
            rounds=rounds,
            updates_processed=updates,
            destinations=len({dst for _node, dst in pending}),
            withdrawals_processed=withdrawals,
        )
        self._report = report
        return report

    # ------------------------------------------------------------------
    # Data-plane extraction
    # ------------------------------------------------------------------

    def rib(self, node: VrfNode, dst_switch: int) -> Optional[RibEntry]:
        """The converged loc-RIB entry of a VRF for a rack prefix."""
        return self.vrfs[node].best(dst_switch)

    def metric(self, src_switch: int, dst_switch: int) -> int:
        """AS-path metric between two host VRFs.

        By Theorem 1 (and our tests) this equals ``max(L, K)`` on a
        connected fabric with K ≤ 2, and for larger K whenever a simple
        path of the right length exists.
        """
        if src_switch == dst_switch:
            return 0
        entry = self.rib(self.vrf_graph.host_node(src_switch), dst_switch)
        if entry is None:
            raise ValueError(f"no route from {src_switch} to {dst_switch}")
        return entry.metric

    def forwarding_paths(
        self, src_switch: int, dst_switch: int
    ) -> List[Tuple[int, ...]]:
        """All router-level paths the converged fabric can forward on.

        Depth-first enumeration over the per-destination next-hop DAG,
        projected to physical switches and deduplicated.
        """
        start = self.vrf_graph.host_node(src_switch)
        goal = self.vrf_graph.host_node(dst_switch)
        paths: Set[Tuple[int, ...]] = set()

        def visit(node: VrfNode, trail: List[VrfNode]) -> None:
            if node == goal:
                paths.add(VrfGraph.project(trail))
                return
            entry = self.rib(node, dst_switch)
            if entry is None:
                return
            for hop in entry.hop_nodes():
                visit(hop, trail + [hop])

        visit(start, [start])
        return sorted(paths, key=lambda p: (len(p), p))


def build_converged_fabric(network: Network, k: int) -> BgpFabric:
    """Construct the VRF graph, run BGP to convergence, return the fabric."""
    fabric = BgpFabric(VrfGraph(network, k))
    fabric.converge()
    return fabric


def reconvergence_after_failure(
    network: Network, k: int, failed_link: Tuple[int, int]
) -> ConvergenceReport:
    """Incremental reconvergence cost of one link failure.

    Converges a fresh fabric, fails the link, and returns the report of
    the *incremental* repair (Section 7's open question).  The input
    network is copied, not mutated.
    """
    u, v = failed_link
    if not network.graph.has_edge(u, v):
        raise ValueError(f"no link {failed_link} to fail")
    working = network.copy()
    fabric = BgpFabric(VrfGraph(working, k))
    fabric.converge()
    return fabric.fail_link(u, v)
