"""Shortest-Union(K) routing (Section 4).

Between two racks R1 and R2 the scheme uses every path that is either a
shortest path or has length at most K.  Close rack pairs — which on a
flat network may have a *single* shortest path — gain extra paths, while
distant pairs keep using shortest paths only.  The paper recommends K=2
as the sweet spot between path diversity and path stretch.

The per-flow behaviour mirrors the BGP/VRF realization exactly: a flow
performs per-hop ECMP over the min-cost DAG of the
:class:`~repro.bgp.vrf.VrfGraph`, with router-level loops rejected the
way BGP's AS-path check rejects them.  For K ≤ 2 loops cannot arise, so
the DAG walk is used directly.  The walk is compiled, in
:mod:`repro.sim.engine.routing`.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import networkx as nx

from repro.core.network import Network
from repro.routing import dag
from repro.routing.base import EdgeFractions, Path, RoutingScheme
from repro.bgp.vrf import VrfGraph


def shortest_union_paths(
    network: Network, src: int, dst: int, k: int
) -> List[Path]:
    """Enumerate the Shortest-Union(K) path set (simple paths only).

    Returns all shortest paths plus all simple paths of length ≤ K,
    deduplicated, sorted by (length, hops) for determinism.
    """
    graph = network.graph
    paths: Set[Path] = {
        tuple(p) for p in nx.all_shortest_paths(graph, src, dst)
    }
    # min() is order-free; every member of the all-shortest set has
    # the same length anyway, but don't make correctness depend on it.
    shortest_len = min(len(p) for p in paths) - 1
    if shortest_len < k:
        for p in nx.all_simple_paths(graph, src, dst, cutoff=k):
            paths.add(tuple(p))
    return sorted(paths, key=lambda p: (len(p), p))


class ShortestUnionRouting(RoutingScheme):
    """Shortest-Union(K), realized through per-hop ECMP on the VRF graph."""

    def __init__(self, network: Network, k: int = 2) -> None:
        super().__init__(network)
        if k < 1:
            raise ValueError("K must be at least 1")
        self.k = k
        self.name = f"su({k})"
        self.vrf = VrfGraph(network, k)

    # ------------------------------------------------------------------

    def _compute_paths(self, src: int, dst: int) -> List[Path]:
        return shortest_union_paths(self.network, src, dst, self.k)

    def _compute_edge_fractions(self, src: int, dst: int) -> EdgeFractions:
        """Per-link fractions by propagation on the VRF DAG.

        Exact for K ≤ 2.  For K ≥ 3 the propagation ignores the (rare)
        probability mass BGP redirects away from looped walks, which is a
        documented approximation used only by the steady-state solver.
        """
        start = self.vrf.host_node(src)
        goal = self.vrf.host_node(dst)
        vrf_fractions = dag.fractions(
            lambda node: self.vrf.next_hops(node, dst), start, goal
        )
        physical: Dict[Tuple[int, int], float] = {}
        for ((_la, u), (_lb, v)), amount in vrf_fractions.items():
            if u == v:
                continue
            key = (u, v)
            physical[key] = physical.get(key, 0.0) + amount
        return physical

    # ------------------------------------------------------------------

    def disjoint_path_lower_bound(self, src: int, dst: int) -> int:
        """Count of pairwise edge-disjoint paths within the path set.

        Greedy (hence a lower bound); used to check the paper's claim
        that SU(2) yields at least n+1 disjoint paths on a DRing.
        """
        used: Set[Tuple[int, int]] = set()
        count = 0
        for path in self.paths(src, dst):
            edges = {
                (min(a, b), max(a, b))
                for a, b in zip(path, path[1:])
            }
            if edges & used:
                continue
            used |= edges
            count += 1
        return count
