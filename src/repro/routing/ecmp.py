"""Plain shortest-path ECMP routing (Section 4's first scheme).

This is what a standard BGP/OSPF fabric with equal-cost multipath gives
an operator out of the box: traffic between two racks uses every shortest
path, splitting per hop over minimum-distance next hops.  On a flat
network ECMP underuses path diversity between nearby racks — directly
connected racks have exactly one shortest path — which is the failure
mode Shortest-Union(K) repairs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import networkx as nx

from repro.core.network import Network
from repro.routing import dag
from repro.routing.base import EdgeFractions, Path, RoutingError, RoutingScheme


class EcmpRouting(RoutingScheme):
    """Per-hop equal-cost multipath over shortest paths."""

    name = "ecmp"

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        # Distance *to* each destination from every switch.  BFS from the
        # destination suffices because links are symmetric.
        self._dist_to: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------

    def _distances_to(self, dst: int) -> Dict[int, int]:
        if dst not in self._dist_to:
            self._dist_to[dst] = nx.single_source_shortest_path_length(
                self.network.graph, dst
            )
        return self._dist_to[dst]

    def next_hops(self, node: int, dst: int) -> List[Tuple[int, float]]:
        """Minimum-distance next hops at ``node`` toward ``dst``.

        Weights are capacity-effective multiplicities (parallel links
        scaled by any gray-failure capacity override), matching how
        WCMP-style hashing shifts traffic away from degraded trunks.
        """
        dist = self._distances_to(dst)
        here = dist.get(node)
        if here is None:
            raise RoutingError(f"switch {node} cannot reach {dst}")
        hops = []
        for nbr in self.network.graph.neighbors(node):
            if dist.get(nbr, here) == here - 1:
                hops.append((nbr, self.network.effective_link_mult(node, nbr)))
        return hops

    # ------------------------------------------------------------------

    def _compute_paths(self, src: int, dst: int) -> List[Path]:
        return [
            tuple(path)
            for path in nx.all_shortest_paths(self.network.graph, src, dst)
        ]

    def _compute_edge_fractions(self, src: int, dst: int) -> EdgeFractions:
        return dict(
            dag.fractions(lambda node: self.next_hops(node, dst), src, dst)
        )
