"""VRF-graph shortest paths as computed before the array tables.

This is ``VrfGraph``'s distance and next-hop code exactly as it shipped
before the CSR tables replaced it: one networkx Dijkstra per destination
on the reversed digraph, cached per destination switch, and a Python
scan of ``digraph.successors`` per next-hop query.  It reads the same
digraph as the :class:`~repro.bgp.vrf.VrfGraph` it wraps, so the two
answer for the same topology.  ``test_vrf_tables.py`` asserts that the
array tables return the same distances and the same next-hop lists, in
order and weights.

Do not modernize this module; its value is that it does not change.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import networkx as nx

from repro.bgp.vrf import VrfGraph, VrfNode


class ReferenceVrfRouting:
    """Dijkstra distances and successor-scan next hops over a VRF graph."""

    def __init__(self, vrf: VrfGraph) -> None:
        self.vrf = vrf
        self.digraph = vrf.digraph
        # Cache: destination switch -> {vrf node -> distance to host node}.
        self._dist_cache: Dict[int, Dict[VrfNode, float]] = {}

    def distances_to(self, dst_switch: int) -> Dict[VrfNode, float]:
        """Min cost from every VRF node to the host node of ``dst_switch``.

        Computed by one Dijkstra on the reversed VRF graph and cached.
        """
        if dst_switch not in self._dist_cache:
            target = self.vrf.host_node(dst_switch)
            reversed_view = self.digraph.reverse(copy=False)
            self._dist_cache[dst_switch] = nx.single_source_dijkstra_path_length(
                reversed_view, target, weight="cost"
            )
        return self._dist_cache[dst_switch]

    def distance(self, src_switch: int, dst_switch: int) -> float:
        """Theorem 1 quantity: VRF-graph distance between host VRFs."""
        dist = self.distances_to(dst_switch)
        node = self.vrf.host_node(src_switch)
        if node not in dist:
            raise ValueError(f"{src_switch} cannot reach {dst_switch}")
        return dist[node]

    def next_hops(
        self, node: VrfNode, dst_switch: int
    ) -> List[Tuple[VrfNode, float]]:
        """Min-cost next hops (the ECMP set) at a VRF node toward a host.

        A successor qualifies when edge cost plus its remaining distance
        equals this node's remaining distance.
        """
        dist = self.distances_to(dst_switch)
        here = dist.get(node)
        if here is None:
            raise ValueError(f"{node} cannot reach switch {dst_switch}")
        hops: List[Tuple[VrfNode, float]] = []
        for succ in self.digraph.successors(node):
            data = self.digraph[node][succ]
            remaining = dist.get(succ)
            if remaining is not None and data["cost"] + remaining == here:
                hops.append((succ, data["mult"]))
        return hops
