"""The VRF graph's array tables against the Dijkstra oracle and Theorem 1.

``VrfGraph`` answers distances and next hops from CSR edge arrays and one
relaxed distance vector per destination.  The simulator samples every
Shortest-Union flow from those next-hop lists, so they must equal the
pre-array code's (``vrf_reference.py``) in order and weights, on healthy
and degraded topologies and for every K.
"""

from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx
import pytest

from repro.bgp import VrfGraph, VrfNode, build_converged_fabric
from repro.core.network import Network
from repro.topology import dring, jellyfish, leaf_spine, xpander
from tests.bgp.vrf_reference import ReferenceVrfRouting


def _degraded(network: Network) -> Network:
    """Remove the first trunk and halve the capacity of the last one."""
    links = list(network.undirected_links())
    u, v, mult = links[0]
    network.remove_link(u, v, count=mult)
    u, v, _mult = links[-1]
    network.set_link_capacity_scale(u, v, 0.5)
    assert nx.is_connected(network.graph)
    return network


TOPOLOGIES: Dict[str, Callable[[], Network]] = {
    "dring-6-2": lambda: dring(6, 2, servers_per_rack=4),
    "dring-8-2": lambda: dring(8, 2, servers_per_rack=4),
    "rrg-16-4": lambda: jellyfish(16, 4, servers_per_switch=3, seed=7),
    "leaf-spine-12-4": lambda: leaf_spine(12, 4),
    "leaf-spine-4-2-x2": lambda: leaf_spine(4, 2, uplink_mult=2),
    "xpander-4-3": lambda: xpander(4, 3, servers_per_rack=3, seed=7),
    "dring-8-2-degraded": lambda: _degraded(dring(8, 2, servers_per_rack=4)),
    "rrg-16-4-degraded": lambda: _degraded(
        jellyfish(16, 4, servers_per_switch=3, seed=7)
    ),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_tables_match_dijkstra_reference(name, k):
    network = TOPOLOGIES[name]()
    vrf = VrfGraph(network, k)
    reference = ReferenceVrfRouting(vrf)
    for dst in network.racks:
        expected = reference.distances_to(dst)
        distances = vrf.distances_to(dst)
        assert distances == expected
        assert all(type(cost) is int for cost in distances.values())
        for node in vrf.digraph.nodes:
            if node in expected:
                # Same successors, same order, same weights: the hop draw
                # consumes the RNG exactly as before.
                assert vrf.next_hops(node, dst) == reference.next_hops(node, dst)
            else:
                with pytest.raises(ValueError):
                    vrf.next_hops(node, dst)
        for src in network.racks:
            assert vrf.distance(src, dst) == reference.distance(src, dst)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_theorem1_closed_forms(name):
    """Host level costs max(L, K); the lower levels follow the cost ladder.

    K = 2: level 1 costs L away from the destination and 2 on it (one
    climb to the host level).  K = 3: a level-2 node two hops away costs
    4 (climb to the host level, then enter at level 3), not 2.
    """
    network = TOPOLOGIES[name]()
    hops = dict(nx.all_pairs_shortest_path_length(network.graph))
    for k in (1, 2, 3):
        vrf = VrfGraph(network, k)
        for dst in network.racks:
            dist = vrf.distances_to(dst)
            for u in network.racks:
                length = hops[u][dst]
                assert dist[(k, u)] == (0 if u == dst else max(length, k))
                if k == 2:
                    assert dist[(1, u)] == (2 if u == dst else length)
                if k == 3 and length == 2:
                    assert dist[(2, u)] == 4


def _all_hops(
    vrf: VrfGraph, racks: List[int]
) -> Dict[Tuple[VrfNode, int], Optional[list]]:
    """Every (node, dst) next-hop set as a sorted list (None: no path)."""
    tables: Dict[Tuple[VrfNode, int], Optional[list]] = {}
    for dst in racks:
        for node in vrf.digraph.nodes:
            try:
                tables[(node, dst)] = sorted(vrf.next_hops(node, dst))
            except ValueError:
                tables[(node, dst)] = None
    return tables


def test_link_mutations_reset_the_tables():
    """fail_link / add_link leave no stale distance or CSR row behind."""
    fabric = build_converged_fabric(dring(8, 2, servers_per_rack=4), 2)
    vrf = fabric.vrf_graph
    racks = fabric.network.racks
    healthy = _all_hops(vrf, racks)
    fabric.fail_link(0, 2)
    failed = _all_hops(vrf, racks)
    assert failed == _all_hops(VrfGraph(fabric.network, 2), racks)
    assert failed != healthy
    fabric.add_link(0, 2)
    repaired = _all_hops(vrf, racks)
    assert repaired == _all_hops(VrfGraph(fabric.network, 2), racks)
    assert repaired == healthy
