"""Tests for the VRF graph construction and Theorem 1."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import VrfGraph, check_theorem1
from repro.topology import jellyfish


class TestConstruction:
    def test_node_count_is_k_times_switches(self, small_dring):
        vrf = VrfGraph(small_dring, 2)
        assert vrf.num_vrf_nodes() == 2 * small_dring.num_switches

    def test_edge_rules_present(self, small_dring):
        k = 3
        vrf = VrfGraph(small_dring, k)
        u, v = next(iter(small_dring.graph.edges))
        # Entry edges from the host level, costs 1..K.
        for level in range(1, k + 1):
            assert vrf.digraph.has_edge((k, u), (level, v))
            assert vrf.digraph[(k, u)][(level, v)]["cost"] == level
        # Climb edges.
        for level in range(1, k):
            assert vrf.digraph[(level, u)][(level + 1, v)]["cost"] == 1
        # Cruise at level 1.
        assert vrf.digraph[(1, u)][(1, v)]["cost"] == 1

    def test_k1_reduces_to_physical_graph(self, small_dring):
        vrf = VrfGraph(small_dring, 1)
        for u, v, _m in small_dring.undirected_links():
            assert vrf.digraph[(1, u)][(1, v)]["cost"] == 1
            assert vrf.digraph[(1, v)][(1, u)]["cost"] == 1

    def test_rejects_bad_k(self, small_dring):
        with pytest.raises(ValueError):
            VrfGraph(small_dring, 0)

    def test_host_node_is_level_k(self, small_dring):
        vrf = VrfGraph(small_dring, 2)
        assert vrf.host_node(3) == (2, 3)


class TestTheorem1:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_dring_distances(self, small_dring, k):
        assert check_theorem1(small_dring, k) == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rrg_distances(self, small_rrg, k):
        assert check_theorem1(small_rrg, k) == []

    def test_leafspine_distances(self, small_leafspine):
        assert check_theorem1(small_leafspine, 2) == []

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_random_graphs(self, seed):
        net = jellyfish(8, 3, servers_per_switch=2, seed=seed)
        assert check_theorem1(net, 2) == []

    def test_distance_equals_max_l_k(self, small_dring):
        k = 3
        vrf = VrfGraph(small_dring, k)
        physical = dict(nx.all_pairs_shortest_path_length(small_dring.graph))
        for src, dst in small_dring.rack_pairs():
            assert vrf.distance(src, dst) == max(physical[src][dst], k)


class TestNextHops:
    def test_next_hops_decrease_remaining_cost(self, small_dring):
        vrf = VrfGraph(small_dring, 2)
        dst = 7
        dist = vrf.distances_to(dst)
        for node in vrf.digraph.nodes:
            if node == vrf.host_node(dst) or node not in dist:
                continue
            for succ, _weight in vrf.next_hops(node, dst):
                cost = vrf.digraph[node][succ]["cost"]
                assert dist[succ] + cost == dist[node]

    def test_projection_drops_levels(self):
        assert VrfGraph.project([(2, 0), (1, 5), (2, 3)]) == (0, 5, 3)
