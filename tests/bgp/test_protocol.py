"""Tests for the BGP path-vector convergence engine."""

import pytest

from repro.bgp import (
    BgpFabric,
    VrfGraph,
    build_converged_fabric,
    check_bgp_matches_theorem1,
    check_path_set_equivalence,
    reconvergence_after_failure,
)
from repro.routing import shortest_union_paths
from repro.topology import dring


class TestConvergence:
    def test_converges_and_reports(self, small_dring):
        fabric = build_converged_fabric(small_dring, 2)
        report = fabric.report
        assert report.rounds >= 1
        assert report.updates_processed > 0
        assert report.destinations == small_dring.num_switches

    def test_rounds_bounded_by_diameter_plus_k(self, small_dring):
        # Information propagates one hop per round; with costs <= K the
        # fixpoint is reached within diameter + K + 1 rounds.
        import networkx as nx

        fabric = build_converged_fabric(small_dring, 2)
        assert fabric.report.rounds <= nx.diameter(small_dring.graph) + 3

    def test_metrics_match_theorem1(self, small_dring):
        fabric = build_converged_fabric(small_dring, 2)
        assert check_bgp_matches_theorem1(fabric) == []

    def test_metric_zero_for_self(self, small_dring):
        fabric = build_converged_fabric(small_dring, 2)
        assert fabric.metric(0, 0) == 0

    def test_unreachable_raises(self, small_dring):
        fabric = BgpFabric(VrfGraph(small_dring, 2))
        # Not converged: no routes yet.
        with pytest.raises(ValueError):
            fabric.metric(0, 5)


class TestForwardingPaths:
    def test_exactly_su2_on_dring(self, small_dring):
        fabric = build_converged_fabric(small_dring, 2)
        assert check_path_set_equivalence(fabric, exact=True) == []

    def test_exactly_su2_on_rrg(self, small_rrg):
        fabric = build_converged_fabric(small_rrg, 2)
        assert check_path_set_equivalence(fabric, exact=True) == []

    def test_exactly_su1_everywhere(self, small_rrg):
        fabric = build_converged_fabric(small_rrg, 1)
        assert check_path_set_equivalence(fabric, exact=True) == []

    def test_leafspine_su2_is_plain_ecmp(self, small_leafspine):
        fabric = build_converged_fabric(small_leafspine, 2)
        assert check_path_set_equivalence(fabric, exact=True) == []

    def test_k3_sound_under_approximation(self, small_rrg):
        # For K >= 3 the realized set is not exactly SU(K) (see
        # EXPERIMENTS.md) but must satisfy the walk/simple-path property.
        fabric = build_converged_fabric(small_rrg, 3)
        assert check_path_set_equivalence(fabric, exact=False) == []

    def test_forwarding_paths_deduplicated_sorted(self, small_dring):
        fabric = build_converged_fabric(small_dring, 2)
        paths = fabric.forwarding_paths(0, 2)
        assert paths == sorted(set(paths), key=lambda p: (len(p), p))

    def test_every_pair_routable(self, small_dring):
        fabric = build_converged_fabric(small_dring, 2)
        for src, dst in small_dring.rack_pairs():
            assert fabric.forwarding_paths(src, dst)


def _per_hop_mismatches(fabric):
    """(node, dst) pairs where BGP's next hops differ from the VRF DAG's.

    The per-hop sets fix the hash split, so the converged control plane
    and the data plane's ``next_hops`` must agree hop by hop, not just
    on whole path sets.  Nodes on the destination switch are skipped:
    AS-path loop prevention leaves them without a route, while the VRF
    graph gives ``(1, dst)`` a finite distance; no min-cost path passes
    through them.
    """
    vrf = fabric.vrf_graph
    mismatches = []
    for dst in fabric.network.racks:
        for node in vrf.digraph.nodes:
            if node[1] == dst:
                continue
            entry = fabric.rib(node, dst)
            control = set(entry.hop_nodes()) if entry is not None else set()
            try:
                data = {hop for hop, _weight in vrf.next_hops(node, dst)}
            except ValueError:
                data = set()
            if control != data:
                mismatches.append((node, dst))
    return mismatches


class TestPerHopAgreement:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "fixture",
        ["small_dring", "small_rrg", "small_leafspine", "small_xpander"],
    )
    def test_bgp_next_hops_equal_vrf_next_hops(self, request, fixture, k):
        network = request.getfixturevalue(fixture)
        assert _per_hop_mismatches(build_converged_fabric(network, k)) == []

    @pytest.mark.parametrize("k", [1, 2])
    def test_agreement_survives_link_failure_and_repair(self, k):
        fabric = build_converged_fabric(dring(8, 2, servers_per_rack=4), k)
        assert _per_hop_mismatches(fabric) == []
        fabric.fail_link(0, 2)
        assert _per_hop_mismatches(fabric) == []
        fabric.add_link(0, 2)
        assert _per_hop_mismatches(fabric) == []


class TestFailures:
    def test_reconvergence_after_single_failure(self, small_dring):
        u = 0
        v = next(iter(small_dring.graph.neighbors(0)))
        report = reconvergence_after_failure(small_dring, 2, (u, v))
        assert report.rounds >= 1

    def test_failed_fabric_still_routes_su2(self, small_dring):
        degraded = small_dring.copy()
        degraded.graph.remove_edge(0, 2)
        fabric = build_converged_fabric(degraded, 2)
        paths = fabric.forwarding_paths(0, 2)
        assert paths
        expected = set(shortest_union_paths(degraded, 0, 2, 2))
        assert set(paths) == expected

    def test_unknown_link_rejected(self, small_dring):
        with pytest.raises(ValueError):
            reconvergence_after_failure(small_dring, 2, (0, 999))
