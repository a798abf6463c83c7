"""Engine-vs-legacy parity: the compiled stack must change nothing.

The array-backed engine (:mod:`repro.sim.engine`) replaces per-event
Python rebuilds with persistent integer-indexed structures, but the
contract of the refactor is *bit-for-bit* equivalence: same RNG draws,
same float summation order, same results.  These tests pin that contract
against the verbatim seed implementations kept in
:mod:`tests.sim.legacy_reference` — across all six routing schemes,
seeded random topologies, fault-degraded networks, and the fig4/fig5
experiment cells.

Equality with an older copy shows "same as before", not "right", so
every allocator solve these tests run is also certified max-min fair
on its own (:func:`~tests.sim.certificate.assert_max_min_fair`, applied
to every ``tests/sim`` solve by ``tests/sim/conftest.py``).
"""

from __future__ import annotations

import pytest

from repro.core.units import transfer_seconds
from repro.experiments import SMALL, run_fig4_cell, run_fig5_cell
from repro.experiments.fig4_fct import _pattern_flows, fig4_patterns
from repro.experiments.runner import build_scheme
from repro.faults import FaultSpec, apply_fault_set, sample_fault_set
from repro.routing import (
    CoarseAdaptiveRouting,
    EcmpRouting,
    KShortestPathsRouting,
    ShortestUnionRouting,
    VlbRouting,
)
from repro.sim import FlowSimulator, commodity_throughput, simulate_fct
from repro.sim.results import fct_table
from repro.sim.throughput import cs_throughput, place_cs_concrete
from repro.sim.warmfill import WarmFill
from repro.topology import dring, jellyfish, leaf_spine, xpander
from repro.traffic import (
    CanonicalCluster,
    Placement,
    fb_skewed,
    generate_flows,
    uniform,
)

from tests.sim.certificate import assert_max_min_fair
from tests.sim.legacy_reference import (
    LegacyFlowSimulator,
    legacy_commodity_throughput,
    legacy_simulate_fct,
)

#: Scheme factories, one per routing implementation the engine compiles.
SCHEMES = {
    "ecmp": EcmpRouting,
    "su2": lambda net: ShortestUnionRouting(net, 2),
    "su3": lambda net: ShortestUnionRouting(net, 3),
    "ksp": KShortestPathsRouting,
    "vlb": VlbRouting,
    "adaptive": CoarseAdaptiveRouting,
}


def assert_identical_results(engine, legacy):
    """Exact (not approximate) equality of two FctResults."""
    assert engine.num_flows == legacy.num_flows
    for got, want in zip(engine.records, legacy.records):
        assert got.src_server == want.src_server
        assert got.dst_server == want.dst_server
        assert got.size_bytes == want.size_bytes
        assert got.start_time == want.start_time
        assert got.finish_time == want.finish_time
        assert got.path == want.path


def run_both(network, scheme_name, flows, seed=0):
    routing_a = SCHEMES[scheme_name](network)
    routing_b = SCHEMES[scheme_name](network)
    cluster = CanonicalCluster(
        network.num_racks, min(network.servers_at(r) for r in network.racks)
    )
    placement = Placement(cluster, network)
    engine = simulate_fct(network, routing_a, placement, flows, seed=seed)
    legacy = legacy_simulate_fct(network, routing_b, placement, flows, seed=seed)
    return engine, legacy


def workload(network, num_flows=250, seed=3):
    cluster = CanonicalCluster(
        network.num_racks, min(network.servers_at(r) for r in network.racks)
    )
    return cluster, generate_flows(
        uniform(cluster), num_flows, 0.01, seed=seed, size_cap=5e6
    )


class TestFctParity:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_dring_all_schemes(self, small_dring, scheme):
        _cluster, flows = workload(small_dring)
        engine, legacy = run_both(small_dring, scheme, flows)
        assert_identical_results(engine, legacy)

    @pytest.mark.parametrize("scheme", ["ecmp", "su2", "ksp", "vlb"])
    def test_leafspine_schemes(self, small_leafspine, scheme):
        _cluster, flows = workload(small_leafspine)
        engine, legacy = run_both(small_leafspine, scheme, flows)
        assert_identical_results(engine, legacy)

    @pytest.mark.parametrize("topo_seed", [1, 2, 11])
    @pytest.mark.parametrize("scheme", ["ecmp", "su2", "adaptive"])
    def test_seeded_random_topologies(self, topo_seed, scheme):
        net = jellyfish(10, 4, servers_per_switch=3, seed=topo_seed)
        _cluster, flows = workload(net, num_flows=200, seed=topo_seed)
        engine, legacy = run_both(net, scheme, flows, seed=topo_seed)
        assert_identical_results(engine, legacy)

    def test_xpander(self):
        net = xpander(4, 3, servers_per_rack=3, seed=7)
        _cluster, flows = workload(net, num_flows=200)
        engine, legacy = run_both(net, "su2", flows)
        assert_identical_results(engine, legacy)

    @pytest.mark.parametrize(
        "kind,fraction", [("link", 0.1), ("gray", 0.2), ("correlated", 0.1)]
    )
    def test_degraded_networks(self, kind, fraction):
        base = dring(6, 2, servers_per_rack=4)
        fault_set = sample_fault_set(
            base, FaultSpec(kind=kind, fraction=fraction), seed=5
        )
        net = apply_fault_set(base, fault_set)
        _cluster, flows = workload(net, num_flows=200)
        engine, legacy = run_both(net, "su2", flows)
        assert_identical_results(engine, legacy)

    def test_skewed_pattern_and_nonzero_seed(self, small_dring):
        cluster = CanonicalCluster(small_dring.num_racks, 4)
        flows = generate_flows(
            fb_skewed(cluster, seed=9), 250, 0.01, seed=9, size_cap=5e6
        )
        engine, legacy = run_both(small_dring, "su3", flows, seed=9)
        assert_identical_results(engine, legacy)

    def test_hop_latency_parity(self, small_dring):
        cluster = CanonicalCluster(small_dring.num_racks, 4)
        placement = Placement(cluster, small_dring)
        _cluster, flows = workload(small_dring, num_flows=100)
        engine = FlowSimulator(
            small_dring, EcmpRouting(small_dring), placement,
            hop_latency_s=10e-6,
        ).run(flows)
        legacy = LegacyFlowSimulator(
            small_dring, EcmpRouting(small_dring), placement,
            hop_latency_s=10e-6,
        ).run(flows)
        assert_identical_results(engine, legacy)

    def test_utilization_parity(self, small_dring):
        cluster = CanonicalCluster(small_dring.num_racks, 4)
        placement = Placement(cluster, small_dring)
        _cluster, flows = workload(small_dring, num_flows=150)
        engine = FlowSimulator(small_dring, EcmpRouting(small_dring), placement)
        legacy = LegacyFlowSimulator(
            small_dring, EcmpRouting(small_dring), placement
        )
        engine.run(flows)
        legacy.run(flows)
        assert engine.link_utilization() == legacy.link_utilization()

    def test_single_flow_line_rate(self, small_dring):
        cluster = CanonicalCluster(small_dring.num_racks, 4)
        placement = Placement(cluster, small_dring)
        from repro.traffic import Flow

        flows = [Flow(0, 23, 1e6, 0.0)]
        engine, legacy = run_both(small_dring, "ecmp", flows)
        assert_identical_results(engine, legacy)
        expected = transfer_seconds(1e6, small_dring.server_link_capacity)
        assert engine.records[0].fct_seconds == pytest.approx(expected)


class TestMaxMinCertificate:
    def test_rejects_perturbed_allocations(self, small_dring, monkeypatch):
        """Moving one flow's level by 1% either way fails the certificate."""
        solves = []
        certified = WarmFill.solve

        def capture(self, ent, lnk, val, active, link_refs, scratch):
            levels, iterations = certified(
                self, ent, lnk, val, active, link_refs, scratch
            )
            solves.append(
                (ent.copy(), lnk.copy(), val.copy(), self.caps,
                 active.copy(), levels.copy())
            )
            return levels, iterations

        monkeypatch.setattr(WarmFill, "solve", capture)
        cluster, flows = workload(small_dring, num_flows=100)
        simulate_fct(
            small_dring, EcmpRouting(small_dring),
            Placement(cluster, small_dring), flows,
        )
        assert len(solves) > 100
        for ent, lnk, val, caps, active, levels in solves:
            flow = ent[active[ent]][0]
            for factor, failure in [
                (0.99, "no bottleneck link"), (1.01, "past capacity")
            ]:
                perturbed = levels.copy()
                perturbed[flow] *= factor
                with pytest.raises(AssertionError, match=failure):
                    assert_max_min_fair(
                        ent, lnk, val, caps, active, perturbed
                    )


class TestThroughputParity:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_uniform_demands(self, small_dring, scheme):
        demands = {
            (r1, r2): 4.0
            for r1 in small_dring.racks
            for r2 in small_dring.racks
            if r1 != r2
        }
        engine = commodity_throughput(
            small_dring, SCHEMES[scheme](small_dring), demands
        )
        legacy = legacy_commodity_throughput(
            small_dring, SCHEMES[scheme](small_dring), demands
        )
        assert engine.num_flows == legacy.num_flows
        assert engine.total_gbps == pytest.approx(
            legacy.total_gbps, rel=1e-9, abs=1e-9
        )
        for pair, gbps in legacy.per_commodity_gbps.items():
            assert engine.per_commodity_gbps[pair] == pytest.approx(
                gbps, rel=1e-9, abs=1e-9
            )

    def test_cs_instance(self, small_dring):
        placement = place_cs_concrete(small_dring, 8, 12, seed=2)
        demands = {}
        for c_rack, clients in placement.clients_per_rack.items():
            for s_rack, servers in placement.servers_per_rack.items():
                if c_rack != s_rack:
                    demands[(c_rack, s_rack)] = float(clients * servers)
        caps_src = {
            rack: count * small_dring.server_link_capacity
            for rack, count in placement.clients_per_rack.items()
        }
        caps_dst = {
            rack: count * small_dring.server_link_capacity
            for rack, count in placement.servers_per_rack.items()
        }
        engine = commodity_throughput(
            small_dring, ShortestUnionRouting(small_dring, 2), demands,
            src_host_capacity=caps_src, dst_host_capacity=caps_dst,
        )
        legacy = legacy_commodity_throughput(
            small_dring, ShortestUnionRouting(small_dring, 2), demands,
            src_host_capacity=caps_src, dst_host_capacity=caps_dst,
        )
        assert engine.per_commodity_gbps == legacy.per_commodity_gbps


class TestExperimentCells:
    """The acceptance bar: fig4/fig5 smoke cells byte-identical."""

    def test_fig4_cell_table_byte_identical(self):
        pattern, scheme = "A2A", "DRing (su2)"
        engine = run_fig4_cell(SMALL, pattern, scheme, seed=0)

        spec = {p.label: p for p in fig4_patterns(SMALL, seed=0)}[pattern]
        tut = build_scheme(scheme, SMALL, seed=0)
        flows = _pattern_flows(SMALL, spec, 0, 0.30)
        placement = tut.placement(shuffle=spec.random_placement, seed=0)
        legacy = legacy_simulate_fct(
            tut.network, tut.routing, placement, flows, seed=0
        )

        assert_identical_results(engine, legacy)
        rows_engine = {pattern: {scheme: engine}}
        rows_legacy = {pattern: {scheme: legacy}}
        assert fct_table(rows_engine, metric="median") == fct_table(
            rows_legacy, metric="median"
        )
        assert fct_table(rows_engine, metric="p99") == fct_table(
            rows_legacy, metric="p99"
        )

    def test_fig5_cell_byte_identical(self):
        cell = run_fig5_cell(SMALL, "su2", 24, 24, seed=0)

        dr = dring(
            SMALL.dring_m, SMALL.dring_n, total_servers=SMALL.dring_servers
        )
        ls = leaf_spine(SMALL.leaf_x, SMALL.leaf_y)
        assert cs_throughput(
            dr, ShortestUnionRouting(dr, 2), 24, 24, seed=0
        ).mean_flow_gbps == cell["dring_gbps"]

        def legacy_cs(network, routing, c, s):
            placed = place_cs_concrete(network, c, s, seed=0)
            demands = {
                (cr, sr): float(nc * ns)
                for cr, nc in placed.clients_per_rack.items()
                for sr, ns in placed.servers_per_rack.items()
                if cr != sr
            }
            return legacy_commodity_throughput(
                network, routing, demands,
                src_host_capacity={
                    r: n * network.server_link_capacity
                    for r, n in placed.clients_per_rack.items()
                },
                dst_host_capacity={
                    r: n * network.server_link_capacity
                    for r, n in placed.servers_per_rack.items()
                },
            )

        assert cell["dring_gbps"] == legacy_cs(
            dr, ShortestUnionRouting(dr, 2), 24, 24
        ).mean_flow_gbps
        assert cell["leafspine_gbps"] == legacy_cs(
            ls, EcmpRouting(ls), 24, 24
        ).mean_flow_gbps
