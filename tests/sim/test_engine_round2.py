"""Round-2 engine regressions: cohorts, warm starts, reset, counters.

The second engine round batches same-timestamp event cohorts and
replaces most cold allocator solves with warm-start replays
(:mod:`repro.sim.warmfill`).  Both are pure optimizations: this module
pins the warm/batched engine bitwise against the verbatim legacy
reference — with every warm solve also shadow-checked against a cold
solve, and under big synchronized arrival cohorts — and checks the new
observability surface (cohort histograms, warm-start counters) plus the
:meth:`FlowSimulator.reset` contract the phase driver relies on.
Parity across all six schemes and on fault-degraded networks lives in
``test_engine_parity.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing import EcmpRouting
from repro.sim import FlowSimulator, simulate_fct
from repro.sim import warmfill as warmfill_module
from repro.sim.engine import trace as sim_trace
from repro.sim.packet import PacketSimulator
from repro.traffic import CanonicalCluster, Flow, Placement, generate_flows, uniform

from tests.sim.legacy_reference import legacy_simulate_fct
from tests.sim.test_engine_parity import (
    SCHEMES,
    assert_identical_results,
    workload,
)


def placement_for(network):
    cluster = CanonicalCluster(
        network.num_racks, min(network.servers_at(r) for r in network.racks)
    )
    return Placement(cluster, network)


class TestWarmVsColdVsLegacy:
    """Warm-start engine == cold solves == legacy, bit for bit."""

    @pytest.mark.parametrize("scheme", ["ecmp", "su2", "vlb", "adaptive"])
    def test_shadow_validated_runs(self, small_dring, scheme, monkeypatch):
        """Every warm solve shadow-checked against a cold solve in situ."""
        monkeypatch.setattr(warmfill_module, "_VALIDATE_DEFAULT", True)
        _cluster, flows = workload(small_dring, num_flows=200)
        placement = placement_for(small_dring)
        validated = simulate_fct(
            small_dring, SCHEMES[scheme](small_dring), placement, flows
        )
        legacy = legacy_simulate_fct(
            small_dring, SCHEMES[scheme](small_dring), placement, flows
        )
        assert_identical_results(validated, legacy)

    def test_synchronized_arrivals(self, small_dring, monkeypatch):
        """Big same-timestamp admission cohorts stay bit-identical."""
        rng = np.random.default_rng(13)
        flows = []
        for wave in range(6):
            when = wave * 1e-4
            for _ in range(20):
                src, dst = rng.choice(24, size=2, replace=False)
                flows.append(Flow(int(src), int(dst), 4e5, when))
        placement = placement_for(small_dring)
        warm = simulate_fct(
            small_dring, EcmpRouting(small_dring), placement, flows
        )
        legacy = legacy_simulate_fct(
            small_dring, EcmpRouting(small_dring), placement, flows
        )
        assert_identical_results(warm, legacy)


class TestEngineCounters:
    """The round-2 observability surface: cohorts and warm-start rates."""

    def run_traced(self, small_dring, flows):
        placement = placement_for(small_dring)
        sim = FlowSimulator(
            small_dring, EcmpRouting(small_dring), placement, seed=0
        )
        sim.run(flows)
        return sim.trace.counters

    def test_cohort_histograms_consistent(self, small_dring):
        _cluster, flows = workload(small_dring, num_flows=200)
        counters = self.run_traced(small_dring, flows)
        admit_buckets = sum(
            count for name, count in counters.items()
            if name.startswith("cohort_admit_")
        )
        retire_buckets = sum(
            count for name, count in counters.items()
            if name.startswith("cohort_retire_")
        )
        assert counters["admit_cohorts"] > 0
        assert admit_buckets == counters["admit_cohorts"]
        assert retire_buckets == counters["retire_cohorts"]

    def test_synchronized_arrivals_fill_large_buckets(self, small_dring):
        flows = [
            Flow(src, 12 + (src % 12), 2e5, 0.0) for src in range(12)
        ]
        counters = self.run_traced(small_dring, flows)
        assert counters.get("cohort_admit_5_16", 0) >= 1

    def test_warm_start_counters(self, small_dring):
        _cluster, flows = workload(small_dring, num_flows=200)
        counters = self.run_traced(small_dring, flows)
        assert counters["alloc_solves"] > 0
        warm = counters.get("alloc_warm_solves", 0)
        cold = counters.get("alloc_cold_solves", 0)
        assert warm + cold == counters["alloc_solves"]
        assert warm > 0  # warm starts must actually engage on this size
        # Each warm solve adds the full link space to the denominator,
        # and re-solves strictly fewer links than the space it skipped.
        assert counters["alloc_link_space"] > 0
        assert counters["alloc_resolved_links"] < counters["alloc_link_space"]

    def test_counters_reach_ambient_collector(self, small_dring):
        _cluster, flows = workload(small_dring, num_flows=100)
        placement = placement_for(small_dring)
        with sim_trace.collecting() as collector:
            simulate_fct(
                small_dring, EcmpRouting(small_dring), placement, flows
            )
        assert collector.counters["admit_cohorts"] > 0
        assert collector.counters["alloc_solves"] > 0


class TestReset:
    """reset() must equal fresh construction — the phase driver reuses
    one simulator per phase through it."""

    def test_reset_rerun_bit_identical(self, small_dring):
        _cluster, flows = workload(small_dring, num_flows=150)
        placement = placement_for(small_dring)
        fresh = FlowSimulator(
            small_dring, EcmpRouting(small_dring), placement, seed=3
        ).run(flows)
        reused = FlowSimulator(
            small_dring, EcmpRouting(small_dring), placement, seed=0
        )
        reused.run(flows)
        reused.reset(seed=3)
        assert_identical_results(reused.run(flows), fresh)

    def test_reset_clears_utilization(self, small_dring):
        _cluster, flows = workload(small_dring, num_flows=80)
        placement = placement_for(small_dring)
        sim = FlowSimulator(
            small_dring, EcmpRouting(small_dring), placement, seed=1
        )
        sim.run(flows)
        first = sim.link_utilization()
        sim.reset(seed=1)
        sim.run(flows)
        assert sim.link_utilization() == first


class TestPacketCohorts:
    def test_event_queue_cohort_histogram(self, small_leafspine):
        cluster = CanonicalCluster(6, 4)
        placement = Placement(cluster, small_leafspine)
        sim = PacketSimulator(
            small_leafspine, EcmpRouting(small_leafspine), placement, seed=0
        )
        flows = [Flow(src, 23, 2e5, 0.0) for src in range(6)]
        with sim_trace.collecting() as collector:
            sim.run(flows)
        cohorts = {
            name: count for name, count in sim.events.cohort_counts.items()
        }
        assert sum(cohorts.values()) > 0
        for name, count in cohorts.items():
            assert name.startswith("cohort_event_")
            assert collector.counters[name] == count

    def test_cohorts_change_no_packet_results(self, small_leafspine):
        cluster = CanonicalCluster(6, 4)
        placement = Placement(cluster, small_leafspine)
        flows = generate_flows(
            uniform(cluster), 60, 0.005, seed=2, size_cap=3e5
        )
        first = PacketSimulator(
            small_leafspine, EcmpRouting(small_leafspine), placement, seed=4
        ).run(flows)
        second = PacketSimulator(
            small_leafspine, EcmpRouting(small_leafspine), placement, seed=4
        ).run(flows)
        assert_identical_results(first, second)
