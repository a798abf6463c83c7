"""Round-2 engine regressions: cohorts, slot reuse, reset, counters.

The second engine round batches same-timestamp event cohorts and reuses
retired flow slots.  Both are pure optimizations: this module pins the
batched engine against the verbatim legacy reference under big
synchronized arrival cohorts (finish times to 1e-9 of each FCT), checks
that the slot space stays as small as the most flows alive at once,
pins which retirements and admissions skip the max-min solve, and
checks the observability surface (cohort histograms, event counters)
plus the :meth:`FlowSimulator.reset` contract the phase driver relies
on.  Every event's allocation, solved or skipped, is certified max-min
fair by ``conftest.py``.  Parity across all six schemes and on
fault-degraded networks lives in ``test_engine_parity.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing import EcmpRouting
from repro.sim import FlowSimulator, simulate_fct
from repro.sim.engine import trace as sim_trace
from repro.sim.packet import PacketSimulator
from repro.topology import dring
from repro.traffic import CanonicalCluster, Flow, Placement, generate_flows, uniform

from tests.sim.legacy_reference import legacy_simulate_fct
from tests.sim.test_engine_parity import assert_identical_results, workload


def placement_for(network):
    cluster = CanonicalCluster(
        network.num_racks, min(network.servers_at(r) for r in network.racks)
    )
    return Placement(cluster, network)


class TestWarmVsColdVsLegacy:
    """Batched engine == legacy, finish times to 1e-9 of each FCT."""

    def test_synchronized_arrivals(self, small_dring):
        """Big same-timestamp admission cohorts give the legacy records."""
        rng = np.random.default_rng(13)
        flows = []
        for wave in range(6):
            when = wave * 1e-4
            for _ in range(20):
                src, dst = rng.choice(24, size=2, replace=False)
                flows.append(Flow(int(src), int(dst), 4e5, when))
        placement = placement_for(small_dring)
        engine = simulate_fct(
            small_dring, EcmpRouting(small_dring), placement, flows
        )
        legacy = legacy_simulate_fct(
            small_dring, EcmpRouting(small_dring), placement, flows
        )
        assert_identical_results(engine, legacy)


class TestSlotReuse:
    """Retired flow slots are reused, so per-slot arrays stay small."""

    def test_flows_apart_in_time_share_one_slot(self, small_dring):
        flows = [
            Flow(src, 23 - src, 1e5, float(src)) for src in range(12)
        ]
        placement = placement_for(small_dring)
        sim = FlowSimulator(
            small_dring, EcmpRouting(small_dring), placement, seed=0
        )
        results = sim.run(flows)
        assert results.num_flows == len(flows)
        assert len(sim._meta) == 1
        # Each flow is alone on its links, so no event solves.
        assert sim.trace.counters["events"] == 12
        assert "alloc_solves" not in sim.trace.counters
        legacy = legacy_simulate_fct(
            small_dring, EcmpRouting(small_dring), placement, flows
        )
        assert_identical_results(results, legacy)


class TestEngineCounters:
    """The round-2 observability surface: cohorts, events and solves."""

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

    def test_shared_uplink_solves(self, small_dring):
        """Two flows leaving server 0 share its uplink: one solve."""
        flows = [Flow(0, 5, 2e5, 0.0), Flow(0, 17, 2e5, 0.0)]
        counters = self.run_traced(small_dring, flows)
        assert counters["events"] == 1
        assert counters["alloc_solves"] == 1


    def test_counters_reach_ambient_collector(self, small_dring):
        _cluster, flows = workload(small_dring, num_flows=100)
        placement = placement_for(small_dring)
        with sim_trace.collecting() as collector:
            simulate_fct(
                small_dring, EcmpRouting(small_dring), placement, flows
            )
        assert collector.counters["admit_cohorts"] > 0
        assert collector.counters["events"] > 0


class TestSkipRules:
    """Which events skip the solve.  Servers 0-3 share rack 0, so a flow
    among them uses only its two 10 Gbps server links."""

    def run(self, network, flows):
        placement = placement_for(network)
        sim = FlowSimulator(network, EcmpRouting(network), placement, seed=0)
        results = sim.run(flows)
        fct = {
            (r.src_server, r.dst_server): r.fct_seconds
            for r in results.records
        }
        return sim.trace.counters, fct

    def test_retirement_off_every_bottleneck_skips(self, small_dring):
        """0->1, 0->2 and 3->2 run at 5 Gbps.  When 0->1 retires, 0->2
        keeps its bottleneck at server 2's downlink, so it stays at 5 Gbps
        and the event skips."""
        counters, fct = self.run(
            small_dring,
            [Flow(0, 1, 1e5, 0.0), Flow(0, 2, 1e6, 0.0), Flow(3, 2, 1e6, 0.0)],
        )
        assert (counters["events"], counters["alloc_solves"]) == (2, 1)
        assert fct[(0, 2)] == pytest.approx(1e6 * 8 / 5e9)

    def test_retirement_of_the_only_bottleneck_solves(self, small_dring):
        """Without 3->2 the retirement frees 0->2's only bottleneck: the
        event solves, and 0->2 rises to 10 Gbps."""
        counters, fct = self.run(
            small_dring, [Flow(0, 1, 1e5, 0.0), Flow(0, 2, 1e6, 0.0)]
        )
        assert (counters["events"], counters["alloc_solves"]) == (2, 2)
        assert fct[(0, 2)] == pytest.approx(1e5 * 8 / 5e9 + 9e5 * 8 / 10e9)

    def test_admission_onto_slack_skips(self, small_dring):
        """0->1 and 0->2 share server 0's uplink at 5 Gbps.  3->1 joins
        server 1's downlink, which has 5 Gbps to spare and carries no
        faster flow: it runs at 5 Gbps and its admission skips.  The
        event after 0->1 and 0->2 retire solves."""
        counters, fct = self.run(
            small_dring,
            [Flow(0, 1, 1e6, 0.0), Flow(0, 2, 1e6, 0.0), Flow(3, 1, 1e6, 1e-4)],
        )
        assert (counters["events"], counters["alloc_solves"]) == (3, 2)
        assert fct[(0, 1)] == pytest.approx(1e6 * 8 / 5e9)

    def test_admission_cohort_of_two_solves(self, small_dring):
        """3->1 and 4->2 arrive together, each onto a downlink with slack.
        The rule certifies one new flow at a time, so the event solves."""
        counters, fct = self.run(
            small_dring,
            [
                Flow(0, 1, 1e6, 0.0), Flow(0, 2, 1e6, 0.0),
                Flow(3, 1, 1e6, 1e-4), Flow(4, 2, 1e6, 1e-4),
            ],
        )
        assert (counters["events"], counters["alloc_solves"]) == (3, 3)
        assert fct[(4, 2)] == pytest.approx(fct[(3, 1)])

    def test_lone_flow_keeps_its_bottleneck_across_a_retirement(self):
        """0->40 runs alone over rack 0's link to rack 10, degraded to
        5 Gbps, which saturates at its level.  0->1 joins server 0's
        uplink, which has 5 Gbps to spare, and leaves again; 0->40 keeps
        its bottleneck throughout, so no event solves."""
        network = dring(6, 2, servers_per_rack=4)
        network.set_link_capacity_scale(0, 10, 0.5)
        counters, fct = self.run(
            network, [Flow(0, 40, 1e6, 0.0), Flow(0, 1, 1e5, 1e-4)]
        )
        assert counters["events"] == 3
        assert "alloc_solves" not in counters
        assert fct[(0, 40)] == pytest.approx(1e6 * 8 / 5e9)
        assert fct[(0, 1)] == pytest.approx(1e5 * 8 / 5e9)

    def test_admission_onto_saturated_link_solves(self, small_dring):
        """0->3 joins server 0's saturated uplink: its admission solves,
        and the three flows share the uplink."""
        counters, fct = self.run(
            small_dring,
            [Flow(0, 1, 1e6, 0.0), Flow(0, 2, 1e6, 0.0), Flow(0, 3, 1e6, 1e-4)],
        )
        assert (counters["events"], counters["alloc_solves"]) == (3, 3)
        assert fct[(0, 1)] == pytest.approx(
            1e-4 + (1e6 - 1e-4 * 5e9 / 8) * 8 / (10e9 / 3)
        )


class TestReset:
    """reset() must equal fresh construction — the phase driver reuses
    one simulator per phase through it."""

    def test_reset_rerun_bit_identical(self, small_dring):
        _cluster, flows = workload(small_dring, num_flows=150)
        placement = placement_for(small_dring)
        fresh = FlowSimulator(
            small_dring, EcmpRouting(small_dring), placement, seed=3
        )
        reused = FlowSimulator(
            small_dring, EcmpRouting(small_dring), placement, seed=0
        )
        reused.run(flows)
        reused.reset(seed=3)
        # Exact, and solve for solve: skip state a reset kept (levels,
        # saturation levels) would change which events solve.
        assert reused.run(flows).records == fresh.run(flows).records
        assert reused.trace.counters == fresh.trace.counters

    def test_reset_forgets_saturation_levels(self):
        """The first run ends with server 40's downlink saturated.  After
        a reset, 41->40 joins that downlink beside 0->40 (held to 5 Gbps
        by the degraded 0-10 link), which has capacity to spare: as on a
        fresh simulator, no event solves."""
        network = dring(6, 2, servers_per_rack=4)
        network.set_link_capacity_scale(0, 10, 0.5)
        sim = FlowSimulator(
            network, EcmpRouting(network), placement_for(network), seed=0
        )
        sim.run([Flow(41, 40, 1e5, 0.0), Flow(42, 40, 1e5, 0.0)])
        sim.reset()
        sim.run([Flow(0, 40, 1e6, 0.0), Flow(41, 40, 1e5, 1e-4)])
        assert sim.trace.counters["events"] == 3
        assert "alloc_solves" not in sim.trace.counters

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
