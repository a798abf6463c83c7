"""Unit tests for the array-backed engine's building blocks."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import LinkTable
from repro.harness.clock import fixed_clock
from repro.routing import EcmpRouting, RoutingError, RoutingScheme
from repro.sim.engine import trace as sim_trace
from repro.sim.engine import Incidence, SimTrace, collecting, compile_routing
from repro.topology import dring

from tests.sim.test_engine_parity import SCHEMES


class TestLinkTable:
    def test_ids_follow_directed_capacities_order(self, small_dring):
        table = small_dring.link_table()
        directed = small_dring.directed_capacities()
        assert table.pairs == tuple(directed)
        for index, ((u, v), capacity) in enumerate(directed.items()):
            assert table.id_of(u, v) == index
            assert table.capacity_of(index) == capacity
            assert table.pair_of(index) == (u, v)

    def test_capacities_are_read_only(self, small_dring):
        table = small_dring.link_table()
        with pytest.raises(ValueError):
            table.capacities[0] = 99.0

    def test_switch_indexing(self, small_dring):
        table = small_dring.link_table()
        assert table.switches == tuple(small_dring.switches)
        assert table.num_switches == len(small_dring.switches)
        for index, switch in enumerate(table.switches):
            assert table.switch_id(switch) == index
            assert table.has_switch(switch)
        assert not table.has_switch(10_000)

    def test_cables_match_trunk_multiplicities(self, small_dring):
        table = small_dring.link_table()
        cables = table.cables()
        assert len(cables) == sum(m for _u, _v, m in table.trunks)
        assert all(u <= v for u, v in cables)

    def test_normalized_trunks_sorted_unique(self, small_dring):
        trunks = small_dring.link_table().normalized_trunks()
        assert trunks == sorted(trunks)
        assert len(trunks) == len(set(trunks))

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            LinkTable(pairs=[(0, 1)], capacities=[], trunks=[], switches=[])


class TestLinkTableCaching:
    def test_cached_until_mutation(self, small_dring):
        first = small_dring.link_table()
        assert small_dring.link_table() is first
        assert first.version == small_dring.topology_version

    def test_remove_link_invalidates(self, small_dring):
        before = small_dring.link_table()
        u, v, _m = before.trunks[0]
        small_dring.remove_link(u, v)
        after = small_dring.link_table()
        assert after is not before
        assert after.version > before.version
        assert len(after) < len(before)

    def test_capacity_scale_invalidates(self, small_dring):
        before = small_dring.link_table()
        u, v, _m = before.trunks[0]
        small_dring.set_link_capacity_scale(u, v, 0.5)
        after = small_dring.link_table()
        assert after is not before
        assert after.capacity_of(after.id_of(u, v)) == pytest.approx(
            0.5 * before.capacity_of(before.id_of(u, v))
        )


class TestIncidence:
    def test_append_and_views(self):
        inc = Incidence()
        inc.append(0, [3, 5])
        inc.append(1, [5], value=2.0)
        assert inc.ent.tolist() == [0, 0, 1]
        assert inc.lnk.tolist() == [3, 5, 5]
        assert inc.val.tolist() == [1.0, 1.0, 2.0]

    def test_compact_preserves_order(self):
        inc = Incidence()
        inc.append(0, [1, 2])
        inc.append(1, [3])
        inc.append(2, [4, 5])
        keep = np.array([True, False, True])
        inc.compact(keep)
        assert inc.ent.tolist() == [0, 0, 2, 2]
        assert inc.lnk.tolist() == [1, 2, 4, 5]

    def test_growth_beyond_initial_capacity(self):
        inc = Incidence()
        for entity in range(700):
            inc.append(entity, [entity, entity + 1, entity + 2])
        assert len(inc.ent) == 2100
        assert inc.ent[-1] == 699
        assert inc.lnk[-1] == 701


class TestSimTrace:
    def test_count_and_merge(self):
        a, b = SimTrace(), SimTrace()
        a.count("events")
        a.count("events", 4)
        b.count("events", 2)
        b.add_time("allocate", 0.5)
        a.merge(b)
        assert a.counters == {"events": 7}
        assert a.timers == {"allocate": 0.5}

    def test_to_dict_omits_empty_sections(self):
        trace = SimTrace()
        assert trace.to_dict() == {}
        assert not trace
        trace.count("events")
        assert trace.to_dict() == {"counters": {"events": 1}}
        assert trace

    def test_phase_uses_injectable_clock(self):
        trace = SimTrace()
        with fixed_clock(step=2.0):
            with trace.phase("solve"):
                pass
        assert trace.timers["solve"] == pytest.approx(2.0)

    def test_snapshot_ranks_and_labels(self):
        trace = SimTrace()
        trace.snapshot_utilization(
            "run",
            {("net", 1, 2): 0.5, ("up", 3): 0.9, ("down", 4): 0.5},
            top=2,
        )
        snapshot = trace.snapshots[0]
        assert snapshot["label"] == "run"
        assert [h["link"] for h in snapshot["hottest"]] == ["up:3", "down:4"]

    def test_collector_install_and_restore(self):
        assert sim_trace.current() is None
        with collecting() as collector:
            assert sim_trace.current() is collector
            collector.count("events")
        assert sim_trace.current() is None

    def test_simulator_reports_into_collector(self, small_dring):
        from repro.sim import simulate_fct
        from repro.traffic import CanonicalCluster, Placement, Flow

        placement = Placement(
            CanonicalCluster(small_dring.num_racks, 4), small_dring
        )
        with collecting() as collector:
            simulate_fct(
                small_dring,
                EcmpRouting(small_dring),
                placement,
                [Flow(0, 23, 1e6, 0.0)],
            )
        assert collector.counters["flows_admitted"] == 1
        assert collector.counters["flows_completed"] == 1
        assert collector.counters["events"] >= 1
        assert "allocate" in collector.timers
        assert collector.snapshots


class TestCompileCaching:
    def test_compile_caches_per_table(self, small_dring):
        routing = EcmpRouting(small_dring)
        table = small_dring.link_table()
        compiled = routing.compile(table)
        assert routing.compile(table) is compiled
        assert routing.compile() is compiled  # same cached table

    @pytest.mark.parametrize("mutation", ["remove_link", "capacity_scale"])
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_scheme_refuses_a_mutated_topology(self, scheme, mutation):
        net = dring(6, 2, servers_per_rack=4)
        routing = SCHEMES[scheme](net)
        rng = random.Random(0)
        # Fill every cache a stale answer could come from.
        compiled = routing.compile()
        for dst in (2, 5):
            routing.sample_path(0, dst, rng)
            routing.paths(0, dst)
            routing.edge_fractions(0, dst)
        built = net.topology_version
        if mutation == "remove_link":
            net.remove_link(0, 2, count=net.link_mult(0, 2))
        else:
            net.set_link_capacity_scale(0, 2, 0.5)
        stale = (
            f"topology version {built} but the network is now at "
            f"version {net.topology_version}"
        )
        for query in (
            lambda: routing.sample_path(0, 2, rng),
            lambda: routing.paths(0, 5),
            lambda: routing.edge_fractions(0, 5),
            routing.compile,
            lambda: compiled.sample(0, 5, rng),
        ):
            with pytest.raises(RoutingError, match=stale):
                query()

    def test_compile_rejects_a_foreign_table(self, small_dring):
        other = dring(6, 2, servers_per_rack=4)
        with pytest.raises(RoutingError, match="its network's link table"):
            EcmpRouting(small_dring).compile(other.link_table())

    def test_unknown_scheme_class_has_no_sampler(self, small_dring):
        class Unknown(RoutingScheme):
            def _compute_paths(self, src, dst):
                return [(src, dst)]

            def _compute_edge_fractions(self, src, dst):
                return {(src, dst): 1.0}

        routing = Unknown(small_dring)
        with pytest.raises(TypeError, match="no compiled sampler for Unknown"):
            compile_routing(routing, small_dring.link_table())
        with pytest.raises(TypeError, match="no compiled sampler"):
            routing.sample_path(0, 5, random.Random(0))

    def test_compile_routing_produces_sampling_tables(self, small_dring):
        table = small_dring.link_table()
        compiled = compile_routing(EcmpRouting(small_dring), table)
        racks = small_dring.racks
        path, links = compiled.sample(racks[0], racks[5], random.Random(0))
        assert path[0] == racks[0] and path[-1] == racks[5]
        assert [table.pair_of(i) for i in links] == list(
            zip(path, path[1:])
        )
