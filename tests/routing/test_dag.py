"""Tests for the next-hop DAG primitives: the compiled walk and propagation.

The per-flow walk is the compiled ECMP sampler
(:class:`repro.sim.engine.routing._CompiledEcmp`), run here on a
4-switch diamond s=0 -> a=1, b=2 -> t=3; ``fractions`` is
:mod:`repro.routing.dag`'s forward propagation on functional DAGs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import build_network
from repro.routing import EcmpRouting
from repro.routing.dag import DagError, fractions
from repro.sim.engine.routing import _CompiledEcmp


def diamond(node):
    """s -> a,b -> t diamond with equal weights."""
    table = {
        "s": [("a", 1.0), ("b", 1.0)],
        "a": [("t", 1.0)],
        "b": [("t", 1.0)],
        "t": [],
    }
    return table[node]


def weighted_diamond(node):
    table = {
        "s": [("a", 3.0), ("b", 1.0)],
        "a": [("t", 1.0)],
        "b": [("t", 1.0)],
        "t": [],
    }
    return table[node]


def compiled_diamond(heavy_branch=1):
    """Compiled ECMP on the diamond; ``heavy_branch`` parallel s-a links."""
    edges = [(0, 1)] * heavy_branch + [(0, 2), (1, 3), (2, 3)]
    net = build_network(edges, {0: 1, 3: 1}, name="diamond")
    routing = EcmpRouting(net)
    return routing, _CompiledEcmp(routing, net.link_table())


class TestWalk:
    def test_walk_reaches_destination(self, rng):
        _routing, walker = compiled_diamond()
        path, links = walker.sample(0, 3, rng)
        assert path[0] == 0 and path[-1] == 3
        assert len(path) == 3
        assert [walker.table.pair_of(i) for i in links] == list(
            zip(path, path[1:])
        )

    def test_walk_uses_both_branches(self):
        _routing, walker = compiled_diamond()
        rng = random.Random(0)
        seen = {walker.sample(0, 3, rng)[0] for _ in range(200)}
        assert seen == {(0, 1, 3), (0, 2, 3)}

    def test_weighted_walk_prefers_heavy_branch(self):
        _routing, walker = compiled_diamond(heavy_branch=3)
        rng = random.Random(0)
        count_a = sum(
            1 for _ in range(2000) if walker.sample(0, 3, rng)[0][1] == 1
        )
        assert 0.70 < count_a / 2000 < 0.80

    def test_dead_end_raises(self, rng, monkeypatch):
        routing, walker = compiled_diamond()
        monkeypatch.setattr(
            routing, "next_hops", lambda node, dst: {0: [(1, 1.0)], 1: []}[node]
        )
        with pytest.raises(DagError, match="dead end at 1"):
            walker.sample(0, 3, rng)

    def test_cycle_raises(self, rng, monkeypatch):
        routing, walker = compiled_diamond()
        monkeypatch.setattr(
            routing,
            "next_hops",
            lambda node, dst: {0: [(1, 1.0)], 1: [(0, 1.0)]}[node],
        )
        with pytest.raises(DagError, match="walk exceeded 1000 hops"):
            walker.sample(0, 3, rng)


class TestFractions:
    def test_equal_split(self):
        flows = fractions(diamond, "s", "t")
        assert flows[("s", "a")] == pytest.approx(0.5)
        assert flows[("s", "b")] == pytest.approx(0.5)
        assert flows[("a", "t")] == pytest.approx(0.5)

    def test_weighted_split(self):
        flows = fractions(weighted_diamond, "s", "t")
        assert flows[("s", "a")] == pytest.approx(0.75)
        assert flows[("s", "b")] == pytest.approx(0.25)

    def test_conservation_at_destination(self):
        flows = fractions(diamond, "s", "t")
        into_t = sum(v for (a, b), v in flows.items() if b == "t")
        assert into_t == pytest.approx(1.0)

    def test_multi_layer_dag(self):
        def layered(node):
            table = {
                "s": [("a", 1.0), ("b", 1.0)],
                "a": [("c", 1.0), ("d", 1.0)],
                "b": [("d", 1.0)],
                "c": [("t", 1.0)],
                "d": [("t", 1.0)],
                "t": [],
            }
            return table[node]

        flows = fractions(layered, "s", "t")
        assert flows[("d", "t")] == pytest.approx(0.75)
        assert flows[("c", "t")] == pytest.approx(0.25)

    def test_dead_end_raises(self):
        def broken(node):
            return {"s": [("x", 1.0)], "x": []}[node]

        with pytest.raises(DagError):
            fractions(broken, "s", "t")

    @given(fan=st.integers(min_value=1, max_value=12))
    @settings(max_examples=15, deadline=None)
    def test_fanout_splits_evenly(self, fan):
        def star(node):
            if node == "s":
                return [(i, 1.0) for i in range(fan)]
            if isinstance(node, int):
                return [("t", 1.0)]
            return []

        flows = fractions(star, "s", "t")
        for i in range(fan):
            assert flows[("s", i)] == pytest.approx(1.0 / fan)
