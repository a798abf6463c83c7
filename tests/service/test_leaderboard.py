"""Leaderboard ranking: metric direction, tie-breaks, rendering."""

import pytest

from repro.harness.jobs import JobSpec
from repro.service.leaderboard import (
    DEFAULT_METRIC,
    METRIC_REGISTRY,
    LeaderboardEntry,
    build_leaderboard,
    entry_from_payload,
    metric_names,
    rank_entries,
    render_leaderboard,
)
from repro.service.store import ServiceStore


def fct_records(fct_seconds, size_bytes=1e6, flows=4):
    """A records payload where every flow completes in fct_seconds."""
    return {
        "records": [
            [i, i + 1, size_bytes, 0.0, fct_seconds, [i, i + 1]]
            for i in range(flows)
        ]
    }


def fig4_payload(scheme, pattern, fct_seconds, seed=0, key=None):
    spec = JobSpec.make(
        "fig4", scale="tiny", scheme=scheme, pattern=pattern, seed=seed
    )
    return {
        "key": key or spec.key(),
        "spec": spec.to_dict(),
        "created_at": 100.0,
        "result": fct_records(fct_seconds),
    }


def entry(scheme, pattern, fct_seconds, seed=0, key="k"):
    made = entry_from_payload(
        fig4_payload(scheme, pattern, fct_seconds, seed=seed, key=key)
    )
    assert made is not None
    return made


def ml_payload(topology, iteration_time_s, scheme="ecmp", key=None,
               seed=0):
    spec = JobSpec.make(
        "ml", scale="tiny", scheme=scheme, pattern=topology, seed=seed,
        policy="compact", placement_seed=seed,
    )
    return {
        "key": key or spec.key(),
        "spec": spec.to_dict(),
        "created_at": 100.0,
        "result": {
            "iteration_time_s": iteration_time_s,
            "max_iteration_time_s": 2 * iteration_time_s,
            "num_jobs": 3,
            "num_workers": 24,
        },
    }


def ml_entry(topology, iteration_time_s, **kwargs):
    made = entry_from_payload(ml_payload(topology, iteration_time_s,
                                         **kwargs))
    assert made is not None
    return made


class TestMetricRegistry:
    def test_registry_covers_both_families(self):
        assert set(metric_names()) >= {
            "p99_fct_ms", "median_fct_ms", "throughput_gbps",
            "iteration_time", "max_iteration_time",
        }

    def test_directions(self):
        assert METRIC_REGISTRY["throughput_gbps"].higher_is_better is True
        assert METRIC_REGISTRY["iteration_time"].higher_is_better is False


class TestEntryFromPayload:
    def test_fig4_cell_is_rankable(self):
        made = entry("dring su2", "A2A", 0.002)
        assert dict(made.extras) == {"num_flows": 4}
        assert made.metric("median_fct_ms") == pytest.approx(2.0)
        assert made.metric("p99_fct_ms") == pytest.approx(2.0)
        # 1e6 B in 2 ms = 4 Gbps per flow
        assert made.metric("throughput_gbps") == pytest.approx(4.0)

    def test_non_fig4_payload_not_rankable(self):
        spec = JobSpec.make("selftest", mode="ok")
        assert entry_from_payload({
            "key": spec.key(),
            "spec": spec.to_dict(),
            "result": {"echo": 1},
        }) is None

    def test_empty_records_not_rankable(self):
        payload = fig4_payload("dring su2", "A2A", 0.002)
        payload["result"] = {"records": []}
        assert entry_from_payload(payload) is None

    def test_malformed_payload_not_rankable(self):
        assert entry_from_payload({"spec": "nope", "result": {}}) is None
        payload = fig4_payload("dring su2", "A2A", 0.002)
        payload["result"] = {"records": [[1, 2]]}  # wrong arity
        assert entry_from_payload(payload) is None

    def test_fig4_dict_key_order_is_frozen(self):
        """Stored JSON must stay byte-identical across refactors."""
        made = entry("dring su2", "A2A", 0.002)
        assert list(made.to_dict().keys()) == [
            "key", "experiment", "scale", "scheme", "pattern", "seed",
            "num_flows", "median_fct_ms", "p99_fct_ms",
            "throughput_gbps", "created_at",
        ]

    def test_ml_cell_is_rankable(self):
        made = ml_entry("dring", 0.004)
        assert made.experiment == "ml"
        assert made.metric("iteration_time") == pytest.approx(0.004)
        assert made.metric("max_iteration_time") == pytest.approx(0.008)
        assert dict(made.extras) == {"num_jobs": 3, "num_workers": 24}
        # no FCT metrics on an ml entry
        assert made.metric("p99_fct_ms") is None

    def test_ml_without_iteration_time_not_rankable(self):
        payload = ml_payload("dring", 0.004)
        del payload["result"]["iteration_time_s"]
        assert entry_from_payload(payload) is None


class TestRanking:
    def test_fct_metrics_rank_lower_first(self):
        slow = entry("leaf-spine ecmp", "A2A", 0.004, key="s")
        fast = entry("dring su2", "A2A", 0.002, key="f")
        for metric in ("p99_fct_ms", "median_fct_ms"):
            assert rank_entries([slow, fast], metric)[0] is fast

    def test_throughput_ranks_higher_first(self):
        slow = entry("leaf-spine ecmp", "A2A", 0.004, key="s")
        fast = entry("dring su2", "A2A", 0.002, key="f")
        ranked = rank_entries([slow, fast], "throughput_gbps")
        assert ranked[0] is fast

    def test_tie_breaks_are_stable_identity_order(self):
        b = entry("b-scheme", "A2A", 0.002, key="kb")
        a = entry("a-scheme", "A2A", 0.002, key="ka")
        ranked = rank_entries([b, a], DEFAULT_METRIC)
        assert [e.scheme for e in ranked] == ["a-scheme", "b-scheme"]
        # same input in any order ranks identically
        again = rank_entries([a, b], DEFAULT_METRIC)
        assert [e.key for e in again] == [e.key for e in ranked]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown leaderboard"):
            rank_entries([], metric="vibes")

    def test_iteration_time_ranks_lower_first(self):
        slow = ml_entry("leaf-spine", 0.006, key="s")
        fast = ml_entry("dring", 0.003, key="f")
        ranked = rank_entries([slow, fast], "iteration_time")
        assert [e.pattern for e in ranked] == ["dring", "leaf-spine"]

    def test_families_never_cross_compete(self):
        fig4 = entry("dring su2", "A2A", 0.002, key="fig4")
        ml = ml_entry("dring", 0.003, key="ml")
        assert rank_entries([fig4, ml], "iteration_time") == [ml]
        assert rank_entries([fig4, ml], "p99_fct_ms") == [fig4]


class TestBuildAndRender:
    def put_cell(self, store, scheme, pattern, fct_seconds, seed=0):
        spec = JobSpec.make(
            "fig4", scale="tiny", scheme=scheme, pattern=pattern,
            seed=seed,
        )
        store.put(
            spec.key(), spec, fct_records(fct_seconds), 0.1
        )
        return spec

    def test_build_ranks_store_contents(self, tmp_path):
        store = ServiceStore(tmp_path / "store")
        self.put_cell(store, "leaf-spine ecmp", "A2A", 0.004)
        self.put_cell(store, "dring su2", "A2A", 0.002)
        rows = build_leaderboard(store)
        assert [r["rank"] for r in rows] == [1, 2]
        assert rows[0]["scheme"] == "dring su2"

    def test_unrankable_entries_are_skipped(self, tmp_path):
        store = ServiceStore(tmp_path / "store")
        self.put_cell(store, "dring su2", "A2A", 0.002)
        other = JobSpec.make("selftest", mode="ok")
        store.put(other.key(), other, {"echo": 1}, 0.1)
        rows = build_leaderboard(store)
        assert len(rows) == 1

    def test_limit_truncates_after_ranking(self, tmp_path):
        store = ServiceStore(tmp_path / "store")
        self.put_cell(store, "leaf-spine ecmp", "A2A", 0.004)
        self.put_cell(store, "dring su2", "A2A", 0.002)
        rows = build_leaderboard(store, limit=1)
        assert len(rows) == 1 and rows[0]["scheme"] == "dring su2"

    def test_render_empty_board(self):
        assert "no rankable results" in render_leaderboard([])

    def test_render_lists_every_row(self, tmp_path):
        store = ServiceStore(tmp_path / "store")
        self.put_cell(store, "dring su2", "A2A", 0.002)
        self.put_cell(store, "leaf-spine ecmp", "R2R", 0.004)
        text = render_leaderboard(build_leaderboard(store))
        assert "dring su2" in text and "leaf-spine ecmp" in text
        assert text.splitlines()[0].startswith("leaderboard by")

    def test_entry_metric_accessor(self):
        made = entry("dring su2", "A2A", 0.002)
        assert made.metric("p99_fct_ms") == made.to_dict()["p99_fct_ms"]
        assert made.metric("num_flows") is None
        assert isinstance(made, LeaderboardEntry)

    def test_render_ml_board(self):
        ranked = rank_entries(
            [ml_entry("leaf-spine", 0.006, key="s"),
             ml_entry("dring", 0.003, key="f")],
            "iteration_time",
        )
        rows = [
            dict(e.to_dict(), rank=i)
            for i, e in enumerate(ranked, start=1)
        ]
        text = render_leaderboard(rows, "iteration_time")
        assert text.splitlines()[0] == (
            "leaderboard by iteration_time (v best first)"
        )
        assert "dring" in text and "leaf-spine" in text
        assert "topology" in text.splitlines()[1]

    def test_build_ranks_ml_store_contents(self, tmp_path):
        store = ServiceStore(tmp_path / "store")
        for topology, t in (("leaf-spine", 0.006), ("dring", 0.003)):
            spec = JobSpec.make(
                "ml", scale="tiny", scheme="ecmp", pattern=topology,
                seed=0, policy="compact", placement_seed=0,
            )
            store.put(spec.key(), spec, {
                "iteration_time_s": t,
                "max_iteration_time_s": 2 * t,
                "num_jobs": 3, "num_workers": 24,
            }, 0.1)
        rows = build_leaderboard(store, metric="iteration_time")
        assert [r["pattern"] for r in rows] == ["dring", "leaf-spine"]
        assert rows[0]["rank"] == 1
