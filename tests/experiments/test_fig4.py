"""Tests for the Figure 4 experiment driver (scaled down for speed)."""

import pytest

from repro.experiments import SMALL, Scale, fig4_patterns, run_fig4

TINY = Scale(
    name="tiny",
    leaf_x=6,
    leaf_y=2,
    dring_m=6,
    dring_n=1,
    dring_servers=48,
    max_flows=250,
    window_seconds=0.02,
    size_cap_bytes=2e6,
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_fig4(TINY, seed=0, patterns=["A2A", "R2R"])


class TestPatterns:
    def test_seven_patterns_in_paper_order(self):
        patterns = fig4_patterns(SMALL, seed=0)
        labels = [p.label for p in patterns]
        assert labels == [
            "A2A",
            "R2R",
            "CS skewed",
            "FB skewed",
            "FB uniform",
            "FB skewed (RP)",
            "FB uniform (RP)",
        ]
        assert patterns[5].random_placement
        assert not patterns[0].random_placement


class TestRun:
    def test_grid_fully_populated(self, tiny_result):
        assert set(tiny_result.rows) == {"A2A", "R2R"}
        for by_scheme in tiny_result.rows.values():
            assert len(by_scheme) == 5
            for results in by_scheme.values():
                assert results.num_flows > 0

    def test_tables_render(self, tiny_result):
        assert "A2A" in tiny_result.median_table()
        assert "R2R" in tiny_result.p99_table()

    def test_ratio_helper(self, tiny_result):
        ratio = tiny_result.ratio(
            "A2A", "leaf-spine (ecmp)", "DRing (su2)", metric="median"
        )
        assert ratio > 0

    def test_same_workload_every_scheme(self, tiny_result):
        # The per-scheme flow counts must be identical: the workload is
        # authored in canonical space and shared.
        for by_scheme in tiny_result.rows.values():
            counts = {r.num_flows for r in by_scheme.values()}
            assert len(counts) == 1
