"""End-to-end: harness-run fig4 cells == ``run_fig4``, bit for bit.

Runs a reduced Figure 4 grid (2 patterns x 3 core schemes) at a tiny
registered scale three ways — ``run_fig4``'s in-process loop over
``run_fig4_cell``, the harness with ``jobs=1``, and the harness with
``jobs=2`` — and asserts the rendered median/p99 tables are
byte-identical.  A warm re-run must come entirely from cache and still
render the same tables.
"""

import multiprocessing

import pytest

from repro.experiments.fig4_fct import run_fig4
from repro.experiments.runner import Scale, register_scale, scheme_labels
from repro.harness.cache import ResultCache
from repro.harness.executor import HIT, RAN, run_jobs
from repro.harness.jobs import assemble_fig4, fig4_jobs

TINY = register_scale(
    Scale(
        name="tiny-fig4",
        leaf_x=6,
        leaf_y=2,
        dring_m=6,
        dring_n=2,
        dring_servers=48,
        max_flows=150,
        window_seconds=0.02,
        size_cap_bytes=10e6,
    )
)

PATTERNS = ["A2A", "R2R"]
SCHEMES = scheme_labels(include_ecmp_flats=False)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the registered tiny scale",
)


def harness_tables(jobs, cache=None):
    specs = fig4_jobs("tiny-fig4", seed=0, patterns=PATTERNS,
                      schemes=SCHEMES)
    results, outcomes = run_jobs(specs, jobs=jobs, cache=cache)
    figure = assemble_fig4(specs, results)
    return figure.median_table(), figure.p99_table(), outcomes


@pytest.fixture(scope="module")
def serial_tables():
    figure = run_fig4(TINY, seed=0, patterns=PATTERNS, schemes=SCHEMES)
    return figure.median_table(), figure.p99_table()


class TestParallelIdentity:
    def test_harness_serial_matches_legacy_path(self, serial_tables):
        median, p99, outcomes = harness_tables(jobs=1)
        assert all(o.status == RAN for o in outcomes)
        assert median == serial_tables[0]
        assert p99 == serial_tables[1]

    @fork_only
    def test_harness_parallel_matches_legacy_path(self, serial_tables):
        median, p99, outcomes = harness_tables(jobs=2)
        assert all(o.status == RAN for o in outcomes)
        assert median == serial_tables[0]
        assert p99 == serial_tables[1]

    @fork_only
    def test_warm_rerun_is_all_hits_and_identical(
        self, serial_tables, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        harness_tables(jobs=2, cache=cache)
        median, p99, outcomes = harness_tables(jobs=2, cache=cache)
        assert all(o.status == HIT for o in outcomes)
        assert median == serial_tables[0]
        assert p99 == serial_tables[1]
