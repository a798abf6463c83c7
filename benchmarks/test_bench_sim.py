"""Engine acceptance benchmarks, two tiers.

**Medium tier** (always on): one Figure 4 grid cell (A2A on the DRing
under SU(2) at the MEDIUM scale, seed 0) through the compiled engine and
through the verbatim seed implementation kept in
``tests/sim/legacy_reference.py``.  Both produce bit-identical results
(asserted here too — a fast wrong answer is not a speedup); the engine
must finish the cell at least 3x faster.

**Large tier** (``REPRO_LARGE_BENCH=1``): the engine against the
round-1 engine frozen in ``tests/sim/engine_r1_reference.py`` on a
512-rack / 100k-flow fig4 cell.  Gates: bit-identical FlowRecords, the
run invariants of ``tests/sim/certificate.py`` (one record per flow, no
flow faster than line rate, per-link bytes equal to the bytes of the
flows that crossed the link), a 2x wall-clock speedup, and a
tracemalloc peak-memory budget.  r1 solves every event with a cold
progressive filling; the engine solves only events whose delta may move
another live flow's rate, which on this cell is ~2.6% of them.  Both
share the rest of the per-event loop (byte accounting, completion
scheduling).

Timings for both tiers are saved as artifacts, with the engine run's
event and solve counts.
"""

import importlib.util
import os
import pathlib
import sys
import time
import tracemalloc

import pytest

from conftest import save_artifact
from repro.experiments import MEDIUM
from repro.experiments.fig4_fct import _pattern_flows, fig4_patterns
from repro.experiments.runner import Scale, build_scheme
from repro.sim import FlowSimulator

_TESTS_SIM = pathlib.Path(__file__).parent.parent / "tests" / "sim"
_LEGACY_PATH = _TESTS_SIM / "legacy_reference.py"
_R1_PATH = _TESTS_SIM / "engine_r1_reference.py"
_CERTIFICATE_PATH = _TESTS_SIM / "certificate.py"

REQUIRED_SPEEDUP = 3.0
ROUNDS = 3

#: Large-tier gates (see module docstring).
LARGE_REQUIRED_SPEEDUP = 2.0
LARGE_MEMORY_BUDGET_MB = 640.0

#: The 512-rack / 100k-flow cell: DRing(32, 16) with 3072 servers, the
#: A2A pattern at 30% spine utilization, sized by ``window_for_budget``.
LARGE = Scale(
    name="large-512",
    leaf_x=32,
    leaf_y=1,
    dring_m=32,
    dring_n=16,
    dring_servers=3072,
    max_flows=100_000,
    window_seconds=10.0,
    size_cap_bytes=10e6,
)


def _load_reference(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules, so
    # the module must be registered before its body executes.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _load_legacy():
    return _load_reference(_LEGACY_PATH)


def _fig4_cell_inputs():
    pattern = {p.label: p for p in fig4_patterns(MEDIUM, seed=0)}["A2A"]
    tut = build_scheme("DRing (su2)", MEDIUM, seed=0)
    flows = _pattern_flows(MEDIUM, pattern, 0, 0.30)
    placement = tut.placement(shuffle=pattern.random_placement, seed=0)
    return tut, placement, flows


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_engine_3x_over_legacy(benchmark):
    legacy = _load_legacy()
    tut, placement, flows = _fig4_cell_inputs()

    engine_results = {}
    legacy_results = {}

    def run_engine():
        sim = FlowSimulator(tut.network, tut.routing, placement, seed=0)
        engine_results["fct"] = sim.run(flows)
        engine_results["counters"] = sim.trace.counters

    def run_legacy():
        sim = legacy.LegacyFlowSimulator(
            tut.network, tut.routing, placement, seed=0
        )
        legacy_results["fct"] = sim.run(flows)

    run_engine()  # warm the compiled routing cache once
    engine_seconds = _best_of(run_engine)
    legacy_seconds = _best_of(run_legacy)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # Identical physics first: same records, same order, same floats.
    got, want = engine_results["fct"], legacy_results["fct"]
    _assert_identical(got, want)

    speedup = legacy_seconds / engine_seconds
    save_artifact(
        "sim_engine_speedup.txt",
        "\n".join(
            [
                "fig4 cell A2A / DRing (su2) / medium / seed 0 "
                f"({got.num_flows} flows):",
                f"  legacy simulator: {legacy_seconds * 1000:.1f} ms",
                f"  engine simulator: {engine_seconds * 1000:.1f} ms",
                _solve_line(engine_results["counters"]),
                f"  speedup: {speedup:.1f}x (required >= "
                f"{REQUIRED_SPEEDUP:.0f}x)",
            ]
        ),
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"engine only {speedup:.2f}x over legacy "
        f"({engine_seconds:.3f}s vs {legacy_seconds:.3f}s)"
    )


def _solve_line(counters):
    """How many of the engine's events still ran a max-min solve."""
    return (
        f"  engine events: {counters['events']}, "
        f"alloc_solves: {counters.get('alloc_solves', 0)}"
    )


def _assert_identical(got, want):
    assert got.num_flows == want.num_flows
    for a, b in zip(got.records, want.records):
        assert (a.src_server, a.dst_server, a.size_bytes) == (
            b.src_server, b.dst_server, b.size_bytes
        )
        assert a.start_time == b.start_time
        assert a.finish_time == b.finish_time
        assert a.path == b.path


@pytest.mark.skipif(
    os.environ.get("REPRO_LARGE_BENCH", "") in ("", "0"),
    reason="large tier runs only with REPRO_LARGE_BENCH=1 (several minutes)",
)
def test_bench_large_cell_engine(benchmark):
    r1 = _load_reference(_R1_PATH)
    certificate = _load_reference(_CERTIFICATE_PATH)
    pattern = {p.label: p for p in fig4_patterns(LARGE, seed=0)}["A2A"]
    tut = build_scheme("DRing (su2)", LARGE, seed=0)
    flows = _pattern_flows(LARGE, pattern, 0, 0.30)
    placement = tut.placement(shuffle=pattern.random_placement, seed=0)
    assert len(flows) == LARGE.max_flows

    # Prewarm pass: populates the lazy routing caches both engines share
    # (path sampling pays a per-source shortest-path solve on first use)
    # and measures the engine's peak memory.
    tracemalloc.start()
    sim = FlowSimulator(tut.network, tut.routing, placement, seed=0)
    bytes_before = sim._link_bytes.copy()
    results = sim.run(flows)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    start = time.perf_counter()
    timed = FlowSimulator(tut.network, tut.routing, placement, seed=0).run(
        flows
    )
    engine_seconds = time.perf_counter() - start

    start = time.perf_counter()
    r1_results = r1.R1FlowSimulator(
        tut.network, tut.routing, placement, seed=0
    ).run(flows)
    r1_seconds = time.perf_counter() - start
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    _assert_identical(results, r1_results)
    _assert_identical(timed, r1_results)
    certificate.assert_run_conserves(sim, flows, results, bytes_before)

    speedup = r1_seconds / engine_seconds
    peak_mb = peak_bytes / 1e6

    save_artifact(
        "sim_large_cell.txt",
        "\n".join(
            [
                "fig4 cell A2A / DRing (su2) / 512 racks / seed 0 "
                f"({results.num_flows} flows):",
                f"  r1 engine: {r1_seconds:.1f} s",
                f"  engine:    {engine_seconds:.1f} s",
                _solve_line(sim.trace.counters),
                f"  wall-clock speedup: {speedup:.2f}x (required >= "
                f"{LARGE_REQUIRED_SPEEDUP:.1f}x; single-core)",
                f"  peak memory: {peak_mb:.0f} MB (budget "
                f"{LARGE_MEMORY_BUDGET_MB:.0f} MB)",
                f"  records: bit-identical ({results.num_flows} flows)",
                "  run invariants: hold (records, line-rate bound, "
                "link bytes)",
            ]
        ),
    )

    assert speedup >= LARGE_REQUIRED_SPEEDUP, (
        f"engine only {speedup:.2f}x over r1 "
        f"({engine_seconds:.1f}s vs r1 {r1_seconds:.1f}s)"
    )
    assert peak_mb <= LARGE_MEMORY_BUDGET_MB, (
        f"peak memory {peak_mb:.0f} MB over budget"
    )
