"""Tests of the benchmark's own code: checks, smoke runs, layer sums.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.experiments.fig4_fct import _pattern_flows, fig4_patterns
from repro.experiments.runner import build_scheme
from repro.sim.flowsim import FlowSimulator
from repro.sim.results import FctResults

from perfbench import bench, run, speed, workloads
from perfbench.checks import capacity_of_path, reference_problems
from perfbench.spans import SpanRecorder
from perfbench.speed import SpeedProbe

ROOT = pathlib.Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The layers ``setup_s`` covers.
SETUP_LAYERS = (
    "topology.build", "core.link_table", "routing.compile", "traffic.flowgen",
)


def _quiet(_line):
    pass


@pytest.fixture(scope="module")
def tiny_run():
    """One tiny fig4 cell: the simulator, its input flows, its results."""
    workload = workloads.smoke(workloads.WORKLOADS["fig4-medium"])
    pattern, scheme = workload.cells[0]
    spec = {p.label: p for p in fig4_patterns(workload.scale, seed=1)}[pattern]
    tut = build_scheme(scheme, workload.scale, seed=1)
    flows = _pattern_flows(workload.scale, spec, 1, workloads.UTILIZATION)
    placement = tut.placement(shuffle=spec.random_placement, seed=1)
    simulator = FlowSimulator(tut.network, tut.routing, placement, seed=1)
    return simulator, flows, simulator.run(flows)


def test_intact_records_pass(tiny_run):
    simulator, flows, results = tiny_run
    assert workloads.run_problems(simulator, flows, results) == []


def test_dropped_record_is_caught(tiny_run):
    simulator, flows, results = tiny_run
    dropped = FctResults(records=results.records[1:])
    problems = workloads.run_problems(simulator, flows, dropped)
    assert problems == [f"{len(flows) - 1} records for {len(flows)} flows"]


def test_mismatched_record_is_caught(tiny_run):
    simulator, flows, results = tiny_run
    first = results.records[0]
    moved = dataclasses.replace(first, start_time=first.start_time + 1e-3,
                                finish_time=first.finish_time + 1e-3)
    problems = workloads.run_problems(
        simulator, flows, FctResults(records=[moved] + results.records[1:])
    )
    assert problems == [
        "records do not match the flows' (src, dst, size, start)"
    ]


def test_early_finish_is_caught(tiny_run):
    simulator, flows, results = tiny_run
    first = results.records[0]
    capacity_gbps = capacity_of_path(simulator.network)(first.path)
    # Half the line-rate ideal: no fair share can be that fast.
    early = dataclasses.replace(
        first,
        finish_time=first.start_time
        + 0.5 * first.size_bytes * 8.0 / (capacity_gbps * 1e9),
    )
    moved = FctResults(records=[early] + results.records[1:])
    problems = workloads.run_problems(simulator, flows, moved)
    assert problems == ["1 flows finish faster than line rate allows"]


def test_reference_mismatch_is_caught():
    reference = json.loads(
        (ROOT / "perfbench" / "reference.json").read_text()
    )["fig4-medium"]
    assert reference_problems("fig4-medium", dict(reference)) == []
    moved = dict(reference)
    key = sorted(moved)[0]
    moved[key] = "0.000"
    assert len(reference_problems("fig4-medium", moved)) == 1


def test_speed_probe_slowdown():
    probe = SpeedProbe()
    ref = speed.REFERENCE_LOOP_S
    probe.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref)]
    assert probe.slowdown(1.5, 3.5) == pytest.approx(3.0)
    # No sample inside the interval: the latest samples stand in.
    assert probe.slowdown(5.0, 6.0) == pytest.approx(7.0 / 3.0)
    with probe:
        assert probe.slowdown(0.0, 0.0) > 0


def test_declared_workloads_are_runnable():
    declared = {w["name"] for w in DECLARED["workloads"]}
    assert declared == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_declared_metrics(name, trace, tmp_path):
    result = bench.run_benchmark(
        name, seed=7, seconds=0, trace=trace, root=tmp_path, smoke=True,
        log=_quiet,
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[name].cells) * (
        2 if trace else 1
    )
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert not any(tmp_path.iterdir()), "scratch files left behind"


@pytest.mark.parametrize("name", ["fig4-medium", "ml-collectives"])
def test_layer_self_times_sum_to_traced_wall(name, tmp_path):
    metrics = bench.run_benchmark(
        name, seed=3, seconds=0, trace=True, root=tmp_path, smoke=True,
        log=_quiet,
    )["metrics"]
    parts = [
        value["value"]
        for key, value in metrics.items()
        if key.startswith("self.") or key == "other.self_s"
    ]
    assert all(part >= 0 for part in parts)
    assert sum(parts) == pytest.approx(metrics["trace.wall_s"]["value"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_makes_the_same_set_up_calls_as_a_pass(name, tmp_path):
    """``setup`` copies the cells' set-up steps; the two must not drift.

    If a cell starts doing set-up work the copy does not (or stops doing
    work the copy still does), ``setup_s`` no longer times the program's
    set-up, and the span counts of the set-up layers differ.
    """
    workload = workloads.smoke(workloads.WORKLOADS[name])
    # The ML job mix is authored once per workload, not per set-up.
    getattr(workload, "jobs", None)
    in_setup = SpanRecorder(bench._install_spans)
    with in_setup:
        workload.setup(4)
    in_pass = SpanRecorder(bench._install_spans)
    workload.run_pass(4, tmp_path, spans=in_pass)
    for layer in SETUP_LAYERS:
        assert in_setup.calls[layer] == in_pass.calls[layer] > 0, layer
        assert in_setup.items[layer] == in_pass.items[layer], layer


def test_corrupted_outputs_count_as_failed_cells(monkeypatch, tmp_path):
    original = FlowSimulator.run

    def drop_last_record(self, flows):
        results = original(self, flows)
        results.records.pop()
        return results

    monkeypatch.setattr(FlowSimulator, "run", drop_last_record)
    result = bench.run_benchmark(
        "fig4-medium", seed=2, seconds=0, trace=False, root=tmp_path,
        smoke=True, log=_quiet,
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 3
