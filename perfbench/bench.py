"""One benchmark run: set up, time passes, check outputs, report metrics.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
Times are at the reference CPU speed: each measured duration is divided
by the slowdown a :class:`~perfbench.speed.SpeedProbe` saw while it ran,
because this benchmark's host swings its CPU speed by 40% for minutes at
a time.  The host seconds are printed beside them.

* ``wall_s`` — seconds for one pass over the workload's cells, from the
  job specs to the cached records (median over the run's passes);
* ``setup_s`` — topology build, link table, routing construction and
  compile, flow and placement generation for every cell, without the
  simulator runs (median over batches of set-ups timed around each pass);
* ``flows_per_s`` — simulated flows completed per second of ``wall_s``;
* ``peak_rss_mb`` — peak resident memory of the process after the
  first set-ups and pass.

``error_rate`` (failed or check-failing cells over cells attempted) is
carried by the result's ``attempted`` / ``failed`` counts and printed
above it.

``--trace 1`` runs one untraced pass and then one traced pass, and
reports per-layer metrics in host seconds: spans from
:mod:`perfbench.spans` around the layers' entry points, plus the
``SimTrace`` counters and the ``allocate`` timer the simulator already
records.  The ``self.*`` metrics and ``other.self_s`` add up to
``trace.wall_s``.
"""

from __future__ import annotations

import pathlib
import resource
import shutil
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.bgp.vrf import VrfGraph
from repro.core.network import Network
from repro.experiments import fig4_fct, ml_sweep
from repro.harness import cache as harness_cache
from repro.harness import executor, jobs
from repro.routing import CoarseAdaptiveRouting, EcmpRouting, ShortestUnionRouting
from repro.routing.base import RoutingScheme
from repro.sim.engine import routing as compiled_routing
from repro.sim.flowsim import FlowSimulator
from repro.sim.phases import PhaseCohortDriver
from repro.sim.results import CollectiveResults, FctResults
from repro.topology import dring, flatten, leaf_spine, xpander
from repro.traffic import Placement, generate_flows
from repro.traffic.collectives import collective_flows, place_jobs

from perfbench import workloads
from perfbench.checks import reference_problems
from perfbench.spans import SpanRecorder
from perfbench.speed import SpeedProbe

#: ``setup_s`` is the median of set-ups timed in batches of at least
#: this many ...
SETUP_REPEATS = 3

#: ... repeated until the batch has taken this many seconds.
SETUP_SECONDS = 0.5

#: The seed the recorded reference values were produced with.
REFERENCE_SEED = 0

#: Layers whose self times partition the traced wall time, in the order
#: a request meets them.  ``alloc`` and ``flowsim`` split the simulator's
#: own span: the ``allocate`` timer is the allocator's share of it.
SELF_LAYERS = (
    "topology.build",
    "core.link_table",
    "routing.compile",
    "traffic.flowgen",
    "routing.sample",
    "routing.next_hops",
    "alloc",
    "flowsim",
    "phases",
    "results.to_json",
    "harness.key",
    "harness.cache_put",
    "harness",
    "experiments.cell",
)


def _workdir(root: pathlib.Path) -> pathlib.Path:
    """A private scratch directory inside the checkout."""
    base = root / ".perfbench-work"
    base.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(dir=base))


def _remove_workdir(workdir: pathlib.Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run's directory is still there


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _install_spans(spans: SpanRecorder) -> None:
    """Wrap every layer's public entry points (restored on exit)."""
    for func in (dring, leaf_spine, flatten, xpander):
        spans.wrap_function(func, "topology.build")
    spans.wrap_method(Network, "link_table", "core.link_table")
    spans.wrap_method(RoutingScheme, "compile", "routing.compile")
    for scheme in (EcmpRouting, ShortestUnionRouting, CoarseAdaptiveRouting):
        spans.wrap_method(scheme, "__init__", "routing.compile")
    spans.wrap_function(fig4_fct.fig4_patterns, "traffic.flowgen")
    spans.wrap_function(generate_flows, "traffic.flowgen", size_of=len)
    spans.wrap_function(collective_flows, "traffic.flowgen", size_of=len)
    spans.wrap_function(place_jobs, "traffic.flowgen")
    spans.wrap_method(Placement, "__init__", "traffic.flowgen")
    for name in dir(compiled_routing):
        owner = getattr(compiled_routing, name)
        if (
            isinstance(owner, type)
            and issubclass(owner, compiled_routing.CompiledRouting)
            and "sample" in owner.__dict__
        ):
            spans.wrap_method(owner, "sample", "routing.sample")
    spans.wrap_method(EcmpRouting, "next_hops", "routing.next_hops")
    spans.wrap_method(VrfGraph, "next_hops", "routing.next_hops")
    spans.wrap_method(FlowSimulator, "run", "flowsim.run")
    spans.wrap_method(PhaseCohortDriver, "run", "phases.run")
    spans.wrap_method(FctResults, "to_json_dict", "results.to_json")
    spans.wrap_method(CollectiveResults, "to_json_dict", "results.to_json")
    spans.wrap_method(jobs.JobSpec, "key", "harness.key")
    spans.wrap_method(harness_cache.ResultCache, "put", "harness.cache_put")
    spans.wrap_function(executor.run_jobs, "harness")
    spans.wrap_function(jobs.execute_job, "experiments.cell")
    spans.wrap_function(ml_sweep.run_ml_cell, "experiments.cell")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: SpanRecorder, traced: workloads.Pass, untraced_wall_s: float
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    total, self_time, calls = spans.total, spans.self_time, spans.calls
    counters = traced.sim.counters
    alloc_s = traced.sim.timers.get("allocate", 0.0)
    events = counters.get("events", 0)
    solves = counters.get("alloc_solves", events)
    flowsim_self = self_time["flowsim.run"] - alloc_s
    selfs = {layer: self_time[layer] for layer in SELF_LAYERS}
    selfs["alloc"] = alloc_s
    selfs["flowsim"] = flowsim_self
    selfs["phases"] = self_time["phases.run"]
    other = traced.wall_s - sum(selfs.values())
    metrics: Dict[str, Tuple[float, str]] = {
        "topology.build_s": (total["topology.build"], "s"),
        "core.link_table_s": (total["core.link_table"], "s"),
        "traffic.flowgen_s": (total["traffic.flowgen"], "s"),
        "traffic.flows": (spans.items["traffic.flowgen"], "count"),
        "routing.compile_s": (total["routing.compile"], "s"),
        "routing.sample_s": (total["routing.sample"], "s"),
        "routing.samples": (calls["routing.sample"], "count"),
        "routing.next_hops_s": (total["routing.next_hops"], "s"),
        "routing.next_hops_calls": (calls["routing.next_hops"], "count"),
        "alloc.s": (alloc_s, "s"),
        "alloc.solves": (solves, "count"),
        "alloc.iterations": (counters.get("allocator_iterations", 0), "count"),
        "alloc.us_per_solve": (1e6 * _ratio(alloc_s, solves), "us"),
        "alloc.cold_solves": (counters.get("alloc_cold_solves", solves), "count"),
        "alloc.warm_ratio": (
            _ratio(counters.get("alloc_warm_solves", 0), solves), "ratio"
        ),
        "alloc.link_work_ratio": (
            _ratio(
                counters.get("alloc_link_space", 0),
                counters.get("alloc_resolved_links", 0),
            ),
            "ratio",
        ),
        "flowsim.run_s": (total["flowsim.run"], "s"),
        "flowsim.self_s": (flowsim_self, "s"),
        "flowsim.events": (events, "count"),
        "flowsim.ns_per_event": (1e9 * _ratio(flowsim_self, events), "ns"),
        "flowsim.flows_per_event": (
            _ratio(counters.get("flows_admitted", 0), events), "ratio"
        ),
        "flowsim.admit_cohorts": (counters.get("admit_cohorts", 0), "count"),
        "flowsim.retire_cohorts": (counters.get("retire_cohorts", 0), "count"),
        "phases.run_s": (total["phases.run"], "s"),
        "phases.self_s": (self_time["phases.run"], "s"),
        "phases.phases": (counters.get("phases", 0), "count"),
        "phases.phase_flows": (counters.get("phase_flows", 0), "count"),
        "results.to_json_s": (total["results.to_json"], "s"),
        "results.bytes": (traced.result_bytes, "bytes"),
        "harness.key_s": (total["harness.key"], "s"),
        "harness.cache_put_s": (total["harness.cache_put"], "s"),
        "harness.overhead_s": (traced.harness_overhead_s, "s"),
        "other.self_s": (other, "s"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced_wall_s, "s"),
    }
    for layer in SELF_LAYERS:
        metrics[f"self.{layer}_s"] = (selfs[layer], "s")
    return metrics


def _time_setups(workload: Any, seed: int, probe: SpeedProbe) -> List[float]:
    """One batch of set-up times, at the reference speed."""
    times: List[float] = []
    batch_started = time.perf_counter()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        started = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - started)
    slowdown = probe.slowdown(batch_started, time.perf_counter())
    return [t / slowdown for t in times]


def _timed_run(
    workload: Any,
    seed: int,
    seconds: float,
    workdir: pathlib.Path,
    probe: SpeedProbe,
) -> Tuple[List[workloads.Pass], List[float], List[float], float]:
    """Passes for about ``seconds``, with set-up batches around each.

    Returns the passes, their wall times and the set-up times (both at
    the reference speed) and the peak RSS after the first pass.  Set-ups
    are timed around every pass so that they sample the machine's speed
    across the run as the passes do; the peak RSS is read after one
    pass so that it does not depend on how many passes fit.
    """
    passes: List[workloads.Pass] = []
    walls: List[float] = []
    setups = _time_setups(workload, seed, probe)
    started = time.perf_counter()
    peak_rss_mb = 0.0
    # Another pass only if it should end by ``seconds`` plus half a
    # pass, so a run overshoots its budget by half a pass at most.
    while not passes or (
        time.perf_counter() - started + 0.5 * passes[-1].wall_s <= seconds
    ):
        if passes:
            setups += _time_setups(workload, seed, probe)
        pass_started = time.perf_counter()
        run = workload.run_pass(seed, workdir)
        slowdown = probe.slowdown(pass_started, time.perf_counter())
        passes.append(run)
        walls.append(run.wall_s / slowdown)
        if not peak_rss_mb:
            peak_rss_mb = _peak_rss_mb()
    setups += _time_setups(workload, seed, probe)
    return passes, walls, setups, peak_rss_mb


def _error_count(passes: List[workloads.Pass]) -> Tuple[int, int]:
    attempted = sum(p.cells for p in passes)
    failed = sum(min(len(p.problems), p.cells) for p in passes)
    return attempted, failed


def _check_reference(name: str, passes: List[workloads.Pass]) -> None:
    """Record a problem on every pass whose headline misses the reference."""
    for run in passes:
        problems = reference_problems(name, run.headline)
        if problems:
            run.problems["reference"] = problems


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: pathlib.Path,
    smoke: bool = False,
    log: Callable[[str], None] = print,
) -> Dict[str, Any]:
    """Run one workload; return the result object the CLI prints last."""
    workload = workloads.WORKLOADS[name]
    if smoke:
        workload = workloads.smoke(workload)
    workdir = _workdir(root)
    try:
        if trace:
            untraced = workload.run_pass(seed, workdir)
            spans = SpanRecorder(_install_spans)
            traced = workload.run_pass(seed, workdir, spans=spans)
            passes = [untraced, traced]
            metrics = layer_metrics(spans, traced, untraced.wall_s)
            _log_layers(log, metrics, untraced.wall_s)
        else:
            with SpeedProbe() as probe:
                passes, walls, setups, peak_rss_mb = _timed_run(
                    workload, seed, seconds, workdir, probe
                )
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "flows_per_s": (
                    statistics.median(
                        p.flows / wall for p, wall in zip(passes, walls)
                    ),
                    "1/s",
                ),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            log(f"passes: {len(passes)}  host wall_s: "
                + " ".join(f"{p.wall_s:.3f}" for p in passes)
                + "  at reference speed: "
                + " ".join(f"{w:.3f}" for w in walls))
    finally:
        _remove_workdir(workdir)
    if not smoke and seed == REFERENCE_SEED:
        _check_reference(name, passes)
    attempted, failed = _error_count(passes)
    for index, run in enumerate(passes):
        for label, problems in sorted(run.problems.items()):
            for problem in problems:
                log(f"CHECK FAILED pass {index} {label}: {problem}")
    log(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }


def _log_layers(
    log: Callable[[str], None],
    metrics: Dict[str, Tuple[float, str]],
    untraced_wall_s: float,
) -> None:
    wall = metrics["trace.wall_s"][0]
    log(f"untraced wall_s {untraced_wall_s:.3f}  traced wall_s {wall:.3f}  "
        f"trace.overhead_s {metrics['trace.overhead_s'][0]:.3f}")
    log(f"{'layer (self time)':<24}{'seconds':>10}{'share':>8}")
    rows = [(layer, metrics[f"self.{layer}_s"][0]) for layer in SELF_LAYERS]
    rows.append(("other", metrics["other.self_s"][0]))
    for layer, value in rows:
        log(f"{layer:<24}{value:>10.3f}{value / wall:>8.1%}")
    log(f"{'sum':<24}{sum(v for _, v in rows):>10.3f}{'':>8}")
