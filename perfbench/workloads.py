"""The benchmark's workloads: what one pass runs, sets up and checks.

Every pass starts cold: fresh topology, routing and simulator objects,
an empty result-cache directory and a cleared source-fingerprint memo,
because every harness job and service job starts that way.  A pass is
timed from the job specs to the last cached record (fig4) or from the
cell arguments to the last cell record (ML); the output checks of
:mod:`perfbench.checks` run after the clock stops.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import pathlib
import shutil
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments import fig4_fct, ml_sweep
from repro.experiments.runner import MEDIUM, Scale, build_scheme, register_scale
from repro.harness import JobSpec, ResultCache, executor
from repro.harness.fingerprint import clear_fingerprint_cache
from repro.sim.engine import trace as sim_trace
from repro.sim.flowsim import FlowSimulator
from repro.sim.results import FctResults
from repro.traffic import collectives

from perfbench.checks import capacity_of_path, record_problems
from perfbench.spans import SpanRecorder

#: Load the fig4 cells are offered, as a share of spine capacity.
UTILIZATION = 0.30

#: The ROADMAP large-tier recipe (30% load, 10 MB size cap), scaled to
#: DRing(32, 8): 256 racks, 1536 servers, 50k flows.
LARGE = register_scale(
    Scale(
        name="perfbench-large",
        leaf_x=32,
        leaf_y=1,
        dring_m=32,
        dring_n=8,
        dring_servers=1536,
        max_flows=50_000,
        window_seconds=10.0,
        size_cap_bytes=10e6,
    )
)

#: Smoke-mode scale: the same code paths on a few hundred flows.
TINY = register_scale(
    Scale(
        name="perfbench-tiny",
        leaf_x=6,
        leaf_y=2,
        dring_m=6,
        dring_n=2,
        dring_servers=48,
        max_flows=200,
        window_seconds=0.02,
        size_cap_bytes=10e6,
    )
)

#: Iterations per job in the ML workload's three-job mix.
ML_ITERATIONS = 15

#: Placement draw of the ML cells.  Part of the workload's definition,
#: not of the seed: a random placement decides which racks each job
#: spans, and with it most of a cell's run time, so reseeding it moved
#: the workload's wall time by more than the benchmark's bound.  The
#: seed still drives every phase's ECMP / VRF hash draws.
ML_PLACEMENT_SEED = 0


@dataclasses.dataclass
class Pass:
    """What one timed pass did and whether its outputs were right."""

    #: Pass seconds, not counting the per-run checks.
    wall_s: float
    cells: int
    #: Problems per failed cell; a cell is counted once however many
    #: checks it fails.
    problems: Dict[str, List[str]]
    #: Headline numbers at printed precision, for the reference check.
    headline: Dict[str, str]
    #: Summed ``SimTrace`` of every simulator run in the pass.
    sim: sim_trace.SimTrace
    #: ``run_jobs`` wall time minus the jobs' own seconds (fig4 only).
    harness_overhead_s: float = 0.0
    #: Bytes of result records produced.
    result_bytes: int = 0

    @property
    def flows(self) -> int:
        """Simulated flows completed."""
        return self.sim.counters.get("flows_completed", 0)


@dataclasses.dataclass
class RunChecks:
    """Problems found per simulator run, and the seconds spent finding them."""

    problems: List[List[str]] = dataclasses.field(default_factory=list)
    paused_s: float = 0.0


@contextlib.contextmanager
def checked_runs() -> Iterator[RunChecks]:
    """Check each simulator run's records against its input flows.

    Each run is checked as it returns, so no run's records outlive it
    (which would inflate the peak memory the pass reports); the pass
    takes :attr:`RunChecks.paused_s` out of its wall time.
    """
    checks = RunChecks()
    original = FlowSimulator.__dict__["run"]

    def run(self: FlowSimulator, flows: Sequence[Any]) -> FctResults:
        results = original(self, flows)
        started = time.perf_counter()
        checks.problems.append(run_problems(self, flows, results))
        checks.paused_s += time.perf_counter() - started
        return results

    FlowSimulator.run = run  # type: ignore[method-assign]
    try:
        yield checks
    finally:
        FlowSimulator.run = original  # type: ignore[method-assign]


def run_problems(
    simulator: FlowSimulator, flows: Sequence[Any], results: FctResults
) -> List[str]:
    """Invariant violations of one simulator run's records."""
    placement = simulator.placement
    expected = (
        (
            placement.network_server(flow.src_server),
            placement.network_server(flow.dst_server),
            flow.size_bytes,
            flow.start_time,
        )
        for flow in flows
    )
    rows = (
        (r.src_server, r.dst_server, r.size_bytes, r.start_time,
         r.finish_time, r.path)
        for r in results.records
    )
    return record_problems(expected, rows, capacity_of_path(simulator.network))


@contextlib.contextmanager
def _timed(spans: Optional[SpanRecorder]) -> Iterator[Optional[RunChecks]]:
    """Enter the tracer, or the per-run checks when there is no tracer.

    A traced pass repeats the inputs of the untraced pass before it,
    whose runs were checked; checking inside the traced pass would put
    the checks' time into the layers' spans.
    """
    if spans is None:
        with checked_runs() as checks:
            yield checks
    else:
        with spans:
            yield None


def _cell_problems(
    checks: Optional[RunChecks], runs_per_cell: Sequence[int]
) -> List[List[str]]:
    """Split the per-run problems by cell (empty lists when unchecked)."""
    if checks is None:
        return [[] for _ in runs_per_cell]
    if sum(runs_per_cell) != len(checks.problems):
        mismatch = (
            f"{len(checks.problems)} simulator runs checked, "
            f"{sum(runs_per_cell)} expected"
        )
        return [[mismatch] for _ in runs_per_cell]
    cells, first = [], 0
    for count in runs_per_cell:
        cells.append(
            [p for run in checks.problems[first:first + count] for p in run]
        )
        first += count
    return cells


@dataclasses.dataclass(frozen=True)
class Fig4Workload:
    """Fig 4 cells submitted as harness jobs into an empty cache."""

    name: str
    scale: Scale
    #: (pattern label, scheme label) per cell.
    cells: Tuple[Tuple[str, str], ...]

    def setup(self, seed: int) -> None:
        """Build each cell's inputs the way its job does, without running.

        A copy of the set-up steps of ``run_fig4_cell``; keep the two in
        sync (``perfbench/tests`` compares their set-up layer calls).
        """
        for pattern, scheme in self.cells:
            patterns = fig4_fct.fig4_patterns(self.scale, seed=seed)
            spec = {p.label: p for p in patterns}[pattern]
            tut = build_scheme(scheme, self.scale, seed=seed)
            fig4_fct._pattern_flows(self.scale, spec, seed, UTILIZATION)
            tut.placement(shuffle=spec.random_placement, seed=seed)
            tut.routing.compile(tut.network.link_table())

    def specs(self, seed: int) -> List[JobSpec]:
        return [
            JobSpec.make(
                "fig4", scale=self.scale.name, scheme=scheme,
                pattern=pattern, seed=seed,
            )
            for pattern, scheme in self.cells
        ]

    def run_pass(
        self,
        seed: int,
        workdir: pathlib.Path,
        spans: Optional[SpanRecorder] = None,
    ) -> Pass:
        """One cold pass, traced by ``spans`` when given."""
        clear_fingerprint_cache()
        cache_dir = pathlib.Path(tempfile.mkdtemp(dir=workdir))
        try:
            cache = ResultCache(cache_dir)
            with _timed(spans) as checks:
                started = time.perf_counter()
                results, outcomes = executor.run_jobs(
                    self.specs(seed), jobs=1, cache=cache
                )
                elapsed = time.perf_counter() - started
            result_bytes = sum(
                path.stat().st_size for path in cache_dir.rglob("*.json")
            )
            cached = {o.key: cache.get(o.key) for o in outcomes}
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        sim = sim_trace.SimTrace()
        problems: Dict[str, List[str]] = {}
        headline: Dict[str, str] = {}
        cell_problems = _cell_problems(checks, [1] * len(self.cells))
        for (pattern, scheme), outcome, found in zip(
            self.cells, outcomes, cell_problems
        ):
            label = f"{pattern} x {scheme}"
            if outcome.status != "ran":
                problems[label] = [f"job {outcome.status}: {outcome.error}"]
                continue
            part = sim_trace.SimTrace()
            part.counters.update(outcome.trace.get("counters", {}))
            part.timers.update(outcome.trace.get("timers", {}))
            sim.merge(part)
            payload = results[outcome.key]
            if cached[outcome.key] != payload:
                found.append("cached record differs from the job's result")
            fct = FctResults.from_json_dict(payload)
            if fct.num_flows != part.counters.get("flows_admitted"):
                found.append(
                    f"{fct.num_flows} records for "
                    f"{part.counters.get('flows_admitted')} flows"
                )
            if found:
                problems[label] = found
            headline[f"{label} median_ms"] = f"{fct.median_fct_ms():.3f}"
            headline[f"{label} p99_ms"] = f"{fct.p99_fct_ms():.3f}"
        paused = checks.paused_s if checks else 0.0
        return Pass(
            wall_s=elapsed - paused,
            cells=len(self.cells),
            problems=problems,
            headline=headline,
            sim=sim,
            harness_overhead_s=elapsed - sum(o.seconds for o in outcomes),
            result_bytes=result_bytes,
        )


@dataclasses.dataclass(frozen=True)
class MlWorkload:
    """ML collective cells run in-process through ``run_ml_cell``."""

    name: str
    scale: Scale
    #: (topology, scheme, placement policy) per cell.
    cells: Tuple[Tuple[str, str, str], ...]
    iterations: int = ML_ITERATIONS

    @functools.cached_property
    def jobs(self) -> Tuple[collectives.TrainingJob, ...]:
        """The default three-job mix at :attr:`iterations` iterations."""
        return tuple(
            dataclasses.replace(job, num_iterations=self.iterations)
            for job in ml_sweep.default_training_jobs(self.scale)
        )

    def setup(self, seed: int) -> None:
        """Build each cell's inputs the way ``run_ml_cell`` does.

        A copy of its set-up steps and of the driver's collective flow
        authoring; keep the two in sync (``perfbench/tests`` compares
        their set-up layer calls).
        """
        jobs = self.jobs
        for topology, scheme, policy in self.cells:
            network = ml_sweep.build_ml_topology(topology, self.scale, seed=seed)
            routing = ml_sweep.build_ml_routing(scheme, network)
            placements = collectives.place_jobs(
                jobs, network, policy=policy, seed=ML_PLACEMENT_SEED
            )
            for placement in placements:
                collectives.collective_flows(placement, start_time=0.0)
            collectives.identity_placement(network)
            routing.compile(network.link_table())

    def run_pass(
        self,
        seed: int,
        workdir: pathlib.Path,
        spans: Optional[SpanRecorder] = None,
    ) -> Pass:
        """One cold pass, traced by ``spans`` when given."""
        jobs = self.jobs
        records = []
        with _timed(spans) as checks, sim_trace.collecting() as sim:
            started = time.perf_counter()
            for topology, scheme, policy in self.cells:
                records.append(
                    ml_sweep.run_ml_cell(
                        self.scale, topology, scheme, policy=policy,
                        placement_seed=ML_PLACEMENT_SEED, seed=seed,
                        jobs=jobs,
                    )
                )
            elapsed = time.perf_counter() - started
        problems: Dict[str, List[str]] = {}
        headline: Dict[str, str] = {}
        # One simulator run per phase: a phase per iteration of the
        # longest job.
        phases = max(job.num_iterations for job in jobs)
        cell_problems = _cell_problems(checks, [phases] * len(self.cells))
        for (topology, scheme, policy), record, found in zip(
            self.cells, records, cell_problems
        ):
            label = f"{topology}/{scheme}/{policy}"
            iterations = [row["iterations"] for row in record["jobs"]]
            if iterations != [job.num_iterations for job in jobs]:
                found.append(f"iterations per job {iterations}")
            if found:
                problems[label] = found
            headline[f"{label} iteration_ms"] = (
                f"{1e3 * record['iteration_time_s']:.3f}"
            )
        return Pass(
            wall_s=elapsed - (checks.paused_s if checks else 0.0),
            cells=len(self.cells),
            problems=problems,
            headline=headline,
            sim=sim,
            result_bytes=sum(len(json.dumps(r)) for r in records),
        )


WORKLOADS = {
    "fig4-medium": Fig4Workload(
        "fig4-medium",
        MEDIUM,
        (
            ("A2A", "DRing (su2)"),
            ("FB skewed (RP)", "RRG (su2)"),
            ("A2A", "leaf-spine (ecmp)"),
        ),
    ),
    "fig4-large": Fig4Workload("fig4-large", LARGE, (("A2A", "DRing (su2)"),)),
    "ml-collectives": MlWorkload(
        "ml-collectives",
        MEDIUM,
        (
            ("dring", "su2", "random"),
            ("leaf-spine", "ecmp", "random"),
            ("dring", "adaptive", "compact"),
        ),
    ),
}


def smoke(workload: Any) -> Any:
    """The same workload on the tiny scale (a quick end-to-end check)."""
    replaced = dataclasses.replace(workload, scale=TINY)
    if isinstance(workload, MlWorkload):
        replaced = dataclasses.replace(replaced, iterations=2)
    return replaced
