"""Barrier-synchronized phase loop: collective cohorts over flowsim.

The :class:`~repro.sim.flowsim.FlowSimulator` models one open workload:
flows arrive, share, finish.  Training traffic is closed-loop — every
iteration, each job's workers exchange a collective's worth of bytes,
wait for the last flow (the barrier), compute, and go again.  The
:class:`PhaseCohortDriver` turns that loop into a sequence of flowsim
runs:

* each iteration's communication phase is one *flow cohort*: the
  concurrent collective flows of every job still training, all starting
  at local time zero (the barrier resets the clock every phase);
* the cohort runs to completion on a fresh simulator seeded by
  :func:`phase_seed`, so ECMP hash draws differ across phases but every
  phase is independently reproducible — and a single-phase run is
  *bit-for-bit identical* to handing the same flows to a plain
  :class:`FlowSimulator` with the same seed;
* a job's communication time is its last flow's finish time; adding the
  job's fixed computation time yields the iteration time, accumulated
  into a :class:`~repro.sim.results.JobTimeline` per job.

Routing schemes that expose ``observe`` (coarse adaptive routing) get
the cohort's rack-level byte demands before each phase, modeling a
control loop that re-evaluates once per training iteration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.network import Network
from repro.core.seeding import stable_seed
from repro.routing.base import RoutingScheme
from repro.sim.engine import trace as sim_trace
from repro.sim.flowsim import FlowSimulator
from repro.sim.results import (
    CollectiveResults,
    FctResults,
    IterationRecord,
    JobTimeline,
)
from repro.traffic.collectives import (
    JobPlacement,
    collective_flows,
    identity_placement,
    rack_demands_of_flows,
)
from repro.traffic.flows import Flow


def phase_seed(seed: int, iteration: int) -> int:
    """The simulator seed of one phase, derived stably from the run seed.

    Exported so tests (and anyone replaying a single phase) can build a
    plain :class:`FlowSimulator` that reproduces the driver's ECMP hash
    draws exactly.
    """
    return stable_seed("ml-phase", seed, iteration)


class PhaseCohortDriver:
    """Runs placed training jobs through the barrier-synchronized loop."""

    def __init__(
        self,
        network: Network,
        routing: RoutingScheme,
        placements: Sequence[JobPlacement],
        seed: int = 0,
        hop_latency_s: float = 0.0,
        keep_phase_records: bool = False,
    ) -> None:
        if not placements:
            raise ValueError("need at least one placed job")
        if routing.network is not network:
            raise ValueError("routing was built for a different network")
        for placement in placements:
            for server in placement.servers:
                if not 0 <= server < network.num_servers:
                    raise ValueError(
                        f"job {placement.job.name!r} placed on server "
                        f"{server}, outside the network"
                    )
        names = [p.job.name for p in placements]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be distinct, got {names}")
        self.network = network
        self.routing = routing
        self.placements = tuple(placements)
        self.seed = seed
        self.hop_latency_s = hop_latency_s
        self.keep_phase_records = keep_phase_records
        # Collective flows are authored in network server space; the
        # identity placement hands them through the simulator untouched.
        self._placement = identity_placement(network)
        # Flows attribute to jobs by source server, so placements must
        # be disjoint — an overlap would double-book the server's links
        # and make the attribution ambiguous.
        self._job_of_server: Dict[int, int] = {}
        for index, placement in enumerate(self.placements):
            for server in placement.servers:
                owner = self._job_of_server.setdefault(server, index)
                if owner != index:
                    raise ValueError(
                        f"jobs {self.placements[owner].job.name!r} and "
                        f"{placement.job.name!r} share server {server}"
                    )
        #: Per-job last-finish scratch, refilled once per phase.
        self._finish = np.zeros(len(self.placements))
        #: One simulator reused across phases via ``reset(seed)``.
        self._simulator: Optional[FlowSimulator] = None
        #: Instrumentation from the most recent :meth:`run`.
        self.trace = sim_trace.SimTrace()

    # ------------------------------------------------------------------

    def _job_comm_times(self, results: FctResults) -> np.ndarray:
        """Last-flow finish time per job index, in one pass over records.

        Phases run on a local clock starting at zero, so the maximum
        finish time *is* the communication time.  Flows attribute to
        jobs by source server — placements are disjoint (validated at
        construction), so every flow belongs to exactly one job, and a
        single sweep replaces the old per-job rescan of every record.
        """
        finish = self._finish
        finish.fill(0.0)
        job_of_server = self._job_of_server
        for record in results.records:
            index = job_of_server[record.src_server]
            if record.finish_time > finish[index]:
                finish[index] = record.finish_time
        return finish

    def run(self) -> CollectiveResults:
        """Run every job to its final iteration; return all timelines."""
        driver_trace = sim_trace.SimTrace()
        timelines = {
            p.job.name: JobTimeline(job=p.job.name)
            for p in self.placements
        }
        collected = CollectiveResults(
            timelines=[timelines[p.job.name] for p in self.placements]
        )
        total_iterations = max(
            p.job.num_iterations for p in self.placements
        )
        # Hoisted out of the phase loop: a job's collective flows are a
        # pure function of its placement, the active set only shrinks
        # (jobs drop out after their final iteration, order preserved),
        # and one cohort buffer serves every phase.
        phase_flows = [
            collective_flows(p, start_time=0.0) for p in self.placements
        ]
        active = list(range(len(self.placements)))
        cohort: List[Flow] = []
        spans: List[int] = []
        for iteration in range(total_iterations):
            for position in range(len(active) - 1, -1, -1):
                job = self.placements[active[position]].job
                if iteration >= job.num_iterations:
                    del active[position]
            cohort.clear()
            spans.clear()
            for index in active:
                flows = phase_flows[index]
                spans.append(len(flows))
                cohort.extend(flows)
            driver_trace.count("phases")
            driver_trace.count("phase_flows", len(cohort))
            driver_trace.count("job_iterations", len(active))
            results = self._run_phase(cohort, iteration)
            comm_times = (
                self._job_comm_times(results)
                if results is not None
                else None
            )
            for index, span in zip(active, spans):
                job = self.placements[index].job
                comm_time_s = (
                    float(comm_times[index])
                    if comm_times is not None
                    else 0.0
                )
                timelines[job.name].add(
                    IterationRecord(
                        job=job.name,
                        iteration=iteration,
                        comm_time_s=comm_time_s,
                        comp_time_s=job.comp_time_s,
                        num_flows=span,
                    )
                )
            if self.keep_phase_records and results is not None:
                collected.phase_records.append(results)
        self.trace = driver_trace
        collector = sim_trace.current()
        if collector is not None:
            collector.merge(driver_trace)
        return collected

    def _run_phase(
        self, cohort: Sequence[Flow], iteration: int
    ) -> Optional[FctResults]:
        """Simulate one phase-seeded cohort on the reused simulator.

        The driver keeps one :class:`FlowSimulator` and rewinds it with
        :meth:`FlowSimulator.reset` between phases instead of paying
        routing compilation and buffer allocation per phase;
        ``reset(seed)`` is bit-identical to fresh construction, so phase
        results are unchanged.
        """
        if not cohort:
            # Every active job is single-worker: nothing on the wire.
            return None
        observe = getattr(self.routing, "observe", None)
        if observe is not None:
            # Optional control-loop probe, one call per phase.
            observe(rack_demands_of_flows(cohort, self.network))
        if self._simulator is None:
            self._simulator = FlowSimulator(
                self.network,
                self.routing,
                self._placement,
                seed=phase_seed(self.seed, iteration),
                hop_latency_s=self.hop_latency_s,
            )
        else:
            self._simulator.reset(seed=phase_seed(self.seed, iteration))
        return self._simulator.run(cohort)


def run_collectives(
    network: Network,
    routing: RoutingScheme,
    placements: Sequence[JobPlacement],
    seed: int = 0,
    hop_latency_s: float = 0.0,
    keep_phase_records: bool = False,
) -> CollectiveResults:
    """Convenience wrapper: build the driver and run the full loop."""
    driver = PhaseCohortDriver(
        network,
        routing,
        placements,
        seed=seed,
        hop_latency_s=hop_latency_s,
        keep_phase_records=keep_phase_records,
    )
    return driver.run()
