"""ML training workloads: collective phases over placed worker racks.

Every traffic model in the repo so far is phase-free — flows arrive
independently over a window.  Synchronized training traffic is the
opposite: a job's workers all communicate at once (an all-reduce or
all-to-all per layer), then all compute, then do it again, for many
iterations.  Whether a flat topology can absorb that burst structure is
exactly the question the paper's transit-bandwidth argument raises, so
this module models it directly:

* a :class:`TrainingJob` is the (comm-size, comp-size, layer-count,
  iteration-count) tuple of the classic training-loop abstraction;
* :func:`place_jobs` assigns each job's workers to network servers
  under a pluggable, seeded placement policy (``compact`` packs racks,
  ``random`` scatters, ``striped`` round-robins across racks);
* :func:`collective_flows` expands one communication phase into
  concrete :class:`~repro.traffic.flows.Flow` objects — a ring
  all-reduce or an all-to-all schedule over the placed workers;
* :func:`identity_placement` adapts the network-server-space flows to
  the simulator's canonical-space interface without remapping.

The barrier-synchronized phase loop that strings iterations together
lives in :mod:`repro.sim.phases`; this module is pure workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.network import Network
from repro.core.seeding import stable_seed
from repro.traffic.flows import Flow
from repro.traffic.matrix import CanonicalCluster, Placement, RackPair

#: Collective schedules a job's communication phase can follow.
COLLECTIVE_KINDS: Tuple[str, ...] = ("ring-allreduce", "all-to-all")

#: Placement policies understood by :func:`place_jobs`.
PLACEMENT_POLICIES: Tuple[str, ...] = ("compact", "random", "striped")


@dataclass(frozen=True)
class TrainingJob:
    """One training job as a (comm, comp, layers, iterations) tuple.

    ``comm_size_bytes`` is the per-layer gradient (or embedding) volume
    each worker contributes to one communication phase;
    ``comp_time_s`` is the computation between communication phases —
    the "comp-size" of the tuple, in seconds.  Ring all-reduce models
    data-parallel gradient exchange; all-to-all models expert/embedding
    shuffles.
    """

    name: str
    num_workers: int
    comm_size_bytes: float
    comp_time_s: float
    num_layers: int = 1
    num_iterations: int = 1
    collective: str = "ring-allreduce"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.num_workers < 1:
            raise ValueError("job needs at least one worker")
        if self.comm_size_bytes <= 0:
            raise ValueError("comm size must be positive")
        if self.comp_time_s < 0:
            raise ValueError("comp time must be non-negative")
        if self.num_layers < 1:
            raise ValueError("job needs at least one layer")
        if self.num_iterations < 1:
            raise ValueError("job needs at least one iteration")
        if self.collective not in COLLECTIVE_KINDS:
            raise ValueError(
                f"unknown collective {self.collective!r}; "
                f"expected one of {COLLECTIVE_KINDS}"
            )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "num_workers": self.num_workers,
            "comm_size_bytes": self.comm_size_bytes,
            "comp_time_s": self.comp_time_s,
            "num_layers": self.num_layers,
            "num_iterations": self.num_iterations,
            "collective": self.collective,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "TrainingJob":
        return cls(
            name=str(data["name"]),
            num_workers=int(data["num_workers"]),  # type: ignore[call-overload]
            comm_size_bytes=float(data["comm_size_bytes"]),  # type: ignore[arg-type]
            comp_time_s=float(data["comp_time_s"]),  # type: ignore[arg-type]
            num_layers=int(data["num_layers"]),  # type: ignore[call-overload]
            num_iterations=int(data["num_iterations"]),  # type: ignore[call-overload]
            collective=str(data["collective"]),
        )


@dataclass(frozen=True)
class JobPlacement:
    """A job pinned to concrete network servers, one per worker.

    Worker i runs on ``servers[i]``; the order is load-bearing for the
    ring schedule (worker i's ring successor is worker i+1 mod W).
    """

    job: TrainingJob
    servers: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.servers) != self.job.num_workers:
            raise ValueError(
                f"job {self.job.name!r} has {self.job.num_workers} "
                f"workers but {len(self.servers)} servers"
            )
        if len(set(self.servers)) != len(self.servers):
            raise ValueError(
                f"job {self.job.name!r} placement repeats a server"
            )

    def racks(self, network: Network) -> List[int]:
        """The distinct rack switches this job's workers occupy."""
        return sorted({
            network.switch_of_server(server) for server in self.servers
        })


def _server_visit_order(
    network: Network, policy: str, seed: int
) -> List[int]:
    """The order in which a policy hands out network servers.

    * ``compact`` — natural rack-major order: jobs pack into as few
      racks as possible, each rack filling before the next opens.
    * ``random`` — a seeded shuffle of every server; a job's workers
      land wherever the permutation puts them.
    * ``striped`` — round-robin across racks (first server of every
      rack, then the second of every rack, ...): consecutive workers
      land on distinct racks until the racks wrap.
    """
    if policy == "compact":
        return list(network.server_ids())
    if policy == "random":
        order = list(network.server_ids())
        rng = random.Random(stable_seed("ml-placement", policy, seed))
        rng.shuffle(order)
        return order
    if policy == "striped":
        per_rack = [
            list(network.servers_of_switch(rack)) for rack in network.racks
        ]
        depth = max((len(servers) for servers in per_rack), default=0)
        order = []
        for slot in range(depth):
            for servers in per_rack:
                if slot < len(servers):
                    order.append(servers[slot])
        return order
    raise ValueError(
        f"unknown placement policy {policy!r}; "
        f"expected one of {PLACEMENT_POLICIES}"
    )


def place_jobs(
    jobs: Sequence[TrainingJob],
    network: Network,
    policy: str = "compact",
    seed: int = 0,
) -> Tuple[JobPlacement, ...]:
    """Assign every job's workers to network servers under one policy.

    Jobs are placed in the order given, each consuming the next
    ``num_workers`` servers of the policy's visit order, so placements
    are disjoint across jobs and deterministic: the same (jobs, policy,
    seed) produces the same assignment in every process (the shuffle is
    seeded through :func:`~repro.core.seeding.stable_seed`, never the
    builtin ``hash``).
    """
    if not jobs:
        raise ValueError("need at least one job to place")
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"job names must be distinct, got {names}")
    demand = sum(job.num_workers for job in jobs)
    if demand > network.num_servers:
        raise ValueError(
            f"jobs need {demand} servers but the network has "
            f"{network.num_servers}"
        )
    order = _server_visit_order(network, policy, seed)
    placements: List[JobPlacement] = []
    cursor = 0
    for job in jobs:
        span = order[cursor:cursor + job.num_workers]
        cursor += job.num_workers
        placements.append(JobPlacement(job=job, servers=tuple(span)))
    return tuple(placements)


def collective_flows(
    placement: JobPlacement, start_time: float = 0.0
) -> List[Flow]:
    """One communication phase of a placed job, as concrete flows.

    Flows are authored directly in *network* server space (pair with
    :func:`identity_placement` when handing them to the simulator).

    * ``ring-allreduce`` — the classic bandwidth-optimal schedule: per
      layer, each worker moves ``2 (W-1)/W x comm`` bytes to its ring
      successor (reduce-scatter plus all-gather, W-1 steps each of
      ``comm/W`` bytes, modeled as one aggregate flow per direction).
    * ``all-to-all`` — per layer, each worker sends ``comm/(W-1)``
      bytes to every other worker.

    A single-worker job has no communication phase: empty list.
    """
    job = placement.job
    workers = job.num_workers
    if workers < 2:
        return []
    servers = placement.servers
    flows: List[Flow] = []
    if job.collective == "ring-allreduce":
        size = 2.0 * (workers - 1) / workers * job.comm_size_bytes
        for _layer in range(job.num_layers):
            for index, src in enumerate(servers):
                dst = servers[(index + 1) % workers]
                flows.append(Flow(src, dst, size, start_time))
    else:  # all-to-all
        size = job.comm_size_bytes / (workers - 1)
        for _layer in range(job.num_layers):
            for src in servers:
                for dst in servers:
                    if dst != src:
                        flows.append(Flow(src, dst, size, start_time))
    return flows


def identity_placement(network: Network) -> Placement:
    """A Placement whose canonical space *is* the network's servers.

    Collective flows name network servers directly; wrapping the
    network in a one-rack canonical cluster of exactly its server count
    makes the linear placement map the identity, so the simulator's
    canonical-space interface passes them through untouched.
    """
    cluster = CanonicalCluster(
        num_racks=1, servers_per_rack=network.num_servers
    )
    return Placement(cluster, network)


def job_of_server(
    placements: Sequence[JobPlacement],
) -> Dict[int, str]:
    """Server -> job-name map (placements are disjoint by construction)."""
    mapping: Dict[int, str] = {}
    for placement in placements:
        for server in placement.servers:
            mapping[server] = placement.job.name
    return mapping


def rack_demands_of_flows(
    flows: Sequence[Flow], network: Network
) -> Dict[RackPair, float]:
    """Aggregate a flow cohort into rack-pair byte demands.

    This is the observation adaptive routing consumes before a phase:
    bytes summed by (source rack, destination rack), intra-rack pairs
    dropped (they never touch network links).
    """
    demands: Dict[RackPair, float] = {}
    for flow in flows:
        src_rack = network.switch_of_server(flow.src_server)
        dst_rack = network.switch_of_server(flow.dst_server)
        if src_rack == dst_rack:
            continue
        key = (src_rack, dst_rack)
        demands[key] = demands.get(key, 0.0) + flow.size_bytes
    return demands
