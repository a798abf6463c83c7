"""ML collective sweep: iteration time across topology x placement.

The paper's transit-bandwidth argument says a flat fabric has enough
spare capacity to carry traffic that a leaf-spine would send through its
spine.  Synchronized training collectives are the sharpest probe of that
claim: every iteration, whole jobs burst all at once, and the fabric
either absorbs the cohort or the barrier stretches.  This sweep measures
per-job **iteration time** (communication phase completion plus fixed
computation, :mod:`repro.sim.phases`) over

* topology — leaf-spine vs the flat DRing/RRG/Xpander suite,
* routing — ECMP, SU(2), or the coarse adaptive controller,
* placement policy — ``compact`` / ``random`` / ``striped`` worker
  placement (:func:`repro.traffic.collectives.place_jobs`),
* placement seed — independent draws of the seeded policies.

Every cell is a pure function of ``(scale, topology, scheme, policy,
placement_seed, seed)``, so the sweep harness content-addresses it like
any other figure cell.  Workload and placement seeds deliberately do
*not* fold in the routing scheme: every scheme faces byte-identical
cohorts from identically placed jobs, so columns compare directly —
the same discipline as the failure sweep.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.network import Network
from repro.core.seeding import stable_seed
from repro.experiments.runner import Scale, build_routing, build_topology
from repro.routing import RoutingScheme
from repro.sim.phases import run_collectives
from repro.traffic.collectives import TrainingJob, place_jobs

#: Topologies the sweep covers (the same four as the failure sweep).
ML_TOPOLOGIES: Tuple[str, ...] = ("leaf-spine", "dring", "rrg", "xpander")

#: Routing schemes compared on every topology.
ML_SCHEMES: Tuple[str, ...] = ("ecmp", "su2", "adaptive")

#: Placement policies the default sweep compares.
ML_POLICIES: Tuple[str, ...] = ("compact", "random")


def build_ml_topology(kind: str, scale: Scale, seed: int = 0) -> Network:
    """One sweep topology at the given scale (the shared recipe)."""
    if kind not in ML_TOPOLOGIES:
        raise ValueError(
            f"unknown ml-sweep topology {kind!r}; know {list(ML_TOPOLOGIES)}"
        )
    return build_topology(kind, scale, seed=seed)


def build_ml_routing(scheme: str, network: Network) -> RoutingScheme:
    """One sweep routing scheme on ``network`` (the shared recipe)."""
    if scheme not in ML_SCHEMES:
        raise ValueError(
            f"unknown ml-sweep scheme {scheme!r}; know {list(ML_SCHEMES)}"
        )
    return build_routing(scheme, network)


def ml_capacity(scale: Scale) -> int:
    """Servers available on the *smallest* sweep topology at this scale.

    Jobs must be identical across topologies for columns to compare, so
    the default workload sizes itself to fit everywhere.  Server counts
    do not depend on the build seed, so seed 0 is representative.
    """
    return min(
        build_ml_topology(kind, scale).num_servers for kind in ML_TOPOLOGIES
    )


def default_training_jobs(scale: Scale) -> Tuple[TrainingJob, ...]:
    """The standard three-job mix, sized to fit every sweep topology.

    A wide data-parallel job (ring all-reduce over two layers), a deep
    narrow one (four layers, heavier comp), and an all-to-all
    expert-style job — together claiming roughly half the smallest
    fabric's servers, so even ``compact`` placement spans racks.
    """
    capacity = ml_capacity(scale)
    return (
        TrainingJob(
            name="dp-wide",
            num_workers=max(4, capacity // 4),
            comm_size_bytes=4e6,
            comp_time_s=1e-3,
            num_layers=2,
            num_iterations=3,
            collective="ring-allreduce",
        ),
        TrainingJob(
            name="dp-deep",
            num_workers=max(2, capacity // 8),
            comm_size_bytes=1e6,
            comp_time_s=2e-3,
            num_layers=4,
            num_iterations=2,
            collective="ring-allreduce",
        ),
        TrainingJob(
            name="moe",
            num_workers=max(4, capacity // 8),
            comm_size_bytes=2e6,
            comp_time_s=5e-4,
            num_layers=1,
            num_iterations=3,
            collective="all-to-all",
        ),
    )


# ----------------------------------------------------------------------
# One sweep cell
# ----------------------------------------------------------------------


def run_ml_cell(
    scale: Scale,
    topology: str,
    scheme: str,
    policy: str = "compact",
    placement_seed: int = 0,
    seed: int = 0,
    jobs: Optional[Sequence[TrainingJob]] = None,
) -> Dict[str, Any]:
    """Run one ML-sweep cell; returns a JSON-serializable record.

    The record carries the headline ``iteration_time_s`` (mean over
    jobs), the straggler view, per-job summaries, and the full
    :class:`~repro.sim.results.CollectiveResults` payload so cached
    cells re-render exactly.
    """
    network = build_ml_topology(topology, scale, seed=seed)
    routing = build_ml_routing(scheme, network)
    if jobs is None:
        jobs = default_training_jobs(scale)
    placements = place_jobs(
        jobs, network, policy=policy, seed=placement_seed
    )
    driver_seed = stable_seed("ml-run", seed, topology, policy, placement_seed)
    results = run_collectives(
        network, routing, placements, seed=driver_seed
    )
    job_rows = []
    for placement in placements:
        timeline = results.timeline(placement.job.name)
        mean_comm = sum(
            r.comm_time_s for r in timeline.records
        ) / len(timeline.records)
        job_rows.append(
            {
                "job": placement.job.name,
                "collective": placement.job.collective,
                "num_workers": placement.job.num_workers,
                "racks": len(placement.racks(network)),
                "iterations": timeline.num_iterations,
                "mean_comm_time_s": mean_comm,
                "mean_iteration_time_s": timeline.mean_iteration_time_s(),
            }
        )
    return {
        "topology": topology,
        "scheme": scheme,
        "policy": policy,
        "placement_seed": placement_seed,
        "num_jobs": len(placements),
        "num_workers": sum(p.job.num_workers for p in placements),
        "iteration_time_s": results.iteration_time_s(),
        "max_iteration_time_s": results.max_iteration_time_s(),
        "jobs": job_rows,
        "collective": results.to_json_dict(),
    }


# ----------------------------------------------------------------------
# Aggregation and rendering
# ----------------------------------------------------------------------


def ml_table_from_cells(
    cells: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Average per-placement-seed cells into one row per sweep point.

    Rows are keyed (topology, scheme, policy), averaged over placement
    seeds.
    """
    grouped: Dict[Tuple[str, str, str], List[Dict[str, Any]]] = {}
    for cell in cells:
        key = (cell["topology"], cell["scheme"], cell["policy"])
        grouped.setdefault(key, []).append(cell)
    rows: List[Dict[str, Any]] = []
    for (topology, scheme, policy), members in sorted(grouped.items()):
        rows.append(
            {
                "topology": topology,
                "scheme": scheme,
                "policy": policy,
                "seeds": len(members),
                "iteration_time_s": _mean(
                    [m["iteration_time_s"] for m in members]
                ),
                "max_iteration_time_s": _mean(
                    [m["max_iteration_time_s"] for m in members]
                ),
            }
        )
    return rows


def placement_sensitivity(
    cells: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Random-over-compact iteration-time ratio per (topology, scheme).

    The headline comparison: a fabric whose verdict barely moves when
    placement degrades from compact to random is placement-insensitive
    — the property the paper claims for flat topologies.
    """
    rows = ml_table_from_cells(cells)
    by_point = {
        (row["topology"], row["scheme"], row["policy"]): row for row in rows
    }
    pairs = sorted(
        {(row["topology"], row["scheme"]) for row in rows}
    )
    out: List[Dict[str, Any]] = []
    for topology, scheme in pairs:
        compact = by_point.get((topology, scheme, "compact"))
        scattered = by_point.get((topology, scheme, "random"))
        if compact is None or scattered is None:
            continue
        baseline = compact["iteration_time_s"]
        out.append(
            {
                "topology": topology,
                "scheme": scheme,
                "compact_s": baseline,
                "random_s": scattered["iteration_time_s"],
                "sensitivity": (
                    scattered["iteration_time_s"] / baseline
                    if baseline > 0
                    else 0.0
                ),
            }
        )
    return out


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def render_ml_sweep(cells: Sequence[Dict[str, Any]]) -> str:
    """Text table: iteration time per sweep point, then sensitivity."""
    rows = ml_table_from_cells(cells)
    lines: List[str] = ["ML collectives — mean iteration time"]
    lines.append(
        f"{'topology':<12}{'scheme':<10}{'policy':<10}{'seeds':>6}"
        f"{'iter time':>12}{'straggler':>12}"
    )
    for row in rows:
        lines.append(
            f"{row['topology']:<12}{row['scheme']:<10}{row['policy']:<10}"
            f"{row['seeds']:>6}"
            f"{1e3 * row['iteration_time_s']:>10.3f}ms"
            f"{1e3 * row['max_iteration_time_s']:>10.3f}ms"
        )
    sensitivity = placement_sensitivity(cells)
    if sensitivity:
        lines.append("")
        lines.append("Placement sensitivity (random / compact)")
        lines.append(
            f"{'topology':<12}{'scheme':<10}{'compact':>12}{'random':>12}"
            f"{'ratio':>8}"
        )
        for row in sensitivity:
            lines.append(
                f"{row['topology']:<12}{row['scheme']:<10}"
                f"{1e3 * row['compact_s']:>10.3f}ms"
                f"{1e3 * row['random_s']:>10.3f}ms"
                f"{row['sensitivity']:>7.2f}x"
            )
    return "\n".join(lines)
