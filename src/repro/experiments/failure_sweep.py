"""Failure-resilience sweep: degradation curves under injected faults.

The paper argues (Section 3) that flat, spineless topologies degrade
more gracefully than leaf-spine because capacity and path diversity are
spread over many small switches instead of concentrated in a spine
layer.  This experiment quantifies that claim: for each (topology,
routing scheme, fault model, failure fraction, trial) cell it

1. samples a seeded fault scenario (:mod:`repro.faults`),
2. applies it to get a degraded network, measures surviving
   connectivity with :meth:`Network.partitioned_racks`,
3. *recomputes routing on the degraded topology* — the post-reconvergence
   state — and compares throughput, tail FCT and path diversity against
   the healthy network under the same demands,
4. prices the reconvergence itself by replaying the scenario's physical
   link-down events through the OSPF engine.

Every cell is a pure function of ``(scale, topology, scheme, spec,
trial, seed)``, which is what lets the sweep harness content-address it.
Fault scenarios and flow workloads deliberately do *not* fold the
routing scheme into their seeds: ECMP and SU(K) face byte-identical
failures and byte-identical offered traffic, so their columns are
directly comparable.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.network import Network
from repro.core.seeding import stable_seed
from repro.experiments.fig4_fct import PatternSpec, _pattern_flows
from repro.experiments.runner import Scale, build_routing, build_topology
from repro.faults import (
    DEFAULT_GRAY_CAPACITY,
    FaultSet,
    FaultSpec,
    apply_fault_set,
    physical_link_events,
    sample_fault_set,
)
from repro.igp.ospf import build_converged_igp
from repro.routing import RoutingScheme
from repro.sim.flowsim import FlowSimulator
from repro.sim.throughput import tm_throughput
from repro.traffic import Placement, uniform

#: Topologies the sweep covers by default (paper suite + one expander).
FAULT_TOPOLOGIES: Tuple[str, ...] = ("leaf-spine", "dring", "rrg", "xpander")

#: Routing schemes compared under every scenario.
FAULT_SCHEMES: Tuple[str, ...] = ("ecmp", "su2")

#: Default failed fractions for the degradation curves.
DEFAULT_FRACTIONS: Tuple[float, ...] = (0.02, 0.05, 0.10)

#: Rack pairs sampled for the path-diversity (dilution) statistic.
_PATH_SAMPLE_PAIRS = 40


def derived_seed(*parts: Any) -> int:
    """A cross-process-stable seed from heterogeneous parts.

    Alias of :func:`repro.core.seeding.stable_seed` (promoted there so
    the traffic layer can use it); kept here because cached faults
    results content-address through this math.
    """
    return stable_seed(*parts)


def build_fault_topology(kind: str, scale: Scale, seed: int = 0) -> Network:
    """One sweep topology at the given scale (the shared recipe)."""
    if kind not in FAULT_TOPOLOGIES:
        raise ValueError(
            f"unknown fault-sweep topology {kind!r}; "
            f"know {list(FAULT_TOPOLOGIES)}"
        )
    return build_topology(kind, scale, seed=seed)


# ----------------------------------------------------------------------
# One sweep cell
# ----------------------------------------------------------------------


def _reconvergence_cost(
    network: Network, fault_set: FaultSet
) -> Tuple[int, int]:
    """(rounds, LSAs) to re-flood the scenario's link-down events.

    Events replay one physical cable at a time against a converged OSPF
    fabric — the incremental repair an operator's control plane actually
    performs.  Gray failures produce no events (the adjacency stays up),
    so their cost is honestly zero.
    """
    events = physical_link_events(network, fault_set)
    if not events:
        return 0, 0
    fabric = build_converged_igp(network)
    rounds = 0
    lsas = 0
    for u, v in events:
        report = fabric.fail_link(u, v)
        rounds += report.rounds
        lsas += report.lsas_flooded
    return rounds, lsas


def _mean_path_count(
    routing: RoutingScheme, pairs: Sequence[Tuple[int, int]]
) -> float:
    if not pairs:
        return 0.0
    return sum(len(routing.paths(a, b)) for a, b in pairs) / len(pairs)


def run_failure_cell(
    scale: Scale,
    topology: str,
    scheme: str,
    kind: str = "link",
    fraction: float = 0.05,
    trial: int = 0,
    seed: int = 0,
    capacity_factor: float = DEFAULT_GRAY_CAPACITY,
) -> Dict[str, Any]:
    """Run one failure-sweep cell; returns a JSON-serializable record.

    Disconnection is a measured outcome, not an error: traffic is
    restricted to the largest surviving rack component and the record
    reports how much of the fabric that component retains.
    """
    if scheme not in FAULT_SCHEMES:
        raise ValueError(
            f"unknown fault-sweep scheme {scheme!r}; know {list(FAULT_SCHEMES)}"
        )
    network = build_fault_topology(topology, scale, seed=seed)
    spec = FaultSpec(kind, fraction, capacity_factor)
    fault_seed = derived_seed(
        "faults-scenario", seed, topology, kind, fraction, trial
    )
    if fraction > 0:
        fault_set = sample_fault_set(network, spec, fault_seed)
    else:
        fault_set = FaultSet()
    degraded = apply_fault_set(network, fault_set)
    # The healthy baseline is a same-generation copy: Graph.copy() does
    # not preserve adjacency iteration order, so sampling-based routing
    # on the original and on a copy can diverge even with equal seeds.
    # Two copies of the same original iterate identically, which makes
    # the fraction-0 cell an exact baseline (every ratio is 1.0).
    healthy = network.copy()

    groups = degraded.partitioned_racks()
    surviving = set(groups[0]) if groups else set()
    racks_total = len(network.racks)
    rounds, lsas = _reconvergence_cost(network, fault_set)

    record: Dict[str, Any] = {
        "topology": topology,
        "scheme": scheme,
        "kind": kind,
        "fraction": fraction,
        "trial": trial,
        "fault_fingerprint": fault_set.fingerprint(),
        "links_removed": len(fault_set.removed_links),
        "switches_failed": len(fault_set.failed_switches),
        "links_degraded": len(fault_set.degraded_links),
        "racks_total": racks_total,
        "racks_surviving": len(surviving),
        "partitions": len(groups),
        "ospf_rounds": rounds,
        "ospf_lsas": lsas,
        "throughput_ratio": 0.0,
        "path_ratio": 0.0,
        "fct_ratio": None,
        "healthy_p99_ms": None,
        "degraded_p99_ms": None,
        "hottest_links": [],
    }
    if len(surviving) < 2:
        # The fabric (as far as this traffic is concerned) is gone.
        return record

    healthy_routing = build_routing(scheme, healthy)
    degraded_routing = build_routing(scheme, degraded)

    # Steady-state throughput under uniform demands between surviving
    # racks — the same demand set on both networks, so the ratio
    # isolates the capacity the faults took, not the demand change.
    demands = {
        (a, b): 1.0 for a in surviving for b in surviving if a != b
    }
    healthy_tput = tm_throughput(healthy, healthy_routing, demands)
    degraded_tput = tm_throughput(degraded, degraded_routing, demands)
    record["healthy_mean_gbps"] = healthy_tput.mean_flow_gbps
    record["degraded_mean_gbps"] = degraded_tput.mean_flow_gbps
    record["throughput_ratio"] = (
        degraded_tput.mean_flow_gbps / healthy_tput.mean_flow_gbps
    )

    # Path-count dilution over a seeded sample of surviving rack pairs.
    pairs = sorted((a, b) for a in surviving for b in surviving if a < b)
    if len(pairs) > _PATH_SAMPLE_PAIRS:
        pair_rng = random.Random(
            derived_seed("faults-pairs", seed, topology, kind, fraction, trial)
        )
        pairs = sorted(pair_rng.sample(pairs, _PATH_SAMPLE_PAIRS))
    healthy_paths = _mean_path_count(healthy_routing, pairs)
    degraded_paths = _mean_path_count(degraded_routing, pairs)
    record["healthy_mean_paths"] = healthy_paths
    record["degraded_mean_paths"] = degraded_paths
    record["path_ratio"] = (
        degraded_paths / healthy_paths if healthy_paths > 0 else 0.0
    )

    # Tail FCT under Figure 4's A2A workload, healthy vs degraded.  The
    # flow seed folds in topology and trial but *not* scheme or
    # fraction, so degraded and healthy runs of both schemes push
    # identical flows.
    cluster = scale.cluster
    flows = _pattern_flows(
        scale,
        PatternSpec("A2A", uniform(cluster)),
        derived_seed("faults-flows", seed, topology, trial),
        0.30,
    )
    sim_seed = derived_seed("faults-sim", seed, topology, trial)
    healthy_placement = Placement(cluster, healthy)
    healthy_fct = FlowSimulator(
        healthy, healthy_routing, healthy_placement, seed=sim_seed
    ).run(flows)
    degraded_placement = Placement(cluster, degraded)
    kept = [
        flow
        for flow in flows
        if degraded_placement.rack_of(flow.src_server) in surviving
        and degraded_placement.rack_of(flow.dst_server) in surviving
    ]
    record["flows_total"] = len(flows)
    record["flows_surviving"] = len(kept)
    if kept:
        degraded_sim = FlowSimulator(
            degraded, degraded_routing, degraded_placement, seed=sim_seed
        )
        degraded_fct = degraded_sim.run(kept)
        record["healthy_p99_ms"] = healthy_fct.p99_fct_ms()
        record["degraded_p99_ms"] = degraded_fct.p99_fct_ms()
        record["fct_ratio"] = (
            record["degraded_p99_ms"] / record["healthy_p99_ms"]
        )
        fabric_util = {
            key: util
            for key, util in degraded_sim.link_utilization().items()
            if key[0] == "net"
        }
        # Tie-break on the link key so the report is stable across runs.
        record["hottest_links"] = [
            [f"{u}->{v}", round(float(util), 4)]
            for (_net, u, v), util in sorted(
                fabric_util.items(), key=lambda kv: (-kv[1], kv[0])
            )[:5]
        ]
    return record


# ----------------------------------------------------------------------
# Aggregation and rendering
# ----------------------------------------------------------------------


def failure_table_from_cells(
    cells: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Average per-trial cells into one row per curve point.

    Rows are keyed (kind, topology, scheme, fraction) and averaged over
    trials; ``fct_ratio`` averages only the trials whose surviving
    component carried any flows.
    """
    grouped: Dict[Tuple[str, str, str, float], List[Dict[str, Any]]] = {}
    for cell in cells:
        key = (
            cell["kind"],
            cell["topology"],
            cell["scheme"],
            cell["fraction"],
        )
        grouped.setdefault(key, []).append(cell)
    rows: List[Dict[str, Any]] = []
    for (kind, topology, scheme, fraction), members in sorted(
        grouped.items()
    ):
        fct_ratios = [
            m["fct_ratio"] for m in members if m["fct_ratio"] is not None
        ]
        rows.append(
            {
                "kind": kind,
                "topology": topology,
                "scheme": scheme,
                "fraction": fraction,
                "trials": len(members),
                "throughput_ratio": _mean(
                    [m["throughput_ratio"] for m in members]
                ),
                "fct_ratio": _mean(fct_ratios) if fct_ratios else None,
                "path_ratio": _mean([m["path_ratio"] for m in members]),
                "surviving_fraction": _mean(
                    [
                        m["racks_surviving"] / m["racks_total"]
                        for m in members
                        if m["racks_total"]
                    ]
                ),
                "ospf_rounds": _mean([m["ospf_rounds"] for m in members]),
                "ospf_lsas": _mean([m["ospf_lsas"] for m in members]),
            }
        )
    return rows


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def render_failure_sweep(cells: Sequence[Dict[str, Any]]) -> str:
    """Text degradation table, one section per fault kind."""
    rows = failure_table_from_cells(cells)
    lines: List[str] = []
    for kind in dict.fromkeys(row["kind"] for row in rows):
        if lines:
            lines.append("")
        lines.append(f"Failure resilience — {kind} faults")
        lines.append(
            f"{'topology':<12}{'scheme':<8}{'fail%':>7}{'thpt':>8}"
            f"{'p99 FCT':>9}{'paths':>8}{'racks':>8}{'ospf rnds':>11}"
            f"{'lsas':>8}"
        )
        for row in rows:
            if row["kind"] != kind:
                continue
            fct = (
                f"{row['fct_ratio']:.2f}x"
                if row["fct_ratio"] is not None
                else "-"
            )
            lines.append(
                f"{row['topology']:<12}{row['scheme']:<8}"
                f"{100 * row['fraction']:>6.1f}%"
                f"{row['throughput_ratio']:>7.2f}x"
                f"{fct:>9}"
                f"{row['path_ratio']:>7.2f}x"
                f"{100 * row['surviving_fraction']:>7.1f}%"
                f"{row['ospf_rounds']:>11.1f}"
                f"{row['ospf_lsas']:>8.1f}"
            )
    return "\n".join(lines)


def render_hot_links(cells: Sequence[Dict[str, Any]]) -> str:
    """Hottest degraded fabric links per curve, from the worst scenario.

    Surfaces :meth:`FlowSimulator.link_utilization` through the CLI: for
    each (topology, scheme) the cell with the highest failed fraction
    (first trial) shows where the surviving traffic concentrates.
    """
    worst: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for cell in cells:
        if not cell["hottest_links"]:
            continue
        key = (cell["topology"], cell["scheme"])
        best = worst.get(key)
        if (
            best is None
            or (cell["fraction"], -cell["trial"])
            > (best["fraction"], -best["trial"])
        ):
            worst[key] = cell
    if not worst:
        return ""
    lines = ["Hottest fabric links under the worst surveyed scenario"]
    for (topology, scheme), cell in sorted(worst.items()):
        links = ", ".join(
            f"{label} {100 * util:.0f}%" for label, util in cell["hottest_links"]
        )
        lines.append(
            f"  {topology} ({scheme}) at {100 * cell['fraction']:.1f}% "
            f"{cell['kind']} faults: {links}"
        )
    return "\n".join(lines)
