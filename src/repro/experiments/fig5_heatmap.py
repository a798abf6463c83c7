"""Figure 5: DRing vs leaf-spine throughput heatmaps in the C-S model.

Each heatmap cell is the ratio of average long-running-flow throughput,
throughput(DRing) / throughput(leaf-spine), for C clients sending to S
servers, with both sets packed into the fewest racks of each topology.
The paper sweeps small values (20..260 hosts) and large values
(200..1400) with ECMP and Shortest-Union(2) on the DRing; leaf-spine
always runs ECMP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.network import Network
from repro.experiments.runner import SMALL, Scale, build_routing, build_topology
from repro.routing import RoutingScheme
from repro.sim.results import heatmap_text
from repro.sim.throughput import cs_throughput

#: DRing routing per panel; leaf-spine always runs ECMP.
FIG5_ROUTINGS = ("ecmp", "su2")


@dataclass
class HeatmapResult:
    """One C-S sweep: the ratio grid plus the raw per-cell throughputs."""

    clients: List[int]
    servers: List[int]
    ratio: np.ndarray
    dring_gbps: np.ndarray
    leafspine_gbps: np.ndarray
    routing_label: str

    def render(self) -> str:
        return heatmap_text(
            self.ratio,
            row_labels=[float(c) for c in self.clients],
            col_labels=[float(s) for s in self.servers],
            title=(
                "throughput(DRing)/throughput(leaf-spine), "
                f"DRing routing = {self.routing_label}"
            ),
        )

    def skewed_corner_ratio(self) -> float:
        """Ratio at the most skewed corner (fewest clients, most servers).

        Section 6.2 observes this approaches the UDF-predicted 2x.
        """
        return float(self.ratio[0, -1])

    def uniform_corner_ratio(self) -> float:
        """Ratio at the most balanced corner (max clients = max servers)."""
        return float(self.ratio[-1, -1])


def default_sweep_values(network: Network, points: int = 4) -> List[int]:
    """An evenly spaced C/S sweep covering up to ~45% of all hosts.

    Capped so that clients and servers always fit in disjoint racks.
    """
    n = network.num_servers
    top = max(2, int(n * 0.45))
    return sorted({max(1, round(top * (i + 1) / points)) for i in range(points)})


def run_heatmap(
    dring_network: Network,
    leafspine_network: Network,
    dring_routing: RoutingScheme,
    leafspine_routing: RoutingScheme,
    clients: List[int],
    servers: List[int],
    seed: int = 0,
) -> HeatmapResult:
    """Fill one ratio grid: rows = |C| values, columns = |S| values."""
    shape = (len(clients), len(servers))
    ratio = np.zeros(shape)
    dr_gbps = np.zeros(shape)
    ls_gbps = np.zeros(shape)
    for i, c in enumerate(clients):
        for j, s in enumerate(servers):
            dr = cs_throughput(
                dring_network, dring_routing, c, s, seed=seed
            ).mean_flow_gbps
            ls = cs_throughput(
                leafspine_network, leafspine_routing, c, s, seed=seed
            ).mean_flow_gbps
            dr_gbps[i, j] = dr
            ls_gbps[i, j] = ls
            ratio[i, j] = dr / ls
    return HeatmapResult(
        clients=clients,
        servers=servers,
        ratio=ratio,
        dring_gbps=dr_gbps,
        leafspine_gbps=ls_gbps,
        routing_label=dring_routing.name,
    )


def fig5_sweep_values(scale: Scale, points: int = 4) -> List[int]:
    """The C/S sweep values ``run_fig5`` uses at this scale.

    Exposed separately so the sweep harness can enumerate heatmap cells
    without building the grids.
    """
    return default_sweep_values(build_topology("dring", scale), points=points)


def run_fig5_cell(
    scale: Scale,
    routing: str,
    num_clients: int,
    num_servers: int,
    seed: int = 0,
) -> Dict[str, float]:
    """One heatmap cell: DRing and leaf-spine throughput at (C, S).

    The harness unit of work for Figure 5; ``routing`` selects the DRing
    panel ("ecmp" or "su2"), leaf-spine always runs ECMP.
    """
    if routing not in FIG5_ROUTINGS:
        raise ValueError(f"unknown fig5 routing {routing!r}")
    ls = build_topology("leaf-spine", scale)
    dr = build_topology("dring", scale)
    dr_gbps = cs_throughput(
        dr, build_routing(routing, dr), num_clients, num_servers, seed=seed
    ).mean_flow_gbps
    ls_gbps = cs_throughput(
        ls, build_routing("ecmp", ls), num_clients, num_servers, seed=seed
    ).mean_flow_gbps
    return {"dring_gbps": dr_gbps, "leafspine_gbps": ls_gbps}


def heatmap_from_cells(
    clients: List[int],
    servers: List[int],
    routing_label: str,
    cells: Dict[Tuple[int, int], Dict[str, float]],
) -> HeatmapResult:
    """Assemble one heatmap panel from per-(C, S) cell results.

    Missing cells (failed sweep jobs) render as NaN rather than killing
    the panel.
    """
    shape = (len(clients), len(servers))
    ratio = np.full(shape, np.nan)
    dr_gbps = np.full(shape, np.nan)
    ls_gbps = np.full(shape, np.nan)
    for i, c in enumerate(clients):
        for j, s in enumerate(servers):
            cell = cells.get((c, s))
            if cell is None:
                continue
            dr_gbps[i, j] = cell["dring_gbps"]
            ls_gbps[i, j] = cell["leafspine_gbps"]
            ratio[i, j] = cell["dring_gbps"] / cell["leafspine_gbps"]
    return HeatmapResult(
        clients=clients,
        servers=servers,
        ratio=ratio,
        dring_gbps=dr_gbps,
        leafspine_gbps=ls_gbps,
        routing_label=routing_label,
    )


def run_fig5(
    scale: Scale = SMALL,
    seed: int = 0,
    values: List[int] = None,
) -> Dict[str, HeatmapResult]:
    """Both Figure 5 panels at one value range: ECMP and SU(2) DRing.

    Returns ``{"ecmp": ..., "su2": ...}``.  The paper's small-value
    panels (a, b) and large-value panels (c, d) are two calls with
    different ``values``.
    """
    ls = build_topology("leaf-spine", scale)
    dr = build_topology("dring", scale)
    if values is None:
        values = default_sweep_values(dr)
    ls_routing = build_routing("ecmp", ls)
    return {
        routing: run_heatmap(
            dr, ls, build_routing(routing, dr), ls_routing, values, values,
            seed=seed,
        )
        for routing in FIG5_ROUTINGS
    }
