"""Figure 6: DRing's relative performance deteriorates with scale.

The paper grows a DRing supernode by supernode (n = 6 ToRs each, 60-port
switches with 36 server links) and plots the ratio of 99th-percentile
FCTs, FCT(DRing) / FCT(RRG), under uniform traffic; the equivalent RRG
uses the same switches, degrees and servers.  The ratio rises past 1 as
the ring grows — the O(n)-worse bisection bandwidth catching up with the
DRing — which is the paper's evidence that DRing is a *small-scale*
design point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.runner import build_routing
from repro.sim.flowsim import simulate_fct
from repro.topology import dring, jellyfish
from repro.traffic import (
    CanonicalCluster,
    Placement,
    generate_flows,
    uniform,
    window_for_budget,
)


@dataclass(frozen=True)
class ScalePoint:
    """One x-axis point of Figure 6."""

    supernodes: int
    racks: int
    dring_p99_ms: float
    rrg_p99_ms: float

    @property
    def ratio(self) -> float:
        return self.dring_p99_ms / self.rrg_p99_ms


@dataclass(frozen=True)
class Fig6Config:
    """Per-switch shape of the sweep (paper: n=6, 60 ports, 36 servers)."""

    tors_per_supernode: int = 2
    servers_per_rack: int = 6
    supernode_counts: tuple = (5, 8, 11, 14, 17, 20)
    #: Flow budget per server, so the measurement window (and thus the
    #: amount of contention observed) stays comparable across sizes.
    flows_per_server: int = 8
    window_seconds: float = 0.03
    size_cap_bytes: float = 10e6
    utilization_gbps_per_server: float = 3.0
    routing: str = "su2"

    @property
    def network_degree(self) -> int:
        return 4 * self.tors_per_supernode


def run_fig6_point(
    config: Fig6Config, supernodes: int, seed: int = 0
) -> ScalePoint:
    """One x-axis point: DRing vs matched RRG at one supernode count.

    Independently executable — the sweep-harness unit of work for
    Figure 6.  The offered load grows with the network (fixed Gbps per
    server) so utilization stays comparable across sizes.
    """
    if config.routing not in ("ecmp", "su2"):
        raise ValueError(f"unknown routing kind {config.routing!r}")
    m = supernodes
    n = config.tors_per_supernode
    racks = m * n
    servers = racks * config.servers_per_rack
    dr = dring(m, n, servers_per_rack=config.servers_per_rack)
    rrg = jellyfish(
        racks,
        config.network_degree,
        servers_per_switch=config.servers_per_rack,
        seed=seed,
    )
    cluster = CanonicalCluster(racks, config.servers_per_rack)
    tm = uniform(cluster)
    offered = config.utilization_gbps_per_server * servers
    window, num_flows = window_for_budget(
        offered,
        config.flows_per_server * servers,
        config.window_seconds,
        size_cap=config.size_cap_bytes,
    )
    flows = generate_flows(
        tm,
        num_flows,
        window,
        seed=seed,
        size_cap=config.size_cap_bytes,
    )
    dr_res = simulate_fct(
        dr, build_routing(config.routing, dr),
        Placement(cluster, dr), flows, seed=seed,
    )
    rrg_res = simulate_fct(
        rrg, build_routing(config.routing, rrg),
        Placement(cluster, rrg), flows, seed=seed,
    )
    return ScalePoint(
        supernodes=m,
        racks=racks,
        dring_p99_ms=dr_res.p99_fct_ms(),
        rrg_p99_ms=rrg_res.p99_fct_ms(),
    )


def run_fig6(config: Fig6Config = Fig6Config(), seed: int = 0) -> List[ScalePoint]:
    """Sweep supernode counts; at each size compare DRing vs matched RRG."""
    return [
        run_fig6_point(config, m, seed=seed) for m in config.supernode_counts
    ]


def render_fig6(points: List[ScalePoint]) -> str:
    """Text rendering of the Figure 6 series."""
    lines = [
        "Figure 6: p99 FCT(DRing) / p99 FCT(RRG), uniform traffic",
        f"{'racks':>8}{'supernodes':>12}{'DRing ms':>12}{'RRG ms':>12}{'ratio':>8}",
    ]
    for p in points:
        lines.append(
            f"{p.racks:>8}{p.supernodes:>12}{p.dring_p99_ms:>12.3f}"
            f"{p.rrg_p99_ms:>12.3f}{p.ratio:>8.2f}"
        )
    return "\n".join(lines)
