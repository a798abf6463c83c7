"""Steady-state throughput of long-running flows (Section 6.2's setup).

Figure 5 measures the average throughput of long-running flows between a
client set C and a server set S.  With fixed oblivious routing, the
fluid limit is a weighted max-min allocation over *commodities* (rack
pairs): a commodity of ``w`` concurrent flows splits over links
according to the routing scheme's fractional splits, is weighted ``w``
so each of its flows is as fair as a standalone flow, and is capped by
the aggregate host link capacity at its endpoints.

Working at commodity rather than flow granularity keeps full-scale
topologies (thousands of servers, millions of client-server pairs)
tractable: the entity count is bounded by rack pairs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.network import Network
from repro.routing.base import RoutingScheme
from repro.sim.engine import trace as sim_trace
from repro.sim.maxmin import AllocationError, fill_levels

RackPair = Tuple[int, int]


@dataclass(frozen=True)
class ThroughputReport:
    """Allocation summary for one steady-state run."""

    per_commodity_gbps: Dict[RackPair, float]
    total_gbps: float
    mean_flow_gbps: float
    num_flows: float


# Inner kernel of figures 2 and 3: per-commodity LP assembly.
def commodity_throughput(
    network: Network,
    routing: RoutingScheme,
    demands: Dict[RackPair, float],
    src_host_capacity: Optional[Dict[int, float]] = None,
    dst_host_capacity: Optional[Dict[int, float]] = None,
) -> ThroughputReport:
    """Weighted max-min throughput for rack-pair commodities.

    Parameters
    ----------
    demands:
        ``demands[(r1, r2)]`` is the number of concurrent flows (the
        fairness weight) from rack r1 to rack r2.
    src_host_capacity / dst_host_capacity:
        Aggregate sending/receiving host-link capacity per rack, in
        Gbps.  Defaults to every attached server's uplink/downlink —
        override for C-S runs where only some hosts in a rack
        participate.
    """
    if not demands:
        raise ValueError("no commodities to allocate")
    if src_host_capacity is None:
        src_host_capacity = _full_host_capacity(network)
    if dst_host_capacity is None:
        dst_host_capacity = _full_host_capacity(network)

    # Dense ids from the network's link table (net links 0..L-1), plus
    # lazily registered host links in first-touch order, so the id
    # assignment matches the legacy reference solver in
    # tests/sim/legacy_reference.py.
    table = network.link_table()
    bad = np.flatnonzero(table.capacities <= 0)
    if bad.size:
        bad_key = ("net",) + table.pairs[int(bad[0])]
        raise AllocationError(f"link {bad_key!r} has non-positive capacity")
    compiled = routing.compile(table)
    num_net = len(table)
    host_ids: Dict[Tuple[str, int], int] = {}
    host_caps: List[float] = []

    def host_link(kind: str, rack: int, capacity: float) -> int:
        key = (kind, rack)
        existing = host_ids.get(key)
        if existing is not None:
            if host_caps[existing - num_net] != capacity:
                raise AllocationError(
                    f"link {key!r} re-registered with different capacity"
                )
            return existing
        if capacity <= 0:
            raise AllocationError(f"link {key!r} has non-positive capacity")
        index = num_net + len(host_caps)
        host_ids[key] = index
        host_caps.append(capacity)
        return index

    pairs: List[RackPair] = sorted(demands)
    ent: List[int] = []
    lnk: List[int] = []
    val: List[float] = []
    weights: List[float] = []
    for index, (r1, r2) in enumerate(pairs):
        weight = float(demands[(r1, r2)])
        if weight <= 0:
            raise ValueError(f"non-positive demand for {(r1, r2)}")
        up = host_link("up", r1, src_host_capacity[r1])
        down = host_link("down", r2, dst_host_capacity[r2])
        net_links, net_fractions = compiled.fraction_entries(r1, r2)
        ent.extend(itertools.repeat(index, 2 + len(net_links)))
        lnk.append(up)
        val.append(weight)
        lnk.append(down)
        val.append(weight)
        lnk.extend(net_links.tolist())
        val.extend((weight * net_fractions).tolist())
        weights.append(weight)

    caps = np.concatenate([table.capacities, np.asarray(host_caps, dtype=float)])
    allocate_started = sim_trace.perf_now()
    levels, iterations = fill_levels(
        np.asarray(ent, dtype=np.intp),
        np.asarray(lnk, dtype=np.intp),
        np.asarray(val, dtype=float),
        caps,
        np.ones(len(pairs), dtype=bool),
    )
    collector = sim_trace.current()
    if collector is not None:
        collector.count("throughput_commodities", len(pairs))
        collector.count("allocator_iterations", iterations)
        collector.add_time(
            "allocate", sim_trace.perf_now() - allocate_started
        )
    per_commodity = {
        pair: float(level * weight)
        for pair, level, weight in zip(pairs, levels, weights)
    }
    total = sum(per_commodity.values())
    num_flows = sum(weights)
    return ThroughputReport(
        per_commodity_gbps=per_commodity,
        total_gbps=total,
        mean_flow_gbps=total / num_flows,
        num_flows=num_flows,
    )


def _full_host_capacity(network: Network) -> Dict[int, float]:
    return {
        rack: network.servers_at(rack) * network.server_link_capacity
        for rack in network.racks
    }


# ----------------------------------------------------------------------
# C-S model on a concrete topology
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConcreteCs:
    """A C-S instance packed onto a concrete network's racks."""

    clients_per_rack: Dict[int, int]
    servers_per_rack: Dict[int, int]


def place_cs_concrete(
    network: Network,
    num_clients: int,
    num_servers: int,
    seed: int = 0,
) -> ConcreteCs:
    """Pack C clients and S servers into the fewest racks of ``network``.

    Racks are chosen at random (seeded); server racks avoid client racks,
    exactly as Section 5.2 prescribes.  Rack capacities are the actual
    per-rack server counts, so topologies with different rack sizes pack
    differently — as they would in the paper's per-topology setup.
    """
    if num_clients < 1 or num_servers < 1:
        raise ValueError("need at least one client and one server")
    rng = random.Random(seed)
    racks = list(network.racks)
    rng.shuffle(racks)

    clients: Dict[int, int] = {}
    remaining = num_clients
    used = []
    for rack in racks:
        if remaining == 0:
            break
        take = min(network.servers_at(rack), remaining)
        clients[rack] = take
        remaining -= take
        used.append(rack)
    if remaining:
        raise ValueError(f"cannot place {num_clients} clients")

    servers: Dict[int, int] = {}
    remaining = num_servers
    for rack in racks:
        if remaining == 0:
            break
        if rack in clients:
            continue
        take = min(network.servers_at(rack), remaining)
        servers[rack] = take
        remaining -= take
    if remaining:
        raise ValueError(
            f"cannot place {num_servers} servers avoiding client racks"
        )
    return ConcreteCs(clients_per_rack=clients, servers_per_rack=servers)


def cs_throughput(
    network: Network,
    routing: RoutingScheme,
    num_clients: int,
    num_servers: int,
    seed: int = 0,
) -> ThroughputReport:
    """Average throughput of the all-clients-to-all-servers workload.

    Each client opens one long-running flow to every server; the report's
    ``mean_flow_gbps`` is the Figure 5 quantity (before taking the
    DRing / leaf-spine ratio).
    """
    placement = place_cs_concrete(network, num_clients, num_servers, seed)
    demands: Dict[RackPair, float] = {}
    for c_rack, clients in placement.clients_per_rack.items():
        for s_rack, servers in placement.servers_per_rack.items():
            if c_rack == s_rack:
                continue
            demands[(c_rack, s_rack)] = float(clients * servers)
    src_caps = {
        rack: count * network.server_link_capacity
        for rack, count in placement.clients_per_rack.items()
    }
    dst_caps = {
        rack: count * network.server_link_capacity
        for rack, count in placement.servers_per_rack.items()
    }
    return commodity_throughput(
        network, routing, demands, src_host_capacity=src_caps,
        dst_host_capacity=dst_caps,
    )


def tm_throughput(
    network: Network,
    routing: RoutingScheme,
    demands: Dict[RackPair, float],
) -> ThroughputReport:
    """Throughput for an arbitrary rack-level demand (TM) on a network.

    Demands are fairness weights (relative flow counts); host capacities
    default to whole racks.
    """
    return commodity_throughput(network, routing, demands)
