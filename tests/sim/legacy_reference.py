"""Pre-engine reference implementations, kept verbatim for parity tests.

These are the seed-era simulators exactly as they shipped before the
array-backed engine (:mod:`repro.sim.engine`) replaced them: the FCT
simulator rebuilds its flow→link incidence from Python lists at every
event and re-registers host links through a :class:`LinkIndex`, and the
throughput solver walks ``routing.edge_fractions`` dicts per commodity.
They define the behavior the engine must reproduce bit-for-bit — the
parity suite asserts exact equality of their outputs, and the benchmark
suite measures the engine's speedup against them.

The FCT simulator also keeps the seed path samplers, which the routing
schemes no longer carry: :func:`walk` and :func:`_weighted_choice` (once
``repro.routing.dag``) and each scheme's ``sample_path`` override, as
functions of the scheme dispatched by :func:`sample_path`.  They read
only the scheme's next-hop tables and path sets, never its compiled
form, so the parity suite compares the compiled walks in
:mod:`repro.sim.engine.routing` with these linear-scan walks rather than
with themselves.

Do not modernize this module; its value is that it does not change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bgp.vrf import VrfGraph
from repro.core.network import Network
from repro.routing import (
    CoarseAdaptiveRouting,
    EcmpRouting,
    KShortestPathsRouting,
    ShortestUnionRouting,
    VlbRouting,
)
from repro.routing.base import Path, RoutingScheme
from repro.routing.dag import DagError
from repro.sim.maxmin import AllocationError
from repro.sim.results import FctResults, FlowRecord
from repro.sim.throughput import RackPair, ThroughputReport
from repro.traffic.flows import Flow
from repro.traffic.matrix import Placement

_RESIDUAL_BYTES = 1e-6

#: Relative tolerance for declaring a link saturated (seed value).
_EPSILON = 1e-12


def progressive_filling(
    entity_links: Sequence[Sequence[Tuple[int, float]]],
    capacities: Sequence[float],
) -> np.ndarray:
    """The seed allocator, verbatim: full-link-space filling rounds.

    Every round allocates ``np.full(num_links, ...)`` scratch, masks the
    incidence by ``active[ent]``, and dedups frozen entities through
    ``np.unique`` — the costs the engine's compressed-link working-set
    formulation (:func:`repro.sim.maxmin.fill_levels`) removed.
    """
    num_entities = len(entity_links)
    caps = np.asarray(capacities, dtype=float)
    if np.any(caps <= 0):
        raise AllocationError("all link capacities must be positive")
    num_links = len(caps)

    # Flatten the incidence into parallel arrays for numpy bincount use.
    entity_index: List[int] = []
    link_index: List[int] = []
    values: List[float] = []
    for i, links in enumerate(entity_links):
        if not links:
            raise AllocationError(f"entity {i} uses no links")
        for link, value in links:
            if value <= 0:
                raise AllocationError(
                    f"entity {i} has non-positive value {value} on link {link}"
                )
            if not 0 <= link < num_links:
                raise AllocationError(f"entity {i} references bad link {link}")
            entity_index.append(i)
            link_index.append(link)
            values.append(value)
    ent = np.array(entity_index, dtype=np.intp)
    lnk = np.array(link_index, dtype=np.intp)
    val = np.array(values, dtype=float)

    level = np.zeros(num_entities)
    active = np.ones(num_entities, dtype=bool)
    remaining = caps.copy()
    current = 0.0

    while active.any():
        active_term = active[ent]
        demand = np.bincount(
            lnk[active_term], weights=val[active_term], minlength=num_links
        )
        used = demand > 0
        if not used.any():
            raise AllocationError("active entities consume no capacity")
        headroom = np.full(num_links, np.inf)
        headroom[used] = remaining[used] / demand[used]
        increment = headroom.min()
        if not np.isfinite(increment) or increment < 0:
            raise AllocationError("allocation cannot make progress")
        current += increment
        remaining -= increment * demand
        # Freeze entities crossing any saturated link they use.
        saturated_links = used & (remaining <= _EPSILON * caps)
        touches = saturated_links[lnk] & active_term
        frozen = np.unique(ent[touches])
        if frozen.size == 0:
            # Numerical corner: force the single most-loaded link.
            forced = int(np.argmin(headroom))
            frozen = np.unique(ent[(lnk == forced) & active_term])
        level[frozen] = current
        active[frozen] = False

    return level


def flow_rates(
    flow_paths: Sequence[Sequence[int]],
    capacities: Sequence[float],
) -> np.ndarray:
    """Max-min fair rates for unit-weight flows over integer link ids."""
    entity_links = [
        [(link, 1.0) for link in path] for path in flow_paths
    ]
    return progressive_filling(entity_links, capacities)


class LinkIndex:
    """The seed dense link-id registry, verbatim."""

    def __init__(self) -> None:
        self._ids: Dict[object, int] = {}
        self._keys: List[object] = []
        self._capacities: List[float] = []

    def add(self, key: object, capacity: float) -> int:
        if key in self._ids:
            existing = self._capacities[self._ids[key]]
            if existing != capacity:
                raise AllocationError(
                    f"link {key!r} re-registered with different capacity"
                )
            return self._ids[key]
        if capacity <= 0:
            raise AllocationError(f"link {key!r} has non-positive capacity")
        index = len(self._capacities)
        self._ids[key] = index
        self._keys.append(key)
        self._capacities.append(capacity)
        return index

    def id_of(self, key: object) -> int:
        return self._ids[key]

    def key_of(self, index: int) -> object:
        return self._keys[index]

    def capacity_of(self, index: int) -> float:
        return self._capacities[index]

    def __contains__(self, key: object) -> bool:
        return key in self._ids

    def __len__(self) -> int:
        return len(self._capacities)

    @property
    def capacities(self) -> List[float]:
        return list(self._capacities)


Node = Hashable
NextHops = Callable[[Node], Sequence[Tuple[Node, float]]]

_MAX_LOOP_RESAMPLES = 64


def walk(
    next_hops: NextHops,
    src: Node,
    dst: Node,
    rng: random.Random,
    max_hops: int = 1_000,
) -> List[Node]:
    """Sample one path from src to dst by weighted per-hop choices."""
    path = [src]
    node = src
    for _ in range(max_hops):
        if node == dst:
            return path
        choices = next_hops(node)
        if not choices:
            raise DagError(f"dead end at {node!r} walking toward {dst!r}")
        node = _weighted_choice(choices, rng)
        path.append(node)
    raise DagError(f"walk exceeded {max_hops} hops; next_hops is not a DAG")


def _weighted_choice(
    choices: Sequence[Tuple[Node, float]], rng: random.Random
) -> Node:
    total = sum(weight for _node, weight in choices)
    if total <= 0:
        raise DagError("non-positive total weight in next-hop choice")
    threshold = rng.random() * total
    accumulated = 0.0
    for node, weight in choices:
        accumulated += weight
        if accumulated >= threshold:
            return node
    return choices[-1][0]


def _ecmp_sample_path(
    self: EcmpRouting, src: int, dst: int, rng: random.Random
) -> Path:
    self._check_pair(src, dst)
    return tuple(
        walk(lambda node: self.next_hops(node, dst), src, dst, rng)
    )


def _shortest_union_sample_path(
    self: ShortestUnionRouting, src: int, dst: int, rng: random.Random
) -> Path:
    """Walk the VRF DAG; reject router-level loops as BGP would.

    For K ≤ 2 every DAG walk is already simple.  For larger K the
    walk is resampled on a loop; after a bounded number of rejections
    we fall back to a uniform draw from the enumerated path set so
    pathological pairs cannot stall the simulator.
    """
    self._check_pair(src, dst)
    start = self.vrf.host_node(src)
    goal = self.vrf.host_node(dst)
    for _attempt in range(_MAX_LOOP_RESAMPLES):
        vrf_path = walk(
            lambda node: self.vrf.next_hops(node, dst), start, goal, rng
        )
        physical = VrfGraph.project(vrf_path)
        # Loop-freedom check; paths are a few hops.
        if len(set(physical)) == len(physical):
            return physical
    return rng.choice(self.paths(src, dst))


def _ksp_sample_path(
    self: KShortestPathsRouting, src: int, dst: int, rng: random.Random
) -> Path:
    return rng.choice(self.paths(src, dst))


def _vlb_sample_path(
    self: VlbRouting, src: int, dst: int, rng: random.Random
) -> Path:
    self._check_pair(src, dst)
    via = rng.choice(self._intermediates)
    if via == src or via == dst:
        return sample_path(self._ecmp, src, dst, rng)
    first = sample_path(self._ecmp, src, via, rng)
    second = sample_path(self._ecmp, via, dst, rng)
    return first + second[1:]


def _adaptive_sample_path(
    self: CoarseAdaptiveRouting, src: int, dst: int, rng: random.Random
) -> Path:
    return sample_path(self._active, src, dst, rng)


_SEED_SAMPLERS: Tuple[Tuple[type, Callable[..., Path]], ...] = (
    (EcmpRouting, _ecmp_sample_path),
    (ShortestUnionRouting, _shortest_union_sample_path),
    (KShortestPathsRouting, _ksp_sample_path),
    (VlbRouting, _vlb_sample_path),
    (CoarseAdaptiveRouting, _adaptive_sample_path),
)


def sample_path(
    routing: RoutingScheme, src: int, dst: int, rng: random.Random
) -> Path:
    """The seed ``routing.sample_path(src, dst, rng)`` for any scheme."""
    for scheme_class, sampler in _SEED_SAMPLERS:
        if isinstance(routing, scheme_class):
            return sampler(routing, src, dst, rng)
    raise TypeError(f"no seed sampler for {type(routing).__name__}")


@dataclass
class _ActiveFlow:
    flow: Flow
    remaining: float
    links: List[int]
    path: Tuple[int, ...]
    src_server: int
    dst_server: int


class LegacyFlowSimulator:
    """The seed FCT simulator: per-event incidence rebuild."""

    def __init__(
        self,
        network: Network,
        routing: RoutingScheme,
        placement: Placement,
        seed: int = 0,
        hop_latency_s: float = 0.0,
    ) -> None:
        if hop_latency_s < 0:
            raise ValueError("hop latency must be non-negative")
        if routing.network is not network:
            raise ValueError("routing was built for a different network")
        if placement.network is not network:
            raise ValueError("placement targets a different network")
        self.network = network
        self.routing = routing
        self.placement = placement
        self.hop_latency_s = hop_latency_s
        self._rng = random.Random(seed)
        self._links = LinkIndex()
        for (u, v), capacity in network.directed_capacities().items():
            self._links.add(("net", u, v), capacity)
        self._link_bytes: Dict[int, float] = {}
        self._elapsed = 0.0

    def _server_link(self, direction: str, server: int) -> int:
        return self._links.add(
            (direction, server), self.network.server_link_capacity
        )

    def _admit(self, flow: Flow) -> _ActiveFlow:
        src = self.placement.network_server(flow.src_server)
        dst = self.placement.network_server(flow.dst_server)
        links = [self._server_link("up", src)]
        if dst != src:
            links.append(self._server_link("down", dst))
        src_rack = self.network.switch_of_server(src)
        dst_rack = self.network.switch_of_server(dst)
        if src_rack != dst_rack:
            path = sample_path(self.routing, src_rack, dst_rack, self._rng)
            for u, v in zip(path, path[1:]):
                links.append(self._links.id_of(("net", u, v)))
        else:
            path = (src_rack,)
        return _ActiveFlow(
            flow=flow,
            remaining=flow.size_bytes,
            links=links,
            path=path,
            src_server=src,
            dst_server=dst,
        )

    def run(self, flows: Sequence[Flow]) -> FctResults:
        arrivals = sorted(flows, key=lambda f: f.start_time)
        results = FctResults()
        active: List[_ActiveFlow] = []
        now = 0.0
        next_arrival = 0

        while active or next_arrival < len(arrivals):
            while (
                next_arrival < len(arrivals)
                and arrivals[next_arrival].start_time <= now + 1e-15
            ):
                active.append(self._admit(arrivals[next_arrival]))
                next_arrival += 1

            if not active:
                now = arrivals[next_arrival].start_time
                continue

            rates = flow_rates(
                [entry.links for entry in active], self._links.capacities
            )

            times = np.array(
                [entry.remaining for entry in active]
            ) * 8.0 / (rates * 1e9)
            finish_dt = float(times.min())
            arrival_dt = (
                arrivals[next_arrival].start_time - now
                if next_arrival < len(arrivals)
                else np.inf
            )
            dt = min(finish_dt, arrival_dt)
            if dt < 0:
                raise RuntimeError("simulation time went backwards")

            drained = rates * 1e9 / 8.0 * dt
            now += dt
            still_active: List[_ActiveFlow] = []
            for entry, spent in zip(active, drained):
                entry.remaining -= spent
                if spent > 0.0:
                    for link in entry.links:
                        self._link_bytes[link] = (
                            self._link_bytes.get(link, 0.0) + spent
                        )
                if entry.remaining <= _RESIDUAL_BYTES and dt == finish_dt:
                    latency = self.hop_latency_s * len(entry.links)
                    results.add(
                        FlowRecord(
                            src_server=entry.src_server,
                            dst_server=entry.dst_server,
                            size_bytes=entry.flow.size_bytes,
                            start_time=entry.flow.start_time,
                            finish_time=now + latency,
                            path=entry.path,
                        )
                    )
                else:
                    still_active.append(entry)
            active = still_active

        self._elapsed = now
        return results

    def link_utilization(self) -> Dict[object, float]:
        if self._elapsed <= 0.0:
            raise RuntimeError("run() has not completed yet")
        report: Dict[object, float] = {}
        for link_id, carried in self._link_bytes.items():
            capacity_bps = self._links.capacity_of(link_id) * 1e9 / 8.0
            report[self._links.key_of(link_id)] = carried / (
                capacity_bps * self._elapsed
            )
        return report


def legacy_simulate_fct(
    network: Network,
    routing: RoutingScheme,
    placement: Placement,
    flows: Sequence[Flow],
    seed: int = 0,
) -> FctResults:
    return LegacyFlowSimulator(network, routing, placement, seed=seed).run(
        flows
    )


def legacy_commodity_throughput(
    network: Network,
    routing: RoutingScheme,
    demands: Dict[RackPair, float],
    src_host_capacity: Optional[Dict[int, float]] = None,
    dst_host_capacity: Optional[Dict[int, float]] = None,
) -> ThroughputReport:
    """The seed commodity solver: per-commodity edge_fractions walks."""
    if not demands:
        raise ValueError("no commodities to allocate")
    if src_host_capacity is None:
        src_host_capacity = _full_host_capacity(network)
    if dst_host_capacity is None:
        dst_host_capacity = _full_host_capacity(network)

    links = LinkIndex()
    for (u, v), capacity in network.directed_capacities().items():
        links.add(("net", u, v), capacity)

    pairs: List[RackPair] = sorted(demands)
    entity_links: List[List[Tuple[int, float]]] = []
    weights: List[float] = []
    for r1, r2 in pairs:
        weight = float(demands[(r1, r2)])
        if weight <= 0:
            raise ValueError(f"non-positive demand for {(r1, r2)}")
        entry: List[Tuple[int, float]] = []
        up = links.add(("up", r1), src_host_capacity[r1])
        down = links.add(("down", r2), dst_host_capacity[r2])
        entry.append((up, weight))
        entry.append((down, weight))
        for (u, v), fraction in routing.edge_fractions(r1, r2).items():
            if fraction > 0:
                entry.append((links.id_of(("net", u, v)), weight * fraction))
        entity_links.append(entry)
        weights.append(weight)

    levels = progressive_filling(entity_links, links.capacities)
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
