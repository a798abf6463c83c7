"""Verbatim freeze of the round-1 engine (PR 5/PR 9 state of the tree).

The round-2 engine (event cohorts, reused flow slots) is gated on a
512-rack / 100k-flow fig4 cell — bit-identical records, no wall-clock
regression — against *this* module: the array-backed engine exactly as
it stood before round 2 (persistent incidence, compressed link space,
fresh ``fill_levels`` solve at every event).

Like ``tests/sim/legacy_reference.py``, this is a reference artifact:
do not modernize it, do not share code with ``repro.sim`` beyond the
topology/routing/placement infrastructure both sides must agree on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.network import Network
from repro.routing.base import RoutingScheme
from repro.sim.results import FctResults, FlowRecord
from repro.traffic.flows import Flow
from repro.traffic.matrix import Placement

_EPSILON = 1e-12
_RESIDUAL_BYTES = 1e-6
_COMPLETION_RTOL = 1e-12


class R1AllocationError(RuntimeError):
    """Raised when the allocation cannot make progress (bad inputs)."""


def _fit(current: np.ndarray, n: int) -> np.ndarray:
    if len(current) >= n:
        return current
    return np.empty(max(n, 2 * len(current), 16), dtype=current.dtype)


class R1FillScratch:
    """Round-1 reusable buffers for :func:`r1_fill_levels`."""

    def __init__(self) -> None:
        self._active = np.empty(0, dtype=bool)
        self._remap = np.empty(0, dtype=np.intp)
        self._iota = np.empty(0, dtype=np.intp)
        self._remaining = np.empty(0)
        self._saturation = np.empty(0)
        self._headroom = np.empty(0)

    def active(self, n: int) -> np.ndarray:
        self._active = _fit(self._active, n)
        return self._active[:n]

    def remap(self, n: int) -> np.ndarray:
        self._remap = _fit(self._remap, n)
        return self._remap[:n]

    def iota(self, n: int) -> np.ndarray:
        if len(self._iota) < n:
            self._iota = np.arange(
                max(n, 2 * len(self._iota), 16), dtype=np.intp
            )
        return self._iota[:n]

    def remaining(self, n: int) -> np.ndarray:
        self._remaining = _fit(self._remaining, n)
        return self._remaining[:n]

    def saturation(self, n: int) -> np.ndarray:
        self._saturation = _fit(self._saturation, n)
        return self._saturation[:n]

    def headroom(self, n: int) -> np.ndarray:
        self._headroom = _fit(self._headroom, n)
        return self._headroom[:n]


def r1_fill_levels(
    ent: np.ndarray,
    lnk: np.ndarray,
    val: np.ndarray,
    caps: np.ndarray,
    active: np.ndarray,
    links: Optional[np.ndarray] = None,
    scratch: Optional[R1FillScratch] = None,
) -> Tuple[np.ndarray, int]:
    """Round-1 progressive filling: from-scratch solve per call."""
    if scratch is None:
        scratch = R1FillScratch()
    level = np.zeros(len(active))
    mask: np.ndarray = scratch.active(len(active))
    np.copyto(mask, active)
    active = mask
    sel = active[ent]
    if sel.all():
        w_ent, w_lnk, w_val = ent, lnk, val
    else:
        w_ent, w_lnk, w_val = ent[sel], lnk[sel], val[sel]
    if not w_ent.size and active.any():
        raise R1AllocationError("active entities consume no capacity")
    if links is None:
        links, w_lnk = np.unique(w_lnk, return_inverse=True)
    else:
        remap = scratch.remap(len(caps))
        remap[links] = scratch.iota(len(links))
        w_lnk = remap[w_lnk]
    num_links = len(links)
    remaining: np.ndarray = scratch.remaining(num_links)
    saturation: np.ndarray = scratch.saturation(num_links)
    headroom: np.ndarray = scratch.headroom(num_links)
    np.take(caps, links, out=remaining)
    np.multiply(remaining, _EPSILON, out=saturation)
    current = 0.0
    iterations = 0

    while w_ent.size:
        iterations += 1
        demand = np.bincount(w_lnk, weights=w_val, minlength=num_links)
        used = demand > 0
        if not used.any():
            raise R1AllocationError("active entities consume no capacity")
        headroom.fill(np.inf)
        np.divide(remaining, demand, out=headroom, where=used)
        increment = float(headroom.min())
        if not math.isfinite(increment) or increment < 0:
            raise R1AllocationError("allocation cannot make progress")
        current += increment
        remaining -= increment * demand
        saturated_links = used & (remaining <= saturation)
        touches = saturated_links[w_lnk]
        frozen = w_ent[touches]
        if frozen.size == 0:
            forced = int(np.argmin(headroom))
            frozen = w_ent[w_lnk == forced]
        level[frozen] = current
        active[frozen] = False
        keep = active[w_ent]
        w_ent = w_ent[keep]
        w_lnk = w_lnk[keep]
        w_val = w_val[keep]

    return level, iterations


class R1Incidence:
    """Round-1 persistent flat entity-to-link incidence."""

    _INITIAL_CAPACITY = 1024

    def __init__(self) -> None:
        self._ent = np.empty(self._INITIAL_CAPACITY, dtype=np.intp)
        self._lnk = np.empty(self._INITIAL_CAPACITY, dtype=np.intp)
        self._val = np.empty(self._INITIAL_CAPACITY, dtype=float)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def ent(self) -> np.ndarray:
        return self._ent[: self._size]

    @property
    def lnk(self) -> np.ndarray:
        return self._lnk[: self._size]

    @property
    def val(self) -> np.ndarray:
        return self._val[: self._size]

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = len(self._ent)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_ent", "_lnk", "_val"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)

    def append(
        self, entity: int, links: Sequence[int], value: float = 1.0
    ) -> None:
        count = len(links)
        self._reserve(count)
        start = self._size
        end = start + count
        self._ent[start:end] = entity
        self._lnk[start:end] = links
        self._val[start:end] = value
        self._size = end

    def compact(self, keep_entity: np.ndarray) -> None:
        ent = self._ent[: self._size]
        mask = keep_entity[ent]
        kept = int(np.count_nonzero(mask))
        if kept == self._size:
            return
        self._ent[:kept] = ent[mask]
        self._lnk[:kept] = self._lnk[: self._size][mask]
        self._val[:kept] = self._val[: self._size][mask]
        self._size = kept


@dataclass
class _R1ActiveFlow:
    flow: Flow
    links: np.ndarray
    path: Tuple[int, ...]
    src_server: int
    dst_server: int


class R1FlowSimulator:
    """The round-1 event loop: one from-scratch allocator solve per event."""

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

        table = network.link_table()
        bad = np.flatnonzero(table.capacities <= 0)
        if bad.size:
            key = ("net",) + table.pairs[int(bad[0])]
            raise R1AllocationError(f"link {key!r} has non-positive capacity")
        self._table = table
        self._compiled = routing.compile(table)
        self._num_net = len(table)
        self._num_servers = network.num_servers
        self._server_cap = network.server_link_capacity
        self._caps = np.concatenate(
            [
                table.capacities,
                np.full(2 * self._num_servers, float(self._server_cap)),
            ]
        )

        self._incidence = R1Incidence()
        self._fill_scratch = R1FillScratch()
        self._link_refs = np.zeros(len(self._caps), dtype=np.int64)
        self._meta: List[_R1ActiveFlow] = []
        self._slot_alive = np.zeros(0, dtype=bool)
        self._remaining = np.zeros(0)
        self._spent = np.zeros(0)
        self._num_active = 0
        self._link_bytes = np.zeros(len(self._caps))
        self._elapsed = 0.0

    def _grow_slots(self, total: int) -> None:
        capacity = len(self._slot_alive)
        if total <= capacity:
            return
        capacity = max(capacity * 2, total, 64)
        alive = np.zeros(capacity, dtype=bool)
        alive[: len(self._slot_alive)] = self._slot_alive
        remaining = np.zeros(capacity)
        remaining[: len(self._remaining)] = self._remaining
        spent = np.zeros(capacity)
        spent[: len(self._spent)] = self._spent
        self._slot_alive = alive
        self._remaining = remaining
        self._spent = spent

    def _admit(self, flow: Flow) -> None:
        src = self.placement.network_server(flow.src_server)
        dst = self.placement.network_server(flow.dst_server)
        if self._server_cap <= 0:
            raise R1AllocationError(
                f"link {('up', src)!r} has non-positive capacity"
            )
        links = [self._num_net + src]
        if dst != src:
            links.append(self._num_net + self._num_servers + dst)
        src_rack = self.network.switch_of_server(src)
        dst_rack = self.network.switch_of_server(dst)
        if src_rack != dst_rack:
            path, net_links = self._compiled.sample(
                src_rack, dst_rack, self._rng
            )
            links.extend(net_links)
        else:
            path = (src_rack,)
        link_ids = np.asarray(links, dtype=np.intp)
        slot = len(self._meta)
        self._meta.append(
            _R1ActiveFlow(
                flow=flow,
                links=link_ids,
                path=path,
                src_server=src,
                dst_server=dst,
            )
        )
        self._grow_slots(slot + 1)
        self._slot_alive[slot] = True
        self._remaining[slot] = flow.size_bytes
        self._incidence.append(slot, link_ids)
        np.add.at(self._link_refs, link_ids, 1)
        self._num_active += 1

    def run(self, flows: Sequence[Flow]) -> FctResults:
        arrivals = sorted(flows, key=lambda f: f.start_time)
        results = FctResults()
        now = 0.0
        next_arrival = 0
        inc = self._incidence

        while self._num_active or next_arrival < len(arrivals):
            while (
                next_arrival < len(arrivals)
                and arrivals[next_arrival].start_time <= now + 1e-15
            ):
                self._admit(arrivals[next_arrival])
                next_arrival += 1

            if not self._num_active:
                now = arrivals[next_arrival].start_time
                continue

            nslots = len(self._meta)
            alive_mask = self._slot_alive[:nslots]
            alive = np.flatnonzero(alive_mask)

            levels, _iterations = r1_fill_levels(
                inc.ent, inc.lnk, inc.val, self._caps, alive_mask,
                links=np.flatnonzero(self._link_refs > 0),
                scratch=self._fill_scratch,
            )
            rates_bps = levels[alive]
            rates_bps *= 1e9

            times = self._remaining[alive] * 8.0 / rates_bps
            finish_dt = float(times.min())
            arrival_dt = (
                arrivals[next_arrival].start_time - now
                if next_arrival < len(arrivals)
                else np.inf
            )
            dt = min(finish_dt, arrival_dt)
            if dt < 0:
                raise RuntimeError("simulation time went backwards")

            drained = rates_bps / 8.0 * dt
            now += dt
            self._remaining[alive] -= drained

            spent = self._spent
            spent[alive] = drained
            entry_spent = spent[inc.ent]
            touched = entry_spent > 0.0
            np.add.at(
                self._link_bytes, inc.lnk[touched], entry_spent[touched]
            )

            if finish_dt - dt <= finish_dt * _COMPLETION_RTOL:
                done = alive[self._remaining[alive] <= _RESIDUAL_BYTES]
                for slot in done:
                    entry = self._meta[slot]
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
                    self._slot_alive[slot] = False
                    np.subtract.at(self._link_refs, entry.links, 1)
                if done.size:
                    self._num_active -= int(done.size)
                    inc.compact(self._slot_alive[:nslots])

        self._elapsed = now
        return results


def r1_simulate_fct(
    network: Network,
    routing: RoutingScheme,
    placement: Placement,
    flows: Sequence[Flow],
    seed: int = 0,
) -> FctResults:
    """Round-1 engine convenience wrapper, mirroring ``simulate_fct``."""
    return R1FlowSimulator(network, routing, placement, seed=seed).run(flows)
