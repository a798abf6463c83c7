"""Compiled routing: the one per-flow path sampler of every scheme.

``RoutingScheme.compile()`` produces a :class:`CompiledRouting` whose
``sample`` draws one flow's path and whose ``fraction_entries`` lowers
the scheme's ``edge_fractions``, both in dense
:class:`~repro.core.linktable.LinkTable` ids, backed by flat arrays:

* per-pair path sets become offset-indexed flat link-id arrays
  (:class:`PathSet`), sampled with one ``rng.choice`` draw;
* per-hop DAG walks (ECMP, the Shortest-Union VRF walk) run over cached
  next-hop tables with cumulative-weight sampling arrays, consuming one
  ``rng.random()`` per hop via ``bisect``.

``RoutingScheme.sample_path`` and every simulator sample through this
module; there is no second sampler in :mod:`repro.routing`.  The seed
samplers it replaced (a linear-scan DAG walk per scheme) are kept
verbatim in ``tests/sim/legacy_reference.py``, and the parity suite
holds the compiled walks to them bit for bit: the flow simulator's event
sequence is a function of the RNG stream, so every sampler here consumes
the underlying ``random.Random`` in exactly the seed order and raises
the seed error types and messages.  :func:`compile_routing` raises
``TypeError`` for a scheme class it does not know: a new scheme adds its
sampler here.
"""

from __future__ import annotations

import abc
import random
from bisect import bisect_left
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.linktable import LinkTable
from repro.routing.adaptive import CoarseAdaptiveRouting
from repro.routing.base import Path, RoutingScheme
from repro.routing.dag import DagError
from repro.routing.ecmp import EcmpRouting
from repro.routing.ksp import KShortestPathsRouting
from repro.routing.shortest_union import ShortestUnionRouting
from repro.routing.vlb import VlbRouting

RackPair = Tuple[int, int]

#: A compiled sample: the switch path and its dense link ids per hop.
SampledPath = Tuple[Path, List[int]]

#: One next-hop table entry: parallel target / link-id lists plus the
#: cumulative weights the hop draw bisects into.
_HopEntry = Tuple[List[Hashable], List[int], List[float]]

#: Hop budget of one DAG walk; a longer walk means the table has a cycle.
_MAX_HOPS = 1_000

#: Shortest-Union walks resampled on a router-level loop before the
#: uniform path-set fallback.
_MAX_LOOP_RESAMPLES = 64


class PathSet:
    """A pair's enumerated paths as flat link-id arrays with offsets.

    ``link_ids[offsets[i]:offsets[i + 1]]`` are path ``i``'s dense link
    ids; ``paths[i]`` is the switch tuple (kept for result records).
    """

    __slots__ = ("paths", "link_ids", "offsets")

    def __init__(self, paths: Sequence[Path], table: LinkTable) -> None:
        self.paths: Tuple[Path, ...] = tuple(paths)
        flat: List[int] = []
        offsets = [0]
        for path in self.paths:
            flat.extend(table.id_of(u, v) for u, v in zip(path, path[1:]))
            offsets.append(len(flat))
        self.link_ids = np.asarray(flat, dtype=np.intp)
        self.offsets = np.asarray(offsets, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.paths)

    def links_of(self, index: int) -> List[int]:
        start, end = self.offsets[index], self.offsets[index + 1]
        return [int(link) for link in self.link_ids[start:end]]

    def sample(self, rng: random.Random) -> SampledPath:
        """Uniform draw, consuming exactly ``rng.choice(paths)``'s state."""
        index = rng.choice(range(len(self.paths)))
        return self.paths[index], self.links_of(index)


class CompiledRouting(abc.ABC):
    """Base: per-scheme :meth:`sample`, shared path-set and fraction caches."""

    def __init__(self, scheme: RoutingScheme, table: LinkTable) -> None:
        self.scheme = scheme
        self.table = table
        self._fraction_cache: Dict[
            RackPair, Tuple[np.ndarray, np.ndarray]
        ] = {}
        self._pathsets: Dict[RackPair, PathSet] = {}

    # ------------------------------------------------------------------

    @abc.abstractmethod
    def sample(self, src: int, dst: int, rng: random.Random) -> SampledPath:
        """Draw one flow's path; returns (switch path, dense link ids)."""

    def fraction_entries(self, src: int, dst: int) -> Tuple[np.ndarray, np.ndarray]:
        """``edge_fractions`` lowered to aligned (link-id, fraction) arrays.

        Entries keep the scheme's dict order and drop non-positive
        fractions, matching how the throughput solver consumed the dict.
        """
        key = (src, dst)
        cached = self._fraction_cache.get(key)
        if cached is None:
            links: List[int] = []
            fractions: List[float] = []
            for (u, v), fraction in self.scheme.edge_fractions(src, dst).items():
                if fraction > 0:
                    links.append(self.table.id_of(u, v))
                    fractions.append(fraction)
            cached = (
                np.asarray(links, dtype=np.intp),
                np.asarray(fractions, dtype=float),
            )
            self._fraction_cache[key] = cached
        return cached

    def _pathset(self, src: int, dst: int) -> PathSet:
        """The scheme's enumerated paths for the pair, lowered once."""
        key = (src, dst)
        cached = self._pathsets.get(key)
        if cached is None:
            cached = PathSet(self.scheme.paths(src, dst), self.table)
            self._pathsets[key] = cached
        return cached


class _DagWalker:
    """Cached next-hop tables for per-hop weighted DAG walks.

    One entry per (node, destination-switch) visited, built from the
    scheme's own next-hop computation (so unreachable-destination errors
    surface exactly as before) and reused across every later walk.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[Tuple[Hashable, int], _HopEntry] = {}

    def entry(
        self,
        node: Hashable,
        dst: int,
        hops: Sequence[Tuple[Hashable, float]],
        link_of: Callable[[Hashable, Hashable], int],
    ) -> _HopEntry:
        targets: List[Hashable] = []
        link_ids: List[int] = []
        cum: List[float] = []
        accumulated = 0.0
        for target, weight in hops:
            targets.append(target)
            link_ids.append(link_of(node, target))
            accumulated += weight
            cum.append(accumulated)
        entry = (targets, link_ids, cum)
        self._entries[(node, dst)] = entry
        return entry

    def get(self, node: Hashable, dst: int) -> Optional[_HopEntry]:
        return self._entries.get((node, dst))


def _hop_draw(entry: _HopEntry, rng: random.Random) -> int:
    """One weighted next-hop draw; RNG-identical to the seed's linear scan."""
    cum = entry[2]
    total = cum[-1]
    if total <= 0:
        raise DagError("non-positive total weight in next-hop choice")
    threshold = rng.random() * total
    index = bisect_left(cum, threshold)
    if index >= len(cum):
        index = len(cum) - 1
    return index


class _CompiledEcmp(CompiledRouting):
    """Per-hop ECMP walk over cached shortest-path next-hop tables."""

    def __init__(self, scheme: EcmpRouting, table: LinkTable) -> None:
        super().__init__(scheme, table)
        self._ecmp = scheme
        self._walker = _DagWalker()

    def _entry(self, node: int, dst: int) -> _HopEntry:
        entry = self._walker.get(node, dst)
        if entry is None:
            hops = self._ecmp.next_hops(node, dst)
            table = self.table
            entry = self._walker.entry(
                node, dst, hops, lambda a, b: table.id_of(a, b)  # type: ignore[arg-type]
            )
        return entry

    def sample(self, src: int, dst: int, rng: random.Random) -> SampledPath:
        self.scheme._check_pair(src, dst)
        path = [src]
        links: List[int] = []
        node = src
        for _ in range(_MAX_HOPS):
            if node == dst:
                return tuple(path), links
            targets, link_ids, _cum = entry = self._entry(node, dst)
            if not targets:
                raise DagError(f"dead end at {node!r} walking toward {dst!r}")
            index = _hop_draw(entry, rng)
            node = targets[index]  # type: ignore[assignment]
            links.append(link_ids[index])
            path.append(node)
        raise DagError(f"walk exceeded {_MAX_HOPS} hops; next_hops is not a DAG")


class _CompiledShortestUnion(CompiledRouting):
    """The VRF-DAG walk with loop rejection, on cached hop tables."""

    def __init__(self, scheme: ShortestUnionRouting, table: LinkTable) -> None:
        super().__init__(scheme, table)
        self._su = scheme
        self._walker = _DagWalker()

    def _entry(self, node: Tuple[int, int], dst: int) -> _HopEntry:
        entry = self._walker.get(node, dst)
        if entry is None:
            hops = self._su.vrf.next_hops(node, dst)
            table = self.table
            entry = self._walker.entry(
                node,
                dst,
                hops,
                # A VRF edge (la, u) -> (lb, v) always crosses distinct
                # switches, so it projects onto the physical link u -> v.
                lambda a, b: table.id_of(a[1], b[1]),  # type: ignore[index]
            )
        return entry

    def sample(self, src: int, dst: int, rng: random.Random) -> SampledPath:
        """Walk the VRF DAG; reject router-level loops as BGP would.

        For K ≤ 2 every DAG walk is already simple.  For larger K the
        walk is resampled on a loop; after a bounded number of rejections
        it falls back to a uniform draw from the enumerated path set so
        pathological pairs cannot stall the simulator.
        """
        self.scheme._check_pair(src, dst)
        vrf = self._su.vrf
        start = vrf.host_node(src)
        goal = vrf.host_node(dst)
        for _attempt in range(_MAX_LOOP_RESAMPLES):
            physical, links = self._walk(start, goal, dst, rng)
            # Loop-freedom check; paths are a few hops.
            if len(set(physical)) == len(physical):
                return physical, links
        return self._pathset(src, dst).sample(rng)

    def _walk(
        self,
        start: Tuple[int, int],
        goal: Tuple[int, int],
        dst: int,
        rng: random.Random,
    ) -> SampledPath:
        path = [start[1]]
        links: List[int] = []
        node = start
        for _ in range(_MAX_HOPS):
            if node == goal:
                return tuple(path), links
            targets, link_ids, _cum = entry = self._entry(node, dst)
            if not targets:
                raise DagError(f"dead end at {node!r} walking toward {goal!r}")
            index = _hop_draw(entry, rng)
            node = targets[index]  # type: ignore[assignment]
            links.append(link_ids[index])
            path.append(node[1])
        raise DagError(f"walk exceeded {_MAX_HOPS} hops; next_hops is not a DAG")


class _CompiledChoice(CompiledRouting):
    """Uniform draw over an enumerated path set (K-shortest-paths)."""

    def sample(self, src: int, dst: int, rng: random.Random) -> SampledPath:
        self.scheme._check_pair(src, dst)
        return self._pathset(src, dst).sample(rng)


class _CompiledVlb(CompiledRouting):
    """Valiant: random intermediate, two compiled-ECMP segments."""

    def __init__(self, scheme: VlbRouting, table: LinkTable) -> None:
        super().__init__(scheme, table)
        self._vlb = scheme
        self._segments = _CompiledEcmp(scheme._ecmp, table)

    def sample(self, src: int, dst: int, rng: random.Random) -> SampledPath:
        self.scheme._check_pair(src, dst)
        via = rng.choice(self._vlb._intermediates)
        if via == src or via == dst:
            return self._segments.sample(src, dst, rng)
        first, first_links = self._segments.sample(src, via, rng)
        second, second_links = self._segments.sample(via, dst, rng)
        return first + second[1:], first_links + second_links


class _CompiledAdaptive(CompiledRouting):
    """Coarse adaptive: dispatch to the compiled form of the active mode.

    ``observe`` can flip the active scheme between compilations, so both
    sub-schemes are compiled up front and every call re-reads
    ``scheme.active``; cached fraction entries are dropped on a flip,
    mirroring the scheme's own cache clear.
    """

    def __init__(self, scheme: CoarseAdaptiveRouting, table: LinkTable) -> None:
        super().__init__(scheme, table)
        self._adaptive = scheme
        self._compiled_modes: Dict[int, CompiledRouting] = {
            id(scheme.ecmp): _CompiledEcmp(scheme.ecmp, table),
            id(scheme.shortest_union): _CompiledShortestUnion(
                scheme.shortest_union, table
            ),
        }
        self._active_at_cache = scheme.active

    def _sync(self) -> CompiledRouting:
        active = self._adaptive.active
        if active is not self._active_at_cache:
            self._fraction_cache.clear()
            self._active_at_cache = active
        return self._compiled_modes[id(active)]

    def sample(self, src: int, dst: int, rng: random.Random) -> SampledPath:
        return self._sync().sample(src, dst, rng)

    def fraction_entries(self, src: int, dst: int) -> Tuple[np.ndarray, np.ndarray]:
        self._sync()
        return super().fraction_entries(src, dst)


def compile_routing(scheme: RoutingScheme, table: LinkTable) -> CompiledRouting:
    """Lower a routing scheme onto dense link ids.

    Dispatches on the scheme class.  A class none of the branches knows
    raises ``TypeError``: its per-flow sampler must be written here, as
    a :class:`CompiledRouting` subclass.
    """
    if isinstance(scheme, CoarseAdaptiveRouting):
        return _CompiledAdaptive(scheme, table)
    if isinstance(scheme, EcmpRouting):
        return _CompiledEcmp(scheme, table)
    if isinstance(scheme, ShortestUnionRouting):
        return _CompiledShortestUnion(scheme, table)
    if isinstance(scheme, KShortestPathsRouting):
        return _CompiledChoice(scheme, table)
    if isinstance(scheme, VlbRouting):
        return _CompiledVlb(scheme, table)
    raise TypeError(
        f"no compiled sampler for {type(scheme).__name__}; add a "
        "CompiledRouting subclass to compile_routing"
    )
