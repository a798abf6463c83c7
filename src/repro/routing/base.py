"""Routing-scheme abstractions shared by the simulators.

A :class:`RoutingScheme` answers three questions about a rack pair
(src, dst):

* ``paths(src, dst)`` — the full set of switch-level paths the scheme may
  use (each a tuple of switch ids from src to dst inclusive);
* ``sample_path(src, dst, rng)`` — the path one individual flow would be
  hashed onto, matching the per-hop randomness of the hardware
  realization (used by the flow-level FCT simulator);
* ``edge_fractions(src, dst)`` — the expected fraction of src→dst traffic
  crossing each directed network link (used by the steady-state
  throughput solver).

A scheme defines the first and third; the per-flow sampler lives in its
compiled form (:mod:`repro.sim.engine.routing`), which every simulator
and ``sample_path`` run.

All schemes are *oblivious*: the answers depend only on the topology,
never on load — the property the paper insists on for deployability
(Section 4).  A scheme answers only for the topology it was built on:
after a network mutation every query raises :class:`RoutingError`.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.network import Network

if TYPE_CHECKING:
    from repro.core.linktable import LinkTable
    from repro.sim.engine.routing import CompiledRouting

Path = Tuple[int, ...]
EdgeFractions = Dict[Tuple[int, int], float]


class RoutingError(ValueError):
    """Raised when a scheme cannot route a requested pair."""


class RoutingScheme(abc.ABC):
    """Base class providing caching over the per-pair computations."""

    #: Short name used in result tables ("ecmp", "su(2)", ...).
    name: str = "routing"

    def __init__(self, network: Network) -> None:
        self.network = network
        self._topology_version = network.topology_version
        self._path_cache: Dict[Tuple[int, int], List[Path]] = {}
        self._fraction_cache: Dict[Tuple[int, int], EdgeFractions] = {}
        self._compiled: Optional["CompiledRouting"] = None

    # -- to be implemented by subclasses --------------------------------

    @abc.abstractmethod
    def _compute_paths(self, src: int, dst: int) -> List[Path]:
        """Enumerate the scheme's path set for a rack pair."""

    @abc.abstractmethod
    def _compute_edge_fractions(self, src: int, dst: int) -> EdgeFractions:
        """Expected per-link traffic fractions for the pair."""

    # -- cached public API ----------------------------------------------

    def paths(self, src: int, dst: int) -> List[Path]:
        """All paths the scheme may use between two racks (cached)."""
        self._check_pair(src, dst)
        key = (src, dst)
        if key not in self._path_cache:
            paths = self._compute_paths(src, dst)
            if not paths:
                raise RoutingError(f"no path from {src} to {dst}")
            self._path_cache[key] = paths
        return self._path_cache[key]

    def edge_fractions(self, src: int, dst: int) -> EdgeFractions:
        """Expected fraction of pair traffic on each directed link (cached)."""
        self._check_pair(src, dst)
        key = (src, dst)
        if key not in self._fraction_cache:
            self._fraction_cache[key] = self._compute_edge_fractions(src, dst)
        return self._fraction_cache[key]

    def path_count(self, src: int, dst: int) -> int:
        """Number of distinct paths available to the pair."""
        return len(self.paths(src, dst))

    def sample_path(self, src: int, dst: int, rng: random.Random) -> Path:
        """Draw the path a single flow would take (the compiled walk)."""
        return self.compile().sample(src, dst, rng)[0]

    def compile(self, table: Optional["LinkTable"] = None) -> "CompiledRouting":
        """The array-backed lowering of this scheme, built once.

        The compiled form samples flow paths and lowers
        ``edge_fractions`` onto dense
        :class:`~repro.core.linktable.LinkTable` link ids; see
        :mod:`repro.sim.engine.routing`.  ``table``, when given, must be
        the network's current link table.
        """
        # Imported lazily: the engine depends on repro.routing, not the
        # other way around.
        from repro.sim.engine.routing import compile_routing

        self._check_topology()
        if self._compiled is None:
            self._compiled = compile_routing(self, self.network.link_table())
        if table is not None and table is not self._compiled.table:
            raise RoutingError(
                f"{self.name} compiles only onto its network's link table"
            )
        return self._compiled

    def _check_topology(self) -> None:
        current = self.network.topology_version
        if current != self._topology_version:
            raise RoutingError(
                f"{self.name} was built on topology version "
                f"{self._topology_version} but the network is now at "
                f"version {current}; build a new scheme"
            )

    def _check_pair(self, src: int, dst: int) -> None:
        self._check_topology()
        if src == dst:
            raise RoutingError("src and dst racks must differ")
        if src not in self.network.graph or dst not in self.network.graph:
            raise RoutingError(f"unknown switch in pair ({src}, {dst})")


def path_is_valid(network: Network, path: Path) -> bool:
    """True when consecutive path hops are adjacent switches."""
    if len(path) < 2:
        return False
    return all(
        network.graph.has_edge(path[i], path[i + 1])
        for i in range(len(path) - 1)
    )


def path_is_simple(path: Path) -> bool:
    """True when the path visits no switch twice (BGP's loop-freedom)."""
    return len(set(path)) == len(path)
