"""Coarse-grained adaptive routing (Section 7, "future work").

The paper observes that ECMP wins for uniform traffic (shortest paths,
least capacity consumed) while Shortest-Union(2) wins when path
diversity is scarce (rack-to-rack, skewed), and suggests an adaptive
strategy "even at coarse-grained scales based on DC utilization".

:class:`CoarseAdaptiveRouting` implements exactly that: it holds both
schemes, and :meth:`observe` picks the active one from a rack-level
demand snapshot by comparing the *bottleneck link load* each scheme
would produce (computable obliviously from the fixed fractional
splits).  ECMP is preferred unless SU(K) relieves the bottleneck by
more than a configurable margin, because SU(K)'s longer paths consume
extra capacity everywhere else.  Between observations the scheme is
completely static — the coarse granularity that makes it deployable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.network import Network
from repro.routing.base import EdgeFractions, Path, RoutingScheme
from repro.routing.ecmp import EcmpRouting
from repro.routing.shortest_union import ShortestUnionRouting

RackPair = Tuple[int, int]


def bottleneck_load(
    network: Network,
    routing: RoutingScheme,
    demands: Dict[RackPair, float],
) -> float:
    """Max per-link utilization at unit scale under a scheme's splits."""
    if not demands:
        raise ValueError("no demands given")
    capacities = network.directed_capacities()
    loads: Dict[Tuple[int, int], float] = {}
    for (src, dst), amount in demands.items():
        if amount <= 0:
            raise ValueError(f"non-positive demand for {(src, dst)}")
        for link, fraction in routing.edge_fractions(src, dst).items():
            loads[link] = loads.get(link, 0.0) + amount * fraction
    return max(load / capacities[link] for link, load in loads.items())


class CoarseAdaptiveRouting(RoutingScheme):
    """Switches between ECMP and SU(K) on coarse demand observations."""

    def __init__(
        self,
        network: Network,
        k: int = 2,
        margin: float = 0.10,
    ) -> None:
        super().__init__(network)
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.margin = margin
        self.ecmp = EcmpRouting(network)
        self.shortest_union = ShortestUnionRouting(network, k)
        self._active: RoutingScheme = self.ecmp
        self.name = f"adaptive(ecmp|su({k}))"

    # ------------------------------------------------------------------

    @property
    def active(self) -> RoutingScheme:
        """The scheme currently installed in the fabric."""
        return self._active

    def observe(self, demands: Dict[RackPair, float]) -> RoutingScheme:
        """Re-evaluate the mode for a rack-level demand snapshot.

        Chooses SU(K) only when it lowers the bottleneck utilization by
        more than ``margin`` relative to ECMP; clears the per-pair
        caches when the mode flips (new routes get installed).
        """
        ecmp_bottleneck = bottleneck_load(self.network, self.ecmp, demands)
        su_bottleneck = bottleneck_load(
            self.network, self.shortest_union, demands
        )
        chosen: RoutingScheme = self.ecmp
        if su_bottleneck < ecmp_bottleneck * (1.0 - self.margin):
            chosen = self.shortest_union
        if chosen is not self._active:
            self._active = chosen
            self._path_cache.clear()
            self._fraction_cache.clear()
        return self._active

    # -- delegation ------------------------------------------------------

    def _compute_paths(self, src: int, dst: int) -> List[Path]:
        return self._active.paths(src, dst)

    def _compute_edge_fractions(self, src: int, dst: int) -> EdgeFractions:
        return self._active.edge_fractions(src, dst)
