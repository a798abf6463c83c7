"""K-shortest-paths routing: the Jellyfish baseline (Section 2).

Jellyfish [23] pairs expanders with K-shortest-path routing and MPTCP.
The paper under reproduction treats this as the impractical comparison
point (it needs control- and data-plane modifications), so we provide it
as a baseline for ablations rather than as a deployable scheme.

Flows split uniformly over the first K simple paths by length, which is
how MPTCP subflows are pinned in the Jellyfish evaluation.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

import networkx as nx

from repro.core.network import Network
from repro.routing.base import EdgeFractions, Path, RoutingScheme


class KShortestPathsRouting(RoutingScheme):
    """Uniform splitting over the K shortest simple paths."""

    def __init__(self, network: Network, k: int = 8) -> None:
        super().__init__(network)
        if k < 1:
            raise ValueError("K must be at least 1")
        self.k = k
        self.name = f"ksp({k})"

    def _compute_paths(self, src: int, dst: int) -> List[Path]:
        generator = nx.shortest_simple_paths(self.network.graph, src, dst)
        return [tuple(p) for p in itertools.islice(generator, self.k)]

    def _compute_edge_fractions(self, src: int, dst: int) -> EdgeFractions:
        paths = self.paths(src, dst)
        share = 1.0 / len(paths)
        fractions: Dict[Tuple[int, int], float] = {}
        for path in paths:
            for a, b in zip(path, path[1:]):
                fractions[(a, b)] = fractions.get((a, b), 0.0) + share
        return fractions
