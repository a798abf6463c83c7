"""Valiant load balancing (VLB): the oblivious worst-case baseline.

Kassing et al. [15] showed expanders beat fat-trees for skewed traffic
using an ECMP/VLB hybrid.  Pure VLB routes every flow through a uniformly
random intermediate switch (shortest path to it, then shortest path on),
doubling path length in exchange for spreading any traffic matrix
uniformly.  We include it for the adaptive-routing discussion of
Section 7 and the ablation benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.network import Network
from repro.routing.base import EdgeFractions, Path, RoutingScheme
from repro.routing.ecmp import EcmpRouting


class VlbRouting(RoutingScheme):
    """Two-phase Valiant routing over ECMP segments."""

    name = "vlb"

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        self._ecmp = EcmpRouting(network)
        self._intermediates = list(network.switches)

    def _segments(self, src: int, dst: int, via: int) -> Path:
        """Concatenate shortest segments src→via→dst (degenerate cases ok)."""
        if via == src or via == dst:
            return self._ecmp.paths(src, dst)[0]
        first = self._ecmp.paths(src, via)[0]
        second = self._ecmp.paths(via, dst)[0]
        return first + second[1:]

    def _compute_paths(self, src: int, dst: int) -> List[Path]:
        """One representative path per intermediate (may repeat switches).

        VLB paths are generally not simple; the flow simulator only needs
        the link sequence, so repeats are allowed here.
        """
        seen = set()
        paths: List[Path] = []
        for via in self._intermediates:
            path = self._segments(src, dst, via)
            if path not in seen:
                seen.add(path)
                paths.append(path)
        return paths

    def _compute_edge_fractions(self, src: int, dst: int) -> EdgeFractions:
        """Average the two ECMP segments over all intermediates."""
        total: Dict[Tuple[int, int], float] = {}
        weight = 1.0 / len(self._intermediates)
        for via in self._intermediates:
            if via == src or via == dst:
                parts = [self._ecmp.edge_fractions(src, dst)]
            else:
                parts = [
                    self._ecmp.edge_fractions(src, via),
                    self._ecmp.edge_fractions(via, dst),
                ]
            for fractions in parts:
                for edge, amount in fractions.items():
                    total[edge] = total.get(edge, 0.0) + weight * amount
        return total
