"""The VRF graph realizing Shortest-Union(K) with standard BGP (Section 4).

Each physical router is partitioned into K VRFs (levels 1..K); hosts
attach at level K.  For every *directed* physical link u→v the VRF graph
contains:

1. **entry** edges ``(K, u) → (i, v)`` with cost ``i``, for i = 1..K;
2. **climb** edges ``(i, u) → (i+1, v)`` with cost 1, for i = 1..K-1;
3. **cruise** edges ``(1, u) → (1, v)`` with cost 1.

(The rule list printed in the paper has the climb direction garbled; this
is the orientation under which the paper's Theorem 1 and its proof hold —
see DESIGN.md §3.)

Costs are realized with BGP AS-path prepending, so plain eBGP shortest-
AS-path routing over the VRF graph yields, between host VRFs, a distance
of ``max(L, K)`` (Theorem 1) and a min-cost path set that projects to
exactly the Shortest-Union(K) physical paths: all physical paths of
length ≤ K when the racks are closer than K, and exactly the shortest
paths otherwise.

Every physical path admits exactly one minimum-cost VRF representation
(enter at level ``K - P + 1`` for a P-hop path with P ≤ K, or enter at
level 1, cruise, then climb the final K-1 hops for P ≥ K), so per-hop
ECMP over the VRF graph induces a well-defined split over physical paths.

The networkx digraph is the source of truth (BGP, config generation and
``bgp.verify`` read it), but distances and next hops are answered from
arrays: the first query lowers the digraph to CSR edge arrays, each
destination gets one integer distance vector from a vectorised
Bellman-Ford relaxation, and a node's ECMP set is the mask
``cost + dist[succ] == dist[node]`` over its CSR row.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.network import Network

#: A node of the VRF graph: (level, switch), levels 1..K.
VrfNode = Tuple[int, int]

#: A directed VRF edge, i.e. one BGP session: (from, to) in forwarding
#: order, so routes are advertised from ``to`` back to ``from``.
Session = Tuple[VrfNode, VrfNode]

#: Distance of a VRF node with no path to the destination; far enough
#: below the int64 limit that adding an edge cost cannot overflow.
_UNREACHABLE = np.iinfo(np.int64).max // 2


class _EdgeArrays:
    """The VRF digraph's edges in CSR form, one row per node.

    Row ``i`` holds edges ``bounds[i]:bounds[i + 1]`` in
    ``digraph.adj[nodes[i]]`` order.  ``succ`` and ``cost`` are the
    arrays the relaxation and the row mask read; ``targets`` and
    ``mult`` are the same edges' successor nodes and weights exactly as
    the digraph stores them.
    """

    __slots__ = (
        "nodes", "index", "bounds", "targets", "mult", "succ", "cost",
        "rows", "starts",
    )

    def __init__(self, digraph: nx.DiGraph) -> None:
        self.nodes: List[VrfNode] = list(digraph.nodes)
        self.index: Dict[VrfNode, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        self.bounds: List[int] = [0]
        self.targets: List[VrfNode] = []
        self.mult: List[float] = []
        cost: List[int] = []
        for node in self.nodes:
            for target, data in digraph.adj[node].items():
                self.targets.append(target)
                self.mult.append(data["mult"])
                cost.append(data["cost"])
            self.bounds.append(len(self.targets))
        self.succ = np.array(
            [self.index[target] for target in self.targets], dtype=np.int64
        )
        self.cost = np.array(cost, dtype=np.int64)
        bounds = np.array(self.bounds, dtype=np.int64)
        # reduceat needs strictly increasing starts: the non-empty rows.
        self.rows = np.flatnonzero(bounds[1:] > bounds[:-1])
        self.starts = bounds[self.rows]

    def distances(self, target: int) -> np.ndarray:
        """Min cost from every node to node ``target`` (Bellman-Ford).

        Each pass lowers every non-empty row to its best
        ``cost + dist[succ]``.  Costs are positive, so the first pass
        that lowers nothing leaves the exact distances; nodes that cannot
        reach ``target`` keep ``_UNREACHABLE``.
        """
        dist = np.full(len(self.nodes), _UNREACHABLE, dtype=np.int64)
        dist[target] = 0
        while True:
            best = np.minimum.reduceat(self.cost + dist[self.succ], self.starts)
            lower = best < dist[self.rows]
            if not lower.any():
                return dist
            dist[self.rows[lower]] = best[lower]


class VrfGraph:
    """The K-level VRF overlay of a physical network."""

    def __init__(self, network: Network, k: int) -> None:
        if k < 1:
            raise ValueError("K must be at least 1")
        self.network = network
        self.k = k
        self.digraph = nx.DiGraph()
        self._build()
        # Built by the first distance or next-hop query, dropped by every
        # link mutation: the edge arrays, and one distance vector per
        # destination switch.
        self._arrays: Optional[_EdgeArrays] = None
        self._dist: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        k = self.k
        for switch in self.network.graph.nodes:
            for level in range(1, k + 1):
                self.digraph.add_node((level, switch))
        for u, v, _mult in self.network.undirected_links():
            # Weight by the capacity-effective multiplicity so per-hop
            # hashing shifts traffic away from gray-degraded trunks.
            effective = self.network.effective_link_mult(u, v)
            for a, b in ((u, v), (v, u)):
                self._add_link_rules(a, b, effective)

    def _add_link_rules(self, u: int, v: int, mult: float) -> None:
        k = self.k
        # Rule 1: entry edges from the host level.
        for level in range(1, k + 1):
            self._add_edge((k, u), (level, v), cost=level, mult=mult)
        # Rule 2: climb edges.
        for level in range(1, k):
            self._add_edge((level, u), (level + 1, v), cost=1, mult=mult)
        # Rule 3: cruise at the bottom level.
        if k >= 2:
            self._add_edge((1, u), (1, v), cost=1, mult=mult)

    def _add_edge(self, a: VrfNode, b: VrfNode, cost: int, mult: float) -> None:
        # Entry with i=K and (for k == 1) the degenerate climb/cruise rules
        # can propose the same edge twice; keep the cheaper cost.
        existing = self.digraph.get_edge_data(a, b)
        if existing is None or cost < existing["cost"]:
            self.digraph.add_edge(a, b, cost=cost, mult=mult)

    # ------------------------------------------------------------------
    # Link mutations (the incremental control plane's entry points)
    # ------------------------------------------------------------------

    def remove_link(self, u: int, v: int) -> List[Session]:
        """Tear down every virtual connection riding physical link (u, v).

        Removes both directions at every level and returns the removed
        edges, the dead sessions, in ``digraph.edges`` order.
        """
        dead = [
            (a, b) for a, b in self.digraph.edges if {a[1], b[1]} == {u, v}
        ]
        if not dead:
            raise ValueError(f"no virtual connections ride link ({u}, {v})")
        self.digraph.remove_edges_from(dead)
        self._drop_tables()
        return dead

    def add_link(self, u: int, v: int, mult: float) -> List[Session]:
        """Create the virtual connections of physical link (u, v).

        Returns the edges that did not exist before, the new sessions,
        in ``digraph.edges`` order.
        """
        before = set(self.digraph.edges)
        for a, b in ((u, v), (v, u)):
            self._add_link_rules(a, b, mult)
        self._drop_tables()
        return [edge for edge in self.digraph.edges if edge not in before]

    def _drop_tables(self) -> None:
        self._arrays = None
        self._dist.clear()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def host_node(self, switch: int) -> VrfNode:
        """The VRF node hosts attach to (level K)."""
        return (self.k, switch)

    def num_vrf_nodes(self) -> int:
        return self.digraph.number_of_nodes()

    def edges(self) -> Iterator[Tuple[VrfNode, VrfNode, int]]:
        """Yield ``(from, to, cost)`` over all virtual connections."""
        for a, b, data in self.digraph.edges(data=True):
            yield a, b, data["cost"]

    # ------------------------------------------------------------------
    # Shortest-path machinery
    # ------------------------------------------------------------------

    def _edge_arrays(self) -> _EdgeArrays:
        if self._arrays is None:
            self._arrays = _EdgeArrays(self.digraph)
        return self._arrays

    def _distances(self, dst_switch: int) -> np.ndarray:
        """The distance vector toward ``dst_switch``'s host node, cached."""
        dist = self._dist.get(dst_switch)
        if dist is None:
            arrays = self._edge_arrays()
            target = arrays.index.get(self.host_node(dst_switch))
            if target is None:
                raise ValueError(f"unknown switch {dst_switch}")
            dist = self._dist[dst_switch] = arrays.distances(target)
        return dist

    def distances_to(self, dst_switch: int) -> Dict[VrfNode, int]:
        """Min cost to the host node of ``dst_switch``, per VRF node.

        Nodes that cannot reach it are left out.
        """
        dist = self._distances(dst_switch).tolist()
        return {
            node: cost
            for node, cost in zip(self._edge_arrays().nodes, dist)
            if cost < _UNREACHABLE
        }

    def distance(self, src_switch: int, dst_switch: int) -> int:
        """Theorem 1 quantity: VRF-graph distance between host VRFs."""
        dist = self._distances(dst_switch)
        row = self._edge_arrays().index.get(self.host_node(src_switch))
        if row is None or dist.item(row) >= _UNREACHABLE:
            raise ValueError(f"{src_switch} cannot reach {dst_switch}")
        return dist.item(row)

    def next_hops(
        self, node: VrfNode, dst_switch: int
    ) -> List[Tuple[VrfNode, float]]:
        """Min-cost next hops (the ECMP set) at a VRF node toward a host.

        A successor qualifies when edge cost plus its remaining distance
        equals this node's remaining distance.  Hops come in
        ``digraph.adj[node]`` order with the edges' ``mult`` weights.
        """
        dist = self._distances(dst_switch)
        arrays = self._edge_arrays()
        row = arrays.index.get(node)
        if row is None or dist.item(row) >= _UNREACHABLE:
            raise ValueError(f"{node} cannot reach switch {dst_switch}")
        lo, hi = arrays.bounds[row], arrays.bounds[row + 1]
        remaining = arrays.cost[lo:hi] + dist[arrays.succ[lo:hi]]
        tight = (remaining == dist.item(row)).nonzero()[0]
        targets, mult = arrays.targets, arrays.mult
        return [(targets[lo + i], mult[lo + i]) for i in tight.tolist()]

    @staticmethod
    def project(vrf_path: Sequence[VrfNode]) -> Tuple[int, ...]:
        """Project a VRF-graph path onto the physical switch sequence."""
        return tuple(switch for _level, switch in vrf_path)
