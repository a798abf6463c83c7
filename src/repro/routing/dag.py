"""Next-hop DAG propagation shared by ECMP and the VRF realization of
Shortest-Union(K).

Hardware ECMP is a per-hop decision: at each switch, traffic toward a
destination splits (approximately) evenly over the next hops that lie on
a minimum-cost path, weighted by the number of parallel links.  Both the
physical shortest-path DAG (plain ECMP) and the VRF-graph shortest-path
DAG (Shortest-Union) give the expected traffic fraction per DAG edge by
the same forward propagation of the per-hop splits, :func:`fractions`.
The per-flow walk over the same DAGs is compiled, in
:mod:`repro.sim.engine.routing`.

A "DAG" here is given functionally: ``next_hops(node)`` returns the list
of ``(neighbor, weight)`` choices at ``node``.  Weights are proportional
shares (parallel-link multiplicity); they need not be normalized.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Sequence, Tuple

Node = Hashable
NextHops = Callable[[Node], Sequence[Tuple[Node, float]]]


class DagError(RuntimeError):
    """Raised when a walk or propagation cannot reach the destination."""


def fractions(
    next_hops: NextHops,
    src: Node,
    dst: Node,
    max_nodes: int = 1_000_000,
) -> Dict[Tuple[Node, Node], float]:
    """Expected traffic fraction on each DAG edge for a unit of src→dst.

    Performs forward propagation: a unit of traffic enters at ``src``
    and splits at every node proportionally to the next-hop weights.
    The DAG property guarantees each node's inflow is final once all its
    predecessors have been drained; we exploit it with a worklist over a
    dynamically discovered subgraph (Kahn-style, on in-degrees within the
    reachable subgraph).
    """
    # Discover the reachable subgraph and in-degrees.
    successors: Dict[Node, Sequence[Tuple[Node, float]]] = {}
    indegree: Dict[Node, int] = {src: 0}
    stack = [src]
    while stack:
        node = stack.pop()
        if node in successors or node == dst:
            continue
        choices = next_hops(node)
        if not choices:
            raise DagError(f"dead end at {node!r} propagating toward {dst!r}")
        successors[node] = choices
        for nbr, _weight in choices:
            indegree[nbr] = indegree.get(nbr, 0) + 1
            if nbr not in successors and nbr != dst:
                stack.append(nbr)
        if len(successors) > max_nodes:
            raise DagError("propagation exceeded max_nodes; graph has a cycle?")

    inflow: Dict[Node, float] = {src: 1.0}
    edge_flow: Dict[Tuple[Node, Node], float] = {}
    ready = [src]
    while ready:
        node = ready.pop()
        if node == dst:
            continue
        amount = inflow.get(node, 0.0)
        choices = successors[node]
        total_weight = sum(weight for _nbr, weight in choices)
        if total_weight <= 0:
            raise DagError(f"non-positive weights at {node!r}")
        for nbr, weight in choices:
            share = amount * weight / total_weight
            if share > 0.0:
                edge_flow[(node, nbr)] = edge_flow.get((node, nbr), 0.0) + share
            inflow[nbr] = inflow.get(nbr, 0.0) + share
            indegree[nbr] -= 1
            if indegree[nbr] == 0:
                ready.append(nbr)
    arrived = inflow.get(dst, 0.0)
    if abs(arrived - 1.0) > 1e-9:
        raise DagError(
            f"propagation lost traffic: {arrived} arrived at {dst!r} "
            "(next_hops is not a DAG toward dst)"
        )
    return edge_flow

