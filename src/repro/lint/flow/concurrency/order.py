"""``deep-lock-order``: lock-acquisition-order cycles are deadlocks.

The region walk records every acquisition together with the locks
already held on that path — ``with``-statements, explicit ``acquire()``
calls, ``Condition.wait`` re-acquires, and the file-based
:class:`~repro.service.store.StoreLock` (any in-program class defining
``acquire``/``release``) all count.  Each (held, acquired) pair becomes
an edge in the lock-order graph; a cycle means two paths acquire the
same locks in opposite orders and can deadlock under the right
interleaving.  Re-acquiring a non-reentrant lock already held on the
same path is reported too: that deadlocks without needing a second
thread.

:func:`build_lock_order` is exposed on its own so the meta-test can pin
the service layer's lock-order graph as a golden value — growing a new
edge there is a design change that should be reviewed, not discovered
in production.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.concurrency.model import (
    LockAcquisition,
    concurrency_facts,
)
from repro.lint.flow.registry import FlowRule, register_flow_rule


@dataclass
class LockOrderGraph:
    """Acquisition-order edges between lock identities."""

    #: Every discovered lock, acquired anywhere or not.
    nodes: Set[str] = field(default_factory=set)
    #: (held, then-acquired) -> first acquisition site witnessing it.
    edges: Dict[Tuple[str, str], LockAcquisition] = field(
        default_factory=dict
    )
    #: Same-path re-acquisitions of non-reentrant locks.
    self_reacquires: List[LockAcquisition] = field(default_factory=list)

    def edge_list(self) -> List[Tuple[str, str]]:
        return sorted(self.edges)

    def cycles(self) -> List[List[str]]:
        """Elementary cycles, canonicalized (rotated to the min node)."""
        adjacency: Dict[str, List[str]] = {}
        for src, dst in self.edges:
            adjacency.setdefault(src, []).append(dst)
        for dsts in adjacency.values():
            dsts.sort()
        found: Set[Tuple[str, ...]] = set()
        cycles: List[List[str]] = []
        for start in sorted(adjacency):
            stack: List[Tuple[str, List[str]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in adjacency.get(node, []):
                    if nxt == start:
                        key = _canonical(path)
                        if key not in found:
                            found.add(key)
                            cycles.append(list(key))
                    elif nxt not in path and len(path) < 8:
                        stack.append((nxt, path + [nxt]))
        return sorted(cycles)


def _canonical(path: List[str]) -> Tuple[str, ...]:
    pivot = path.index(min(path))
    return tuple(path[pivot:] + path[:pivot])


def build_lock_order(graph: CallGraph) -> LockOrderGraph:
    """The acquisition-order graph for one program."""
    facts = concurrency_facts(graph)
    order = LockOrderGraph(nodes=set(facts.model.locks))
    for acq in facts.whole.acquisitions:
        if acq.lock_id in acq.held_before:
            info = facts.model.locks.get(acq.lock_id)
            if (
                info is not None
                and not info.reentrant
                and acq.via != "wait-reacquire"
            ):
                order.self_reacquires.append(acq)
            continue
        for prior in sorted(acq.held_before):
            order.edges.setdefault((prior, acq.lock_id), acq)
    return order


@register_flow_rule
class DeepLockOrder(FlowRule):
    name = "deep-lock-order"
    summary = (
        "cycles in the interprocedural lock-acquisition-order graph "
        "(potential deadlocks), and same-path re-acquisition of "
        "non-reentrant locks"
    )
    invariant = (
        "all paths acquire locks in one global order; the acquisition "
        "graph (with Condition.wait re-acquires and file locks as "
        "nodes) stays acyclic"
    )

    def check(self, graph: CallGraph) -> Iterable[Finding]:
        facts = concurrency_facts(graph)
        order = build_lock_order(graph)
        findings: List[Finding] = []
        for acq in order.self_reacquires:
            label = facts.model.label(acq.lock_id)
            findings.append(self.finding(
                acq.path, acq.line, acq.column,
                f"{_short(acq.func)} re-acquires non-reentrant lock "
                f"{label} already held on this path — this deadlocks "
                "on a single thread (use an RLock, or split the "
                "locked region)",
            ))
        for cycle in order.cycles():
            labels = [facts.model.label(lock) for lock in cycle]
            rendered = " -> ".join(labels + [labels[0]])
            witness = order.edges[(cycle[0], cycle[1 % len(cycle)])]
            sites = "; ".join(
                f"{facts.model.label(src)} then "
                f"{facts.model.label(dst)} at "
                f"{_file(order.edges[(src, dst)].path)}:"
                f"{order.edges[(src, dst)].line}"
                for src, dst in _cycle_edges(cycle)
            )
            findings.append(self.finding(
                witness.path, witness.line, witness.column,
                f"lock-order cycle {rendered}: two paths acquire these "
                f"locks in opposite orders ({sites}) — a potential "
                "deadlock; pick one global order",
            ))
        return sorted(set(findings))


def _cycle_edges(cycle: List[str]) -> List[Tuple[str, str]]:
    return [
        (cycle[i], cycle[(i + 1) % len(cycle)])
        for i in range(len(cycle))
    ]


def _short(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qname


def _file(path: str) -> str:
    return path.rsplit("/", 1)[-1]
