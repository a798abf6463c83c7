"""Deep-rule base class and registry, mirroring the per-file one.

A :class:`FlowRule` checks one whole-program invariant over a built
:class:`~repro.lint.flow.callgraph.CallGraph` instead of one file.  It
emits the same :class:`~repro.lint.findings.Finding` objects, so
suppression comments, the text/JSON reporters, baselines and CI gating
all work unchanged — the only difference is *what* a rule can see.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph

#: Engine groups in display order, with their ``--list-rules`` section
#: titles.  The CLI renders *all* engines through this one table (plus
#: any engine tag it has never heard of, appended alphabetically), so
#: adding an engine means adding a row here — not another copy-pasted
#: rendering branch.
ENGINE_SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("ast", "per-file AST rules"),
    ("flow", "call-graph rules [deep]"),
    ("concurrency", "lockset/order/blocking rules [deep]"),
)


class FlowRule:
    """One interprocedural invariant check.  Subclass and register."""

    name: str = ""
    summary: str = ""
    invariant: str = ""
    #: Which analysis engine the rule runs on: "flow" for the
    #: call-graph analyses, "concurrency" for the lockset/order/
    #: blocking suite (``--list-rules`` groups by this, via
    #: ``ENGINE_SECTIONS``).
    engine: str = "flow"

    def check(self, graph: CallGraph) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, line: int, column: int, message: str
    ) -> Finding:
        return Finding(
            path=path, line=line, column=column, rule=self.name,
            message=message,
        )


FLOW_REGISTRY: Dict[str, FlowRule] = {}


def register_flow_rule(cls: Type[FlowRule]) -> Type[FlowRule]:
    """Class decorator: instantiate and register a deep rule."""
    rule = cls()
    if not rule.name:
        raise ValueError(f"flow rule {cls.__name__} has no name")
    FLOW_REGISTRY[rule.name] = rule
    return cls


def all_flow_rules() -> List[FlowRule]:
    """Every registered deep rule, by name (registers on import)."""
    from repro.lint.flow import effects, taint, units, worker  # noqa: F401
    from repro.lint.flow.concurrency import (  # noqa: F401
        blocking,
        order,
        races,
    )

    return [FLOW_REGISTRY[name] for name in sorted(FLOW_REGISTRY)]


def flow_rules_by_name(
    names: Optional[Sequence[str]] = None,
) -> List[FlowRule]:
    """Resolve a ``--rule`` selection against the deep registry.

    Unlike the per-file resolver this is permissive about unknown
    names: the CLI validates the union of both registries itself.
    """
    rules = all_flow_rules()
    if names is None:
        return rules
    wanted = set(names)
    return [rule for rule in rules if rule.name in wanted]
