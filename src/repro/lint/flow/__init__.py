"""Interprocedural (deep) lint: whole-package dataflow analyses.

``repro lint --deep`` builds one :class:`~repro.lint.flow.program.Program`
over the ``repro`` package, derives a call graph, and runs every
registered :class:`~repro.lint.flow.registry.FlowRule` against it.  Deep
rules emit the same :class:`~repro.lint.findings.Finding` objects as the
per-file rules, so ``# repro-lint: disable=...`` comments, the text/JSON
reporters and CI gating all apply unchanged.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.program import Program
from repro.lint.flow.registry import (
    FLOW_REGISTRY,
    FlowRule,
    all_flow_rules,
    flow_rules_by_name,
    register_flow_rule,
)
from repro.lint.suppressions import collect_suppressions

__all__ = [
    "FLOW_REGISTRY",
    "FlowRule",
    "all_flow_rules",
    "build_call_graph",
    "CallGraph",
    "deep_lint_paths",
    "flow_rules_by_name",
    "Program",
    "register_flow_rule",
]


def _display_path(path: str) -> str:
    """Render program paths the way the per-file engine does: relative
    to the working directory whenever they live under it."""
    try:
        relative = os.path.relpath(path)
    except ValueError:  # different drive (Windows)
        return path
    return path if relative.startswith("..") else relative


def _within(path: pathlib.Path, roots: List[pathlib.Path]) -> bool:
    return any(root == path or root in path.parents for root in roots)


def deep_lint_paths(
    paths: Sequence[str],
    rule_names: Optional[Sequence[str]] = None,
    package: str = "repro",
) -> Tuple[List[Finding], Dict[str, float]]:
    """Run the deep rules over the package located under ``paths``.

    The whole package is always analyzed (interprocedural facts need
    every module), but findings are reported only for files under the
    requested paths — so a changed-files pre-commit invocation gates
    exactly the files it was handed.  Returns ``(findings, stats)``
    where ``stats`` is the call graph's resolution summary.
    """
    program = Program.from_paths(
        [pathlib.Path(p) for p in paths], package
    )
    if program is None:
        return [], {}
    graph = build_call_graph(program)
    findings: List[Finding] = []
    for rule in flow_rules_by_name(rule_names):
        findings.extend(rule.check(graph))

    roots = [pathlib.Path(p).resolve() for p in paths]
    suppressions = {
        module.path: collect_suppressions(module.source)
        for module in program.modules.values()
    }
    kept: List[Finding] = []
    for finding in findings:
        if not _within(pathlib.Path(finding.path).resolve(), roots):
            continue
        index = suppressions.get(finding.path)
        if index is not None and index.suppresses(finding):
            continue
        kept.append(
            Finding(
                path=_display_path(finding.path),
                line=finding.line,
                column=finding.column,
                rule=finding.rule,
                message=finding.message,
            )
        )
    return sorted(set(kept)), graph.resolution_stats()
