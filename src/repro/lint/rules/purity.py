"""cache-key-purity: cached job code may not read ambient state.

The harness caches a job's result under (spec, code-fingerprint) alone.
Any function reachable from an experiment run-callable that reads
``os.environ``, stdin or un-fingerprinted files makes two runs with the
same key produce different results — the cache then serves whichever ran
first, silently.  The rule covers every package the experiment registry
fingerprints into job keys and flags environment reads, ``open()`` in
read mode, ``Path.read_text``/``read_bytes`` and ``input()``.

Writing artifacts is fine (``open(..., "w")`` is not flagged): purity
is about what results *depend on*, not what they emit.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

#: Packages and modules whose sources are folded into job cache keys:
#: the union of every experiment's fingerprinted dependency list in
#: harness/jobs.py, which lists itself (``selftest``) and hosts the
#: runners.
_FINGERPRINTED = (
    "core", "sim", "routing", "topology", "traffic",
    "experiments", "faults", "igp", "bgp",
)
_FINGERPRINTED_FILES = ("harness/jobs.py",)

_READ_METHODS = frozenset({"read_text", "read_bytes"})


def _open_mode(node: ast.Call) -> Optional[str]:
    """The literal mode of an ``open()`` call, if statically visible."""
    mode_node: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(
        mode_node.value, str
    ):
        return mode_node.value
    return None


@register_rule
class CacheKeyPurity(Rule):
    name = "cache-key-purity"
    summary = (
        "ambient-state reads (os.environ, file reads, stdin) in code "
        "fingerprinted into job cache keys"
    )
    invariant = (
        "a cached result is a pure function of its JobSpec and the "
        "fingerprinted sources — nothing else"
    )

    def applies(self, context: FileContext) -> bool:
        return not context.is_test and (
            context.in_package(*_FINGERPRINTED)
            or context.is_repro_file(*_FINGERPRINTED_FILES)
        )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute):
                if context.resolve(node) == "os.environ":
                    yield self.finding(
                        context, node.lineno, node.col_offset,
                        "os.environ read in cache-fingerprinted code; "
                        "thread the value through the JobSpec instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(context, node)

    def _check_call(
        self, context: FileContext, node: ast.Call
    ) -> Iterator[Finding]:
        dotted = context.resolve(node.func)
        if dotted in ("os.getenv", "os.environb.get"):
            yield self.finding(
                context, node.lineno, node.col_offset,
                f"'{dotted}' in cache-fingerprinted code; thread the "
                "value through the JobSpec instead",
            )
            return
        if isinstance(node.func, ast.Name):
            if node.func.id == "open" and "open" not in context.imports:
                mode = _open_mode(node)
                if mode is None or not set(mode) & set("wxa"):
                    yield self.finding(
                        context, node.lineno, node.col_offset,
                        "file read in cache-fingerprinted code; file "
                        "contents are not part of the cache key, so "
                        "cached results can go stale silently",
                    )
            elif node.func.id == "input" and "input" not in context.imports:
                yield self.finding(
                    context, node.lineno, node.col_offset,
                    "stdin read in cache-fingerprinted code",
                )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _READ_METHODS
        ):
            yield self.finding(
                context, node.lineno, node.col_offset,
                f".{node.func.attr}() in cache-fingerprinted code; file "
                "contents are not part of the cache key",
            )
