"""The rule base class and the global rule registry.

A rule is a named check over one :class:`~repro.lint.context.FileContext`
yielding :class:`~repro.lint.findings.Finding` objects.  Rules register
themselves at import time via :func:`register_rule`; the engine runs
every registered rule (or a requested subset) over every file.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Type

from repro.lint.context import FileContext
from repro.lint.findings import Finding


class Rule:
    """One invariant check.  Subclass and register.

    Class attributes:

    * ``name`` — stable kebab-case identity used in reports and
      suppression comments.
    * ``summary`` — one line, shown by ``repro lint --list-rules``.
    * ``invariant`` — the repository invariant the rule protects (why it
      exists, not what it matches).
    """

    name: str = ""
    summary: str = ""
    invariant: str = ""
    #: Per-file rules all run on the AST engine; ``--list-rules``
    #: groups output by this label (ast / concurrency).
    engine: str = "ast"

    def applies(self, context: FileContext) -> bool:
        """Whether the rule runs on this file at all (path scoping)."""
        return True

    def check(self, context: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, context: FileContext, line: int, column: int, message: str
    ) -> Finding:
        return Finding(
            path=context.path,
            line=line,
            column=column,
            rule=self.name,
            message=message,
        )


RULE_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule."""
    rule = cls()
    if not rule.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    RULE_REGISTRY[rule.name] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, by name."""
    import repro.lint.rules  # noqa: F401  (registers on import)

    return [RULE_REGISTRY[name] for name in sorted(RULE_REGISTRY)]


def rules_by_name(names: Optional[Sequence[str]] = None) -> List[Rule]:
    """Resolve a ``--rule`` selection; None means every rule."""
    rules = all_rules()
    if names is None:
        return rules
    known = {rule.name for rule in rules}
    unknown = sorted(set(names) - known)
    if unknown:
        raise KeyError(
            f"unknown lint rule(s) {unknown}; know {sorted(known)}"
        )
    wanted = set(names)
    return [rule for rule in rules if rule.name in wanted]


#: Signature every rule check satisfies, for typing convenience.
RuleCheck = Callable[[FileContext], Iterable[Finding]]
