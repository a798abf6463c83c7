"""``deep-lockset-races``: static lockset race detection.

An Eraser-style lockset discipline, adapted to static analysis: every
access of shared instance state observed by the region walk carries the
set of locks held on that path.  Two accounting modes:

* **declared** — a ``# repro-guard: <attr> by <lock>`` comment states
  the invariant; every access of the attribute anywhere in the race
  walk must hold that lock.  ``<attr> unguarded`` documents (and
  silences) deliberately lock-free fields.
* **inferred** — for attributes of lock-owning classes with no
  declaration, the candidate lockset is the intersection of held sets
  over all accesses.  A non-empty intersection is a consistently
  guarded attribute; an empty one, on an attribute that is written and
  reachable from a thread entry point, is a potential race — the rule
  names the lock that guards the majority of accesses and flags the
  outliers.

``# repro-guard: requires <lock>`` moves a function's locking burden to
its callers: the function is analyzed with the lock held, and every
call site missing it is flagged here.  Condition-variable misuse
(``wait``/``notify`` without holding the condition) is reported too —
it is the same held-set bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import INTERNAL, CallGraph
from repro.lint.flow.concurrency.model import (
    AttrAccess,
    ConcurrencyFacts,
    ConcurrencyModel,
    concurrency_facts,
)
from repro.lint.flow.registry import FlowRule, register_flow_rule


@register_flow_rule
class DeepLocksetRaces(FlowRule):
    name = "deep-lockset-races"
    summary = (
        "shared instance state accessed with an empty or inconsistent "
        "lockset on thread-reachable paths (static Eraser)"
    )
    invariant = (
        "every shared mutable attribute has one guarding lock, held on "
        "every interprocedural access path; the contract is declared "
        "with '# repro-guard: <attr> by <lock>' or inferred from the "
        "dominant locking pattern"
    )

    def check(self, graph: CallGraph) -> Iterable[Finding]:
        facts = concurrency_facts(graph)
        findings: List[Finding] = []
        findings.extend(self._bad_guards(facts))
        findings.extend(self._cond_misuse(facts))
        findings.extend(self._requires_violations(facts))
        findings.extend(self._declared_violations(facts))
        findings.extend(self._inferred_races(facts))
        return sorted(set(findings))

    # -- annotation hygiene --------------------------------------------

    def _bad_guards(self, facts: ConcurrencyFacts) -> Iterable[Finding]:
        for bad in facts.model.bad_guards:
            yield self.finding(bad.path, bad.line, 0, bad.message)
        for decl in facts.model.guards.values():
            if not decl.reason:
                yield self.finding(
                    decl.path, decl.line, 0,
                    "repro-guard declaration needs a justification: "
                    "append ' -- <why this contract holds>'",
                )
        for req in facts.model.requires.values():
            if not req.reason:
                yield self.finding(
                    req.path, req.line, 0,
                    "repro-guard requires-declaration needs a "
                    "justification: append ' -- <why callers hold it>'",
                )

    # -- condition discipline ------------------------------------------

    def _cond_misuse(self, facts: ConcurrencyFacts) -> Iterable[Finding]:
        for misuse in facts.whole.misuses:
            label = facts.model.label(misuse.lock_id)
            yield self.finding(
                misuse.path, misuse.line, misuse.column,
                f"'{misuse.op}' on condition {label} without holding it "
                f"(in {_short(misuse.func)}); wait/notify outside the "
                "condition raises RuntimeError at runtime",
            )

    # -- requires contracts --------------------------------------------

    def _requires_violations(
        self, facts: ConcurrencyFacts
    ) -> Iterable[Finding]:
        for call in facts.whole.calls:
            if call.kind != INTERNAL:
                continue
            decl = facts.model.requires.get(call.target)
            if decl is None:
                continue
            missing = decl.locks - call.held
            if not missing:
                continue
            labels = ", ".join(
                facts.model.label(lock) for lock in sorted(missing)
            )
            yield self.finding(
                call.path, call.line, call.column,
                f"{_short(call.func)} calls {_short(call.target)} "
                f"without holding {labels}, which it declares with "
                "'# repro-guard: requires' — acquire the lock around "
                "this call",
            )

    # -- declared attribute guards -------------------------------------

    def _declared_violations(
        self, facts: ConcurrencyFacts
    ) -> Iterable[Finding]:
        model = facts.model
        for access in facts.race.accesses:
            decl = model.guards.get((access.cls, access.attr))
            if decl is None or not decl.lock_id:
                continue
            if decl.lock_id in access.held:
                continue
            label = model.label(decl.lock_id)
            cls = access.cls.rsplit(".", 1)[-1]
            kind = "writes" if access.write else "reads"
            yield self.finding(
                access.path, access.line, access.column,
                f"{_short(access.func)} {kind} {cls}.{access.attr} "
                f"without holding {label} (declared '# repro-guard: "
                f"{access.attr} by ...' at {_file(decl.path)}:"
                f"{decl.line}); take the lock or go through a "
                "lock-taking accessor",
            )

    # -- inferred locksets ---------------------------------------------

    def _inferred_races(
        self, facts: ConcurrencyFacts
    ) -> Iterable[Finding]:
        model = facts.model
        by_attr: Dict[Tuple[str, str], List[AttrAccess]] = {}
        for access in facts.race.accesses:
            key = (access.cls, access.attr)
            if access.cls not in model.locks_by_class:
                continue
            if key in model.guards:
                continue
            by_attr.setdefault(key, []).append(access)
        for (cls_qname, attr), accesses in sorted(by_attr.items()):
            if not any(a.write for a in accesses):
                continue
            if not any(
                a.func in facts.thread_reachable for a in accesses
            ):
                continue
            lockset: Set[str] = set(accesses[0].held)
            for access in accesses[1:]:
                lockset &= access.held
            if lockset:
                continue  # consistently guarded
            yield from self._flag_outliers(model, cls_qname, attr, accesses)

    def _flag_outliers(
        self,
        model: ConcurrencyModel,
        cls_qname: str,
        attr: str,
        accesses: List[AttrAccess],
    ) -> Iterable[Finding]:
        counts: Dict[str, int] = {}
        for access in accesses:
            for lock in access.held:
                counts[lock] = counts.get(lock, 0) + 1
        cls = cls_qname.rsplit(".", 1)[-1]
        if not counts:
            for access in accesses:
                if not access.write:
                    continue
                yield self.finding(
                    access.path, access.line, access.column,
                    f"{_short(access.func)} writes {cls}.{attr} with no "
                    "lock held, and the attribute is reachable from a "
                    "thread entry point with no lock on any access — "
                    "guard it, or declare '# repro-guard: "
                    f"{attr} unguarded -- <why>' if it is safe",
                )
            return
        majority = max(sorted(counts), key=lambda lock: counts[lock])
        label = model.label(majority)
        guarded = counts[majority]
        total = len(accesses)
        for access in accesses:
            if majority in access.held:
                continue
            kind = "writes" if access.write else "reads"
            yield self.finding(
                access.path, access.line, access.column,
                f"{_short(access.func)} {kind} {cls}.{attr} without "
                f"{label}, which guards {guarded} of {total} accesses "
                "— inconsistent lockset; hold the lock here or declare "
                f"the contract with '# repro-guard: {attr} by ...'",
            )


def _short(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qname


def _file(path: str) -> str:
    return path.rsplit("/", 1)[-1]
