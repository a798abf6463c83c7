"""``deep-blocking-under-lock``: no slow waits inside a critical section.

Four *blocking* effects, each entering a function syntactically and
propagated bottom-up over the call graph to every caller:

* ``joins-process``  — joins a thread/process or waits on worker pipes
  (``Thread.join``, ``Process.join``, ``Popen.wait``,
  ``multiprocessing.connection.wait``);
* ``waits-network``  — socket/HTTP reads and writes, including the
  handler's ``self.rfile``/``self.wfile`` streams (a slow client can
  stall these indefinitely);
* ``sleeps``         — ``time.sleep`` (the StoreLock acquisition spin);
* ``long-polls``     — unbounded waits on Events, Queues and foreign
  condition variables.

The rule flags any call carrying one of these effects made while a
lock is held: the lock's critical section then lasts as long as the
slowest client/worker, starving every other thread.  The one designed
exception is ``Condition.wait`` holding exactly that condition — that
*is* the long-poll idiom and releases the lock while waiting; holding
any additional lock across the wait is still flagged.  A deliberate
blocking call under a lock is absorbed by ``# repro-effect:
allow=<effect>`` on the def line of the caller (with a justification,
same policy as suppressions); an allowance on a callee stops the
effect propagating upward from it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import (
    EXT,
    EXTERNAL,
    INTERNAL,
    CallGraph,
    CallSite,
)
from repro.lint.flow.concurrency.model import (
    COND_WAIT,
    ConcurrencyModel,
    concurrency_facts,
)
from repro.lint.flow.program import FunctionInfo, function_statements
from repro.lint.flow.registry import FlowRule, register_flow_rule

JOINS_PROCESS = "joins-process"
WAITS_NETWORK = "waits-network"
SLEEPS = "sleeps"
LONG_POLLS = "long-polls"

#: Every blocking effect, in report order.
BLOCKING_EFFECTS = (JOINS_PROCESS, WAITS_NETWORK, SLEEPS, LONG_POLLS)

_SLEEP_CALLS = frozenset({"time.sleep", "asyncio.sleep"})

#: Externally-typed receivers whose ``join``/``wait`` blocks on a worker.
_WORKER_TYPES = ("Thread", "Process", "Popen")

_JOIN_SUFFIXES = (
    ".Thread.join", ".Process.join", ".Popen.wait", ".Popen.communicate",
)

_NETWORK_CALLS = frozenset({
    "socket.create_connection", "urllib.request.urlopen",
})

_NETWORK_METHODS = frozenset({
    "recv", "recvfrom", "accept", "connect", "sendall", "send",
    "getresponse", "urlopen",
})

_LONG_POLL_SUFFIXES = (
    ".Event.wait", ".Queue.get", ".Queue.put", ".Queue.join",
    ".Condition.wait", ".Condition.wait_for", ".Barrier.wait",
)

#: Handler/socket stream attributes whose reads and writes pace on the
#: remote peer, not on local work.
_STREAM_ATTRS = frozenset({
    "rfile", "wfile", "stdin", "stdout", "stderr", "sock",
    "connection", "request",
})

_STREAM_METHODS = frozenset({
    "read", "readline", "readlines", "write", "flush", "sendall",
    "recv", "makefile",
})


def classify_external(dotted: str) -> Optional[str]:
    """Blocking effect of one fully-attributed external call, if any."""
    if dotted in _SLEEP_CALLS:
        return SLEEPS
    if dotted == "multiprocessing.connection.wait":
        return JOINS_PROCESS
    if dotted.endswith(_JOIN_SUFFIXES):
        return JOINS_PROCESS
    if dotted in _NETWORK_CALLS:
        return WAITS_NETWORK
    last = dotted.rsplit(".", 1)[-1]
    if (
        dotted.startswith(("socket.", "http.client."))
        and last in _NETWORK_METHODS
    ):
        return WAITS_NETWORK
    if dotted.endswith(_LONG_POLL_SUFFIXES):
        return LONG_POLLS
    return None


def classify_unresolved(text: str) -> Optional[str]:
    """Blocking effect readable off an untyped call's surface syntax:
    ``self.wfile.write`` and friends."""
    parts = text.split(".")
    if (
        len(parts) >= 2
        and parts[-2] in _STREAM_ATTRS
        and parts[-1] in _STREAM_METHODS
    ):
        return WAITS_NETWORK
    return None


#: ``# repro-effect: allow=<effect>[,<effect>]`` on a def line.
_ALLOW_PATTERN = re.compile(
    r"#\s*repro-effect:\s*allow\s*=\s*(?P<effects>[A-Za-z, \-]+)"
)


def collect_effect_allowances(source: str) -> Dict[int, Set[str]]:
    """Line -> effects explicitly allowed by a ``# repro-effect`` comment."""
    allowances: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return allowances
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_PATTERN.search(token.string)
        if match is None:
            continue
        names = {
            name.strip()
            for name in match.group("effects").split(",")
            if name.strip()
        }
        allowances.setdefault(token.start[0], set()).update(names)
    return allowances


class EffectOrigin:
    """Why a function carries an effect: where it enters syntactically,
    and through which callee it was inherited (for path rendering)."""

    __slots__ = ("qname", "line", "via", "detail")

    def __init__(
        self, qname: str, line: int, via: Optional[str], detail: str
    ) -> None:
        self.qname = qname
        self.line = line
        self.via = via  # callee qname the effect came through, or None
        self.detail = detail


class BlockingAnalysis:
    """Inferred blocking effects for every function in a call graph.

    Local effects come from the call graph's resolved sites plus the
    concurrency model's richer receiver typing, which recovers
    ``slot.process.join()``-style calls the call graph attributes to
    builtins.  They then propagate bottom-up to a fixpoint, recording
    each effect's origin so findings can name the path.
    """

    def __init__(self, graph: CallGraph, model: ConcurrencyModel) -> None:
        self._model = model
        self.callgraph = graph
        self.program = graph.program
        self.effects: Dict[str, Set[str]] = {}
        self.origins: Dict[str, Dict[str, EffectOrigin]] = {}
        self.allowances: Dict[str, Set[str]] = {}
        allow_by_module = {
            name: collect_effect_allowances(module.source)
            for name, module in self.program.modules.items()
        }
        sites_by_caller: Dict[str, List[CallSite]] = {}
        for site in graph.sites:
            sites_by_caller.setdefault(site.caller, []).append(site)
        for qname, info in self.program.functions.items():
            local = self._local_effects(info, sites_by_caller.get(qname, []))
            self.effects[qname] = set(local)
            self.origins[qname] = local
            allowed = allow_by_module[info.module].get(info.line, set())
            if allowed:
                self.allowances[qname] = allowed
        self._propagate()

    def _local_effects(
        self, info: FunctionInfo, sites: List[CallSite]
    ) -> Dict[str, EffectOrigin]:
        found: Dict[str, EffectOrigin] = {}

        def mark(effect: str, line: int, detail: str) -> None:
            if effect not in found:
                found[effect] = EffectOrigin(info.qname, line, None, detail)

        for site in sites:
            if site.kind == EXTERNAL:
                effect = classify_external(site.target)
                if effect is not None:
                    mark(effect, site.line, f"calls {site.target}()")
            elif site.kind != INTERNAL:
                effect = classify_unresolved(site.text)
                if effect is not None:
                    mark(effect, site.line, f"calls {site.text}()")
        self._typed_pass(info, mark)
        return found

    def _typed_pass(
        self,
        info: FunctionInfo,
        mark: Callable[[str, int, str], None],
    ) -> None:
        scope = self._model.scope_for(info.qname)
        if scope is None:
            return
        for node in function_statements(info.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            method = node.func.attr
            receiver = node.func.value
            if method in ("join", "wait", "communicate"):
                ref = self._model.type_of_expr(receiver, scope)
                if (
                    ref is not None
                    and ref[0] == EXT
                    and ref[1].rsplit(".", 1)[-1] in _WORKER_TYPES
                ):
                    mark(
                        JOINS_PROCESS, node.lineno,
                        f"calls {ref[1]}.{method}()",
                    )
            if method in _STREAM_METHODS and isinstance(
                receiver, ast.Attribute
            ):
                if receiver.attr in _STREAM_ATTRS:
                    mark(
                        WAITS_NETWORK, node.lineno,
                        f"calls .{receiver.attr}.{method}()",
                    )

    def _propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for qname in self.effects:
                absorbed = self.allowances.get(qname, set())
                for callee in sorted(self.callgraph.callees(qname)):
                    callee_effects = self.effects.get(callee)
                    if not callee_effects:
                        continue
                    for effect in callee_effects:
                        if effect in absorbed:
                            continue
                        if effect in self.allowances.get(callee, set()):
                            # The callee declared the effect intentional:
                            # it stops propagating upward there.
                            continue
                        if effect not in self.effects[qname]:
                            self.effects[qname].add(effect)
                            origin = self.origins[callee][effect]
                            self.origins[qname][effect] = EffectOrigin(
                                origin.qname, origin.line, callee,
                                origin.detail,
                            )
                            changed = True

    def effects_of(self, qname: str) -> Set[str]:
        return self.effects.get(qname, set())

    def explain(self, qname: str, effect: str) -> str:
        """Render the call path from ``qname`` to the effect's origin."""
        hops: List[str] = []
        current = qname
        seen = set()
        while True:
            origin = self.origins.get(current, {}).get(effect)
            if origin is None or origin.via is None or origin.via in seen:
                break
            seen.add(origin.via)
            hops.append(_short(origin.via))
            current = origin.via
        origin = self.origins.get(current, {}).get(effect)
        where = ""
        if origin is not None:
            module = self.program.functions[origin.qname].module
            where = f" ({module}:{origin.line}: {origin.detail})"
        path = " -> ".join(hops)
        return (f"via {path}{where}" if path else where.strip()) or effect


@register_flow_rule
class DeepBlockingUnderLock(FlowRule):
    name = "deep-blocking-under-lock"
    summary = (
        "joins, network waits, sleeps or long-polls reached while a "
        "lock is held (critical sections paced by foreign progress)"
    )
    invariant = (
        "a held lock bounds its critical section by local work only — "
        "never by a worker process, a remote peer, a timer, or "
        "another thread's notify"
    )

    def check(self, graph: CallGraph) -> Iterable[Finding]:
        facts = concurrency_facts(graph)
        analysis = BlockingAnalysis(graph, facts.model)
        findings: List[Finding] = []
        seen: Set[Tuple[str, int, int, str]] = set()

        def emit(
            path: str, line: int, column: int, effect: str, message: str
        ) -> None:
            key = (path, line, column, effect)
            if key not in seen:
                seen.add(key)
                findings.append(self.finding(path, line, column, message))

        # The function that *acquired* the lock owns the critical
        # section, so blocking is reported in that frame: directly for
        # its own calls, via the propagated effect for its callees.
        # Reporting again inside every callee would restate the same
        # critical section once per stack level.
        acquired_in: Dict[str, Set[str]] = {}
        for acq in facts.whole.acquisitions:
            acquired_in.setdefault(acq.func, set()).add(acq.lock_id)

        for call in facts.whole.calls:
            if not call.held:
                continue
            if call.kind != COND_WAIT and not (
                call.held & acquired_in.get(call.func, set())
            ):
                continue
            held_labels = ", ".join(
                facts.model.label(lock) for lock in sorted(call.held)
            )
            if call.kind == COND_WAIT:
                extra = call.held - {call.target}
                if extra:
                    labels = ", ".join(
                        facts.model.label(lock) for lock in sorted(extra)
                    )
                    emit(
                        call.path, call.line, call.column, LONG_POLLS,
                        f"{_short(call.func)} waits on condition "
                        f"{facts.model.label(call.target)} while also "
                        f"holding {labels} — the wait releases only its "
                        "own condition; the other lock stays held for "
                        "the full poll",
                    )
                continue
            allowed = analysis.allowances.get(call.func, set())
            if call.kind == INTERNAL:
                effects = (
                    analysis.effects_of(call.target)
                    & set(BLOCKING_EFFECTS)
                ) - allowed - analysis.allowances.get(call.target, set())
                for effect in [
                    e for e in BLOCKING_EFFECTS if e in effects
                ]:
                    path_text = analysis.explain(call.target, effect)
                    emit(
                        call.path, call.line, call.column, effect,
                        f"{_short(call.func)} holds {held_labels} while "
                        f"calling {_short(call.target)}, which reaches "
                        f"'{effect}' {path_text} — move the blocking "
                        "call outside the lock or annotate the caller "
                        f"with '# repro-effect: allow={effect}'",
                    )
                continue
            effect = (
                classify_external(call.target)
                if call.kind == EXTERNAL
                else None
            )
            if effect is None and call.receiver:
                # The model's receiver typing beats the call graph's
                # builtins fallback: worker.join() on a typed Thread.
                method = call.text.rsplit(".", 1)[-1]
                effect = classify_external(f"{call.receiver}.{method}")
            if effect is None and call.kind != EXTERNAL:
                effect = classify_unresolved(call.text)
            if effect is not None and effect not in allowed:
                what = call.target or call.text
                emit(
                    call.path, call.line, call.column, effect,
                    f"{_short(call.func)} holds {held_labels} while "
                    f"calling {what} ('{effect}') — move the blocking "
                    "call outside the lock or annotate the caller with "
                    f"'# repro-effect: allow={effect}'",
                )
        return sorted(set(findings))


def _short(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qname
