"""deep-worker-safety: thread entry points keep no module-level state.

``http.server`` handler methods (``do_GET`` and friends on a
``BaseHTTPRequestHandler`` subclass) and any function handed to
``threading.Thread(target=...)`` run concurrently inside one process,
so a module-level variable written from code they reach is a data race:
shared state must live on an instance behind a lock (the
:class:`~repro.service.jobs.JobManager` pattern).  The rule finds those
thread entry points and flags every write to module state reachable
from them — a ``global`` rebinding, an in-place container method, or a
subscript store into a module-level container.  The lockset rule
covers instance attributes; this one covers module globals.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.program import (
    FunctionInfo,
    ModuleInfo,
    Program,
    annotation_name,
    function_statements,
)
from repro.lint.flow.registry import FlowRule, register_flow_rule

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
})


def reachable_from(graph: CallGraph, roots: Iterable[str]) -> Set[str]:
    """Every function reachable from ``roots`` over resolved edges."""
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(graph.callees(current))
    return seen


def find_thread_entry_points(program: Program) -> List[str]:
    """Function qnames that run on their own thread inside one process.

    Two shapes are recognized:

    * ``do_*`` methods on (transitive) subclasses of an HTTP request
      handler — ``ThreadingHTTPServer`` runs each request on a fresh
      thread, so every handler method is a concurrent entry point;
    * any program function passed as ``target=`` to a
      ``threading.Thread(...)`` construction.
    """
    entries: List[str] = []
    handler_classes: Set[str] = set()
    # Transitive closure over in-program bases: a class is a handler if
    # any base *name* ends in "HTTPRequestHandler" (stdlib bases are not
    # in the program) or any resolved base is itself a handler class.
    changed = True
    while changed:
        changed = False
        for cls in program.classes.values():
            if cls.qname in handler_classes:
                continue
            module = program.modules[cls.module]
            for base in cls.base_exprs:
                dotted = annotation_name(base) or ""
                resolved = (
                    program._resolve_type_name(module, dotted)
                    if dotted
                    else None
                )
                if dotted.endswith("HTTPRequestHandler") or (
                    resolved in handler_classes
                ):
                    handler_classes.add(cls.qname)
                    changed = True
                    break
    for cls_qname in sorted(handler_classes):
        cls = program.classes[cls_qname]
        for method, qname in sorted(cls.methods.items()):
            if method.startswith("do_"):
                entries.append(qname)
    for module in program.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(module, node)
            if not (dotted == "threading.Thread" or
                    dotted.endswith(".Thread")):
                continue
            for keyword in node.keywords:
                if keyword.arg != "target":
                    continue
                target = keyword.value
                resolved = None
                if isinstance(target, ast.Name):
                    resolved = program.resolve_in_module(
                        module, target.id
                    )
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    # self._worker_loop inside a class body: look the
                    # method up on the lexically enclosing class.
                    for cls in program.classes.values():
                        if cls.module != module.name:
                            continue
                        if (
                            node.lineno >= cls.node.lineno
                            and target.attr in cls.methods
                        ):
                            resolved = cls.methods[target.attr]
                if resolved and resolved in program.functions:
                    entries.append(resolved)
    return sorted(set(entries))


def _call_name(module: ModuleInfo, node: ast.Call) -> str:
    """The dotted name of a call's callee as written, best effort."""
    func = node.func
    if isinstance(func, ast.Name):
        return module.imports.get(func.id, func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        head = module.imports.get(func.value.id, func.value.id)
        return f"{head}.{func.attr}"
    return ""


def _local_bindings(info: FunctionInfo) -> Set[str]:
    """Names bound locally (params, assignments, loop targets, withitems).

    Only names in store context bind: in ``TABLE[key] = v`` the
    container ``TABLE`` is *read*, so it stays the module global.
    """
    bound = set(info.param_names())
    for node in function_statements(info.node):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.For):
            targets = [node.target]
        elif isinstance(node, ast.withitem) and node.optional_vars:
            targets = [node.optional_vars]
        for target in targets:
            for child in ast.walk(target):
                if isinstance(child, ast.Name) and isinstance(
                    child.ctx, ast.Store
                ):
                    bound.add(child.id)
    return bound


@register_flow_rule
class DeepWorkerSafety(FlowRule):
    name = "deep-worker-safety"
    summary = (
        "module-global mutation reachable from HTTP handler methods or "
        "threading.Thread targets"
    )
    invariant = (
        "code running on handler and manager threads shares no mutable "
        "module state; shared state lives on an instance behind a lock"
    )

    def check(self, graph: CallGraph) -> Iterable[Finding]:
        program = graph.program
        reachable = reachable_from(graph, find_thread_entry_points(program))
        for qname in sorted(reachable):
            info = program.functions.get(qname)
            if info is not None:
                yield from self._check_global_mutation(program, info)

    def _check_global_mutation(
        self, program: Program, info: FunctionInfo
    ) -> Iterable[Finding]:
        module = program.module_of(info)
        path = module.path
        node = info.node
        prefix = f"thread-reachable '{info.name}'"
        tail = (
            "handler threads race on module state — keep it on an "
            "instance behind a lock"
        )
        declared_global: Set[str] = set()
        for child in function_statements(node):
            if isinstance(child, ast.Global):
                declared_global.update(child.names)
        if declared_global:
            for child in function_statements(node):
                if isinstance(child, (ast.Assign, ast.AugAssign)):
                    targets = (
                        child.targets
                        if isinstance(child, ast.Assign)
                        else [child.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in declared_global
                        ):
                            yield self.finding(
                                path, child.lineno, child.col_offset,
                                f"{prefix} rebinds module global "
                                f"'{target.id}'; {tail}",
                            )
        locals_bound = _local_bindings(info) - declared_global
        module_globals = set(module.assigns)
        for child in function_statements(node):
            name: str = ""
            what: str = ""
            if isinstance(child, ast.Call):
                func = child.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in _MUTATING_METHODS
                ):
                    name, what = func.value.id, f".{func.attr}()"
            elif isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                    ):
                        name, what = target.value.id, "[...] assignment"
            if not name or name in locals_bound:
                continue
            if name in module_globals and _is_mutable_literal(
                module.assigns[name]
            ):
                yield self.finding(
                    path, child.lineno, child.col_offset,
                    f"{prefix} mutates module-level '{name}' ({what}); "
                    f"{tail}",
                )


def _is_mutable_literal(value: ast.expr) -> bool:
    return isinstance(value, (
        ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
        ast.SetComp,
    ))
