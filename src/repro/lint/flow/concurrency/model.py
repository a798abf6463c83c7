"""Shared concurrency model: locks, guard annotations, held-lock regions.

Everything the lockset, lock-order and blocking rules need is derived
once per call graph and cached:

* **lock discovery** — instance attributes assigned a
  ``threading.Lock`` / ``RLock`` / ``Condition`` / ``Semaphore`` (or a
  program class that *is* a lock: it defines both ``acquire`` and
  ``release``, like the file-based ``StoreLock``) in ``__init__``, plus
  module-level ``NAME = threading.Lock()`` globals.  A lock's identity
  is its owner: ``repro.service.jobs.JobManager._cond``.
* **guard annotations** — ``# repro-guard:`` comments declare the
  locking contract so the lockset rule can *verify* instead of guess:

  - ``# repro-guard: <attr> by <lock> -- reason`` (in a class body):
    every access of ``<attr>`` must hold ``<lock>``;
  - ``# repro-guard: <attr> unguarded -- reason``: the attribute is
    deliberately lock-free (immutable, or internally synchronized);
  - ``# repro-guard: requires <lock> -- reason`` (on or above a
    ``def``): the function demands the lock already held at entry; it
    is analyzed with the lock held and every call site is checked.

  The reason after ``--`` is mandatory; the lint meta-test rejects
  bare annotations.
* **the region walk** — an interprocedural traversal that carries the
  set of held locks through ``with <lock>:`` blocks, explicit
  ``.acquire()`` / ``.release()`` pairs and ``Condition.wait``
  re-acquires, across resolved call edges.  It records attribute
  accesses (with their locksets), lock acquisition order, calls made
  while holding a lock, and condition-variable misuse.

Known approximations, chosen to keep the gate actionable: acquisitions
inside a branch are assumed balanced (they do not escape the branch),
lock *aliases* (``lock = self._lock``) are not tracked, and module
globals are left to ``deep-worker-safety``.  Classes deriving from
``threading.local`` are exempt everywhere — per-thread state cannot
race.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.lint.flow.callgraph import (
    CLASS,
    EXT,
    EXTERNAL,
    INTERNAL,
    CallGraph,
    CallSite,
    _collect_local_types,
)
from repro.lint.flow.program import (
    FunctionInfo,
    ModuleInfo,
    Program,
    annotation_name,
    function_statements,
)
from repro.lint.flow.concurrency.worker import find_thread_entry_points

#: (kind, name) like the call-graph's LocalType: kind is CLASS or EXT.
TypeRef = Tuple[str, str]

#: External lock constructors -> reentrant on one thread?  A Condition
#: wraps an RLock by default, so re-entering it is legal.
_EXTERNAL_LOCKS: Dict[str, bool] = {
    "threading.Lock": False,
    "threading.RLock": True,
    "threading.Condition": True,
    "threading.Semaphore": False,
    "threading.BoundedSemaphore": False,
    "multiprocessing.Lock": False,
    "multiprocessing.RLock": True,
}

_CONDITION_TYPES = frozenset({"threading.Condition"})

#: Method names that operate on a lock object itself.
_LOCK_OPS = frozenset({
    "acquire", "release", "locked", "wait", "wait_for",
    "notify", "notify_all",
})

#: Container methods that mutate their receiver in place (an access of
#: the receiver attribute is then a *write* for lockset purposes).
_MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "remove", "pop",
    "popleft", "popitem", "clear", "update", "setdefault", "add",
    "discard", "sort", "reverse", "set",
})

#: Subscripted annotations whose *second* argument types the elements.
_VALUE_CONTAINERS = frozenset({
    "Dict", "dict", "Mapping", "MutableMapping", "DefaultDict",
    "OrderedDict",
})

#: Subscripted annotations whose *first* argument types the elements.
_ELEM_CONTAINERS = frozenset({
    "List", "list", "Set", "set", "FrozenSet", "frozenset", "Deque",
    "deque", "Sequence", "Iterable", "Iterator", "Collection",
})

_GUARD_RE = re.compile(
    r"#\s*repro-guard:\s*(?P<body>.*?)\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)

#: Depth cap for the region walk (call chains, not AST depth).
_MAX_WALK_DEPTH = 48


@dataclass(frozen=True)
class AttrType:
    """Light attribute type: the attribute itself and, for containers,
    the element (or dict-value) type."""

    ref: Optional[TypeRef] = None
    elem: Optional[TypeRef] = None


@dataclass(frozen=True)
class LockInfo:
    """One discovered lock and how it behaves."""

    lock_id: str
    owner_class: str  # class qname, or "" for a module-level lock
    attr: str
    type_name: str  # "threading.Condition", or a program class qname
    reentrant: bool
    is_condition: bool

    @property
    def label(self) -> str:
        """Short display form: ``JobManager._cond``."""
        owner = self.owner_class or self.lock_id.rsplit(".", 2)[-2]
        return f"{owner.rsplit('.', 1)[-1]}.{self.attr}"


@dataclass(frozen=True)
class GuardDecl:
    """``# repro-guard: <attr> by <lock>`` (or ``unguarded``)."""

    owner_class: str
    attr: str
    lock_id: str  # "" when declared unguarded
    path: str
    line: int
    reason: str


@dataclass(frozen=True)
class RequiresDecl:
    """``# repro-guard: requires <lock>`` on a function."""

    func: str
    locks: FrozenSet[str]
    path: str
    line: int
    reason: str


@dataclass(frozen=True)
class BadGuard:
    """A guard comment the model could not resolve (typo safety)."""

    path: str
    line: int
    message: str


@dataclass(frozen=True)
class AttrAccess:
    """One read/write of ``cls.attr`` with the locks held at that point."""

    cls: str
    attr: str
    write: bool
    held: FrozenSet[str]
    func: str
    path: str
    line: int
    column: int


@dataclass(frozen=True)
class LockAcquisition:
    """One lock acquisition and what was already held."""

    lock_id: str
    held_before: FrozenSet[str]
    via: str  # "with" | "acquire" | "wait-reacquire"
    func: str
    path: str
    line: int
    column: int


#: LockCall kind for a ``Condition.wait`` made while holding it.
COND_WAIT = "cond-wait"


@dataclass(frozen=True)
class LockCall:
    """A call made while holding locks (or a call to a requires-func)."""

    target: str
    kind: str  # internal/external/unresolved/cond-wait
    text: str
    held: FrozenSet[str]
    func: str
    path: str
    line: int
    column: int
    #: Externally-typed receiver of a method call ("threading.Thread"
    #: for ``worker.join()``), when the model can recover it.
    receiver: str = ""


@dataclass(frozen=True)
class CondMisuse:
    """``wait``/``notify`` on a condition that is not held."""

    lock_id: str
    op: str
    func: str
    path: str
    line: int
    column: int


@dataclass
class RegionFacts:
    """Everything one region walk observed."""

    accesses: List[AttrAccess] = field(default_factory=list)
    acquisitions: List[LockAcquisition] = field(default_factory=list)
    calls: List[LockCall] = field(default_factory=list)
    misuses: List[CondMisuse] = field(default_factory=list)
    reached: Set[str] = field(default_factory=set)
    #: Caller -> internal callees this walk resolved (a superset of the
    #: call graph's edges: receiver types flow through the region walk).
    edges: Dict[str, Set[str]] = field(default_factory=dict)


@dataclass
class Scope:
    """Per-function typing context for the walker."""

    info: FunctionInfo
    module: ModuleInfo
    env: Dict[str, TypeRef]
    elems: Dict[str, TypeRef]


class ConcurrencyModel:
    """Locks, guards and typing shared by the three concurrency rules."""

    def __init__(self, graph: CallGraph) -> None:
        self.callgraph = graph
        self.program: Program = graph.program
        #: class qname -> attr -> AttrType (richer than the program's
        #: ``attr_types``: class-body annotations, container elements).
        self.attr_types: Dict[str, Dict[str, AttrType]] = {}
        self.locks: Dict[str, LockInfo] = {}
        self.locks_by_class: Dict[str, Dict[str, LockInfo]] = {}
        self.module_locks: Dict[str, Dict[str, LockInfo]] = {}
        self.guards: Dict[Tuple[str, str], GuardDecl] = {}
        self.requires: Dict[str, RequiresDecl] = {}
        self.bad_guards: List[BadGuard] = []
        self.thread_local_classes: Set[str] = set()
        self._site_index: Dict[Tuple[str, int, int], CallSite] = {}
        for site in graph.sites:
            self._site_index[(site.caller, site.line, site.column)] = site
        self._scopes: Dict[str, Scope] = {}
        self._build_attr_types()
        self._discover_locks()
        self._collect_guards()

    # -- attribute typing ----------------------------------------------

    def _build_attr_types(self) -> None:
        for cls in self.program.classes.values():
            module = self.program.modules[cls.module]
            attrs: Dict[str, AttrType] = {}
            # Class-body annotations (dataclass fields, handler attrs).
            for stmt in cls.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    attrs[stmt.target.id] = self._resolve_type_expr(
                        module, stmt.annotation
                    )
            init_qname = cls.methods.get("__init__")
            if init_qname is not None:
                self._scan_init(module, cls.qname, init_qname, attrs)
            self.attr_types[cls.qname] = attrs
            for base in cls.base_exprs:
                if (annotation_name(base) or "") == "threading.local":
                    self.thread_local_classes.add(cls.qname)
        # Inherit attribute types from in-program bases (one pass is
        # enough for the shallow hierarchies this package has).
        for cls in self.program.classes.values():
            module = self.program.modules[cls.module]
            for base in cls.base_exprs:
                dotted = annotation_name(base)
                resolved = (
                    self.program._resolve_type_name(module, dotted)
                    if dotted
                    else None
                )
                if resolved and resolved in self.attr_types:
                    for attr, at in self.attr_types[resolved].items():
                        self.attr_types[cls.qname].setdefault(attr, at)

    def _scan_init(
        self,
        module: ModuleInfo,
        cls_qname: str,
        init_qname: str,
        attrs: Dict[str, AttrType],
    ) -> None:
        init = self.program.functions[init_qname].node
        if not isinstance(init, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        param_types: Dict[str, AttrType] = {}
        args = init.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                param_types[arg.arg] = self._resolve_type_expr(
                    module, arg.annotation
                )
        for stmt in function_statements(init):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                at = AttrType()
                if isinstance(stmt, ast.AnnAssign):
                    at = self._resolve_type_expr(module, stmt.annotation)
                elif isinstance(stmt.value, ast.Call):
                    at = AttrType(
                        ref=self._constructor_ref(module, stmt.value)
                    )
                elif isinstance(stmt.value, ast.Name):
                    at = param_types.get(stmt.value.id, AttrType())
                elif isinstance(stmt.value, (ast.List, ast.ListComp)):
                    elt: Optional[ast.expr] = None
                    if isinstance(stmt.value, ast.List) and stmt.value.elts:
                        elt = stmt.value.elts[0]
                    elif isinstance(stmt.value, ast.ListComp):
                        elt = stmt.value.elt
                    if isinstance(elt, ast.Call):
                        at = AttrType(
                            elem=self._constructor_ref(module, elt)
                        )
                if at.ref is not None or at.elem is not None:
                    attrs.setdefault(target.attr, at)

    def _resolve_type_expr(
        self, module: ModuleInfo, expr: Optional[ast.expr]
    ) -> AttrType:
        """An annotation expression to an :class:`AttrType`, containers
        included (``Dict[str, ServiceJob]`` -> elem ServiceJob)."""
        if expr is None:
            return AttrType()
        if isinstance(expr, ast.Subscript):
            outer = annotation_name(expr.value) or ""
            tail = outer.rsplit(".", 1)[-1]
            if tail == "Optional":
                return self._resolve_type_expr(module, expr.slice)
            inner = expr.slice
            if tail in _VALUE_CONTAINERS:
                if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                    return AttrType(
                        elem=self._name_ref(module, inner.elts[1])
                    )
                return AttrType()
            if tail in _ELEM_CONTAINERS:
                target = (
                    inner.elts[0]
                    if isinstance(inner, ast.Tuple) and inner.elts
                    else inner
                )
                return AttrType(elem=self._name_ref(module, target))
            return AttrType()
        return AttrType(ref=self._name_ref(module, expr))

    def _name_ref(
        self, module: ModuleInfo, expr: Optional[ast.expr]
    ) -> Optional[TypeRef]:
        """A Name/Attribute type expression to a :data:`TypeRef`."""
        dotted = annotation_name(expr)
        if not dotted:
            return None
        resolved = self.program._resolve_type_name(module, dotted)
        if resolved is not None:
            return (CLASS, resolved)
        root, _, rest = dotted.partition(".")
        base = module.imports.get(root)
        if base is not None:
            return (EXT, base + ("." + rest if rest else ""))
        if dotted in module.imports:
            return (EXT, module.imports[dotted])
        return None

    def _constructor_ref(
        self, module: ModuleInfo, call: ast.Call
    ) -> Optional[TypeRef]:
        return self._name_ref(module, call.func)

    # -- lock discovery ------------------------------------------------

    def _discover_locks(self) -> None:
        for cls_qname, attrs in self.attr_types.items():
            for attr, at in sorted(attrs.items()):
                info = self._lock_info_for(cls_qname, attr, at.ref)
                if info is not None:
                    self.locks[info.lock_id] = info
                    self.locks_by_class.setdefault(cls_qname, {})[
                        attr
                    ] = info
        for module in self.program.modules.values():
            for name, value in sorted(module.assigns.items()):
                if not isinstance(value, ast.Call):
                    continue
                ref = self._constructor_ref(module, value)
                info = self._lock_info_for(
                    "", name, ref, module_name=module.name
                )
                if info is not None:
                    self.locks[info.lock_id] = info
                    self.module_locks.setdefault(module.name, {})[
                        name
                    ] = info

    def _lock_info_for(
        self,
        owner_class: str,
        attr: str,
        ref: Optional[TypeRef],
        module_name: str = "",
    ) -> Optional[LockInfo]:
        if ref is None:
            return None
        kind, name = ref
        lock_id = (
            f"{owner_class}.{attr}"
            if owner_class
            else f"{module_name}.{attr}"
        )
        if kind == EXT and name in _EXTERNAL_LOCKS:
            return LockInfo(
                lock_id=lock_id,
                owner_class=owner_class,
                attr=attr,
                type_name=name,
                reentrant=_EXTERNAL_LOCKS[name],
                is_condition=name in _CONDITION_TYPES,
            )
        if kind == CLASS and self._is_lock_like(name):
            return LockInfo(
                lock_id=lock_id,
                owner_class=owner_class,
                attr=attr,
                type_name=name,
                reentrant=False,
                is_condition=False,
            )
        return None

    def _is_lock_like(self, cls_qname: str) -> bool:
        """A program class that behaves as a lock: it defines both
        ``acquire`` and ``release`` (e.g. the file-based StoreLock)."""
        return (
            self.program.lookup_method(cls_qname, "acquire") is not None
            and self.program.lookup_method(cls_qname, "release") is not None
        )

    # -- guard annotations ---------------------------------------------

    def _collect_guards(self) -> None:
        for module in self.program.modules.values():
            try:
                tokens = list(
                    tokenize.generate_tokens(
                        io.StringIO(module.source).readline
                    )
                )
            except (tokenize.TokenError, SyntaxError, IndentationError):
                continue
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = _GUARD_RE.search(token.string)
                if match is None:
                    continue
                self._register_guard(
                    module,
                    token.start[0],
                    match.group("body").strip(),
                    (match.group("reason") or "").strip(),
                )

    def _register_guard(
        self, module: ModuleInfo, line: int, body: str, reason: str
    ) -> None:
        words = body.split()
        if len(words) == 2 and words[0] == "requires":
            func = self._function_at(module, line)
            if func is None:
                self._bad(module, line, "no 'def' on or below this line")
                return
            owner = func.owner_class
            lock_id = self._resolve_lock_spec(module, owner, words[1])
            if lock_id is None:
                self._bad(module, line, f"unknown lock {words[1]!r}")
                return
            existing = self.requires.get(func.qname)
            locks = frozenset({lock_id}) | (
                existing.locks if existing else frozenset()
            )
            self.requires[func.qname] = RequiresDecl(
                func=func.qname, locks=locks, path=module.path,
                line=line, reason=reason,
            )
            return
        if len(words) == 2 and words[1] == "unguarded":
            owner = self._class_at(module, line)
            if owner is None:
                self._bad(module, line, "not inside a class body")
                return
            self.guards[(owner, words[0])] = GuardDecl(
                owner_class=owner, attr=words[0], lock_id="",
                path=module.path, line=line, reason=reason,
            )
            return
        if len(words) == 3 and words[1] == "by":
            owner = self._class_at(module, line)
            if owner is None:
                self._bad(module, line, "not inside a class body")
                return
            lock_id = self._resolve_lock_spec(module, owner, words[2])
            if lock_id is None:
                self._bad(module, line, f"unknown lock {words[2]!r}")
                return
            self.guards[(owner, words[0])] = GuardDecl(
                owner_class=owner, attr=words[0], lock_id=lock_id,
                path=module.path, line=line, reason=reason,
            )
            return
        self._bad(
            module, line,
            "expected '<attr> by <lock>', '<attr> unguarded' or "
            "'requires <lock>'",
        )

    def _bad(self, module: ModuleInfo, line: int, what: str) -> None:
        self.bad_guards.append(BadGuard(
            path=module.path, line=line,
            message=f"unusable repro-guard comment: {what}",
        ))

    def _function_at(
        self, module: ModuleInfo, line: int
    ) -> Optional[FunctionInfo]:
        """The function whose ``def`` sits on ``line`` or ``line + 1``
        (comment at the end of the def line, or on the line above)."""
        for info in self.program.functions.values():
            if info.module != module.name:
                continue
            if info.node.lineno in (line, line + 1):
                return info
        return None

    def _class_at(self, module: ModuleInfo, line: int) -> Optional[str]:
        """Innermost class whose body spans ``line``."""
        best: Optional[str] = None
        best_span = 1 << 30
        for cls in self.program.classes.values():
            if cls.module != module.name:
                continue
            end = cls.node.end_lineno or cls.node.lineno
            if cls.node.lineno <= line <= end:
                span = end - cls.node.lineno
                if span < best_span:
                    best, best_span = cls.qname, span
        return best

    def _resolve_lock_spec(
        self, module: ModuleInfo, owner_class: str, spec: str
    ) -> Optional[str]:
        spec = spec.strip()
        if spec.startswith("self."):
            spec = spec[len("self."):]
        if "." in spec:
            head, _, attr = spec.rpartition(".")
            resolved = self.program.resolve_in_module(module, head)
            if resolved is None:
                resolved = self.program.resolve_qualified(head)
            if resolved is not None:
                info = self.locks_by_class.get(resolved, {}).get(attr)
                if info is not None:
                    return info.lock_id
            return None
        if owner_class:
            info = self.locks_by_class.get(owner_class, {}).get(spec)
            if info is not None:
                return info.lock_id
        mod_info = self.module_locks.get(module.name, {}).get(spec)
        if mod_info is not None:
            return mod_info.lock_id
        return None

    # -- per-function typing -------------------------------------------

    def scope_for(self, qname: str) -> Optional[Scope]:
        scope = self._scopes.get(qname)
        if scope is not None:
            return scope
        info = self.program.functions.get(qname)
        if info is None:
            return None
        module = self.program.module_of(info)
        env: Dict[str, TypeRef] = dict(
            _collect_local_types(self.program, module, info)
        )
        scope = Scope(info=info, module=module, env=env, elems={})
        self._scopes[qname] = scope
        self._augment_scope(scope)
        return scope

    def _augment_scope(self, scope: Scope) -> None:
        """Typing the call-graph's tracker misses: container elements,
        dict lookups, for-targets, and method-call results reached
        through attribute chains (``self.server.manager.get(...)``)."""
        module = scope.module
        for stmt in function_statements(scope.info.node):
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                at = self._resolve_type_expr(module, stmt.annotation)
                if at.elem is not None:
                    scope.elems[stmt.target.id] = at.elem
            elif (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                ref = self.type_of_expr(stmt.value, scope)
                if ref is not None:
                    scope.env[stmt.targets[0].id] = ref
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._type_for_target(scope, stmt.target, stmt.iter)
            elif isinstance(stmt, ast.withitem) and isinstance(
                stmt.optional_vars, ast.Name
            ):
                ref = self.type_of_expr(stmt.context_expr, scope)
                if ref is not None:
                    scope.env[stmt.optional_vars.id] = ref

    def _type_for_target(
        self, scope: Scope, target: ast.expr, source: ast.expr
    ) -> None:
        elem = self._iter_elem(scope, source)
        if elem is None:
            return
        if isinstance(target, ast.Name):
            scope.env[target.id] = elem
        elif (
            isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and isinstance(target.elts[1], ast.Name)
            and isinstance(source, ast.Call)
            and isinstance(source.func, ast.Attribute)
            and source.func.attr == "items"
        ):
            scope.env[target.elts[1].id] = elem

    def _iter_elem(
        self, scope: Scope, source: ast.expr
    ) -> Optional[TypeRef]:
        if isinstance(source, ast.Call):
            func = source.func
            if isinstance(func, ast.Name) and func.id in (
                "list", "sorted", "tuple", "reversed", "iter",
            ):
                if source.args:
                    return self._iter_elem(scope, source.args[0])
                return None
            if isinstance(func, ast.Attribute) and func.attr in (
                "values", "items",
            ):
                at = self.attr_type_of(func.value, scope)
                return at.elem if at is not None else None
            return None
        at = self.attr_type_of(source, scope)
        return at.elem if at is not None else None

    def _owner_class_of(self, info: FunctionInfo) -> str:
        """The class whose ``self`` a function sees — for nested defs
        and lambdas, the closure's enclosing method's class."""
        while True:
            if info.owner_class:
                return info.owner_class
            parent = self.program.functions.get(info.parent)
            if parent is None:
                return ""
            info = parent

    def _closure_scopes(self, scope: Scope) -> Iterator[Scope]:
        """Enclosing function scopes, innermost first (closure chain)."""
        info = scope.info
        while True:
            parent = self.program.functions.get(info.parent)
            if parent is None:
                return
            enclosing = self.scope_for(parent.qname)
            if enclosing is not None:
                yield enclosing
            info = parent

    def type_of_expr(
        self, expr: ast.expr, scope: Scope
    ) -> Optional[TypeRef]:
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls"):
                owner = self._owner_class_of(scope.info)
                if owner:
                    return (CLASS, owner)
            ref = scope.env.get(expr.id)
            if ref is not None:
                return ref
            for enclosing in self._closure_scopes(scope):
                ref = enclosing.env.get(expr.id)
                if ref is not None:
                    return ref
            value = scope.module.assigns.get(expr.id)
            if isinstance(value, ast.Call):
                return self._constructor_ref(scope.module, value)
            return None
        if isinstance(expr, ast.Attribute):
            base = self.type_of_expr(expr.value, scope)
            if base is None:
                return None
            if base[0] == EXT:
                return (EXT, f"{base[1]}.{expr.attr}")
            at = self.attr_types.get(base[1], {}).get(expr.attr)
            return at.ref if at is not None else None
        if isinstance(expr, ast.Subscript):
            at = self.attr_type_of(expr.value, scope)
            return at.elem if at is not None else None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "get", "pop",
            ):
                at = self.attr_type_of(func.value, scope)
                if at is not None and at.elem is not None:
                    return at.elem
            target = self._callee_qname(func, scope)
            if target is None:
                return None
            if target in self.program.classes:
                return (CLASS, target)
            finfo = self.program.functions.get(target)
            if finfo is not None and isinstance(
                finfo.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                at = self._resolve_type_expr(
                    self.program.modules[finfo.module], finfo.node.returns
                )
                return at.ref
            return None
        return None

    def attr_type_of(
        self, expr: ast.expr, scope: Scope
    ) -> Optional[AttrType]:
        if isinstance(expr, ast.Attribute):
            base = self.type_of_expr(expr.value, scope)
            if base is not None and base[0] == CLASS:
                return self.attr_types.get(base[1], {}).get(expr.attr)
            return None
        if isinstance(expr, ast.Name):
            ref = scope.env.get(expr.id)
            elem = scope.elems.get(expr.id)
            if ref is None and elem is None:
                for enclosing in self._closure_scopes(scope):
                    ref = enclosing.env.get(expr.id)
                    elem = enclosing.elems.get(expr.id)
                    if ref is not None or elem is not None:
                        break
            if ref is None and elem is None:
                return None
            return AttrType(ref=ref, elem=elem)
        return None

    def _callee_qname(
        self, func: ast.expr, scope: Scope
    ) -> Optional[str]:
        if isinstance(func, ast.Name):
            return self.program.resolve_in_module(scope.module, func.id)
        if isinstance(func, ast.Attribute):
            base = self.type_of_expr(func.value, scope)
            if base is not None and base[0] == CLASS:
                return self.program.lookup_method(base[1], func.attr)
        return None

    def resolve_call(
        self, node: ast.Call, scope: Scope
    ) -> Tuple[str, str]:
        """(kind, target) for a call, preferring exact resolutions:
        exact call-graph sites, then receiver typing, then the graph's
        approximate unique-method fallback."""
        site = self._site_index.get(
            (scope.info.qname, node.lineno, node.col_offset)
        )
        if site is not None and site.kind == INTERNAL and not site.approximate:
            return INTERNAL, site.target
        target = self._callee_qname(node.func, scope)
        if target is not None:
            if target in self.program.classes:
                init = self.program.lookup_method(target, "__init__")
                return INTERNAL, init or target
            if target in self.program.functions:
                return INTERNAL, target
        if site is not None:
            return site.kind, site.target
        return "unresolved", ""

    def lock_of_expr(
        self, expr: ast.expr, scope: Scope
    ) -> Optional[LockInfo]:
        if isinstance(expr, ast.Attribute):
            base = self.type_of_expr(expr.value, scope)
            if base is not None and base[0] == CLASS:
                return self.locks_by_class.get(base[1], {}).get(expr.attr)
            return None
        if isinstance(expr, ast.Name):
            info = self.module_locks.get(scope.module.name, {}).get(
                expr.id
            )
            if info is not None:
                return info
            dotted = scope.module.imports.get(expr.id)
            if dotted:
                mod, _, name = dotted.rpartition(".")
                return self.module_locks.get(mod, {}).get(name)
        return None

    def label(self, lock_id: str) -> str:
        info = self.locks.get(lock_id)
        return info.label if info is not None else lock_id

    def is_method(self, cls_qname: str, attr: str) -> bool:
        return self.program.lookup_method(cls_qname, attr) is not None

    def thread_targets(self) -> List[str]:
        """Thread entry points the syntactic finder misses:
        ``Thread(target=obj.method)`` where ``obj``'s class is
        recoverable from the model's local typing."""
        entries: List[str] = []
        for qname in sorted(self.program.functions):
            scope = self.scope_for(qname)
            if scope is None:
                continue
            for node in function_statements(scope.info.node):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted_callee(scope.module, node)
                if not (
                    dotted == "threading.Thread"
                    or dotted.endswith(".Thread")
                ):
                    continue
                for keyword in node.keywords:
                    if keyword.arg != "target":
                        continue
                    target = keyword.value
                    if not isinstance(target, ast.Attribute):
                        continue
                    base = self.type_of_expr(target.value, scope)
                    if base is None or base[0] != CLASS:
                        continue
                    resolved = self.program.lookup_method(
                        base[1], target.attr
                    )
                    if resolved:
                        entries.append(resolved)
        return sorted(set(entries))


# ----------------------------------------------------------------------
# The region walk
# ----------------------------------------------------------------------


class RegionWalker:
    """Carry held-lock sets through bodies and across resolved calls."""

    def __init__(self, model: ConcurrencyModel) -> None:
        self.model = model
        self.facts = RegionFacts()
        self._visited: Set[Tuple[str, FrozenSet[str]]] = set()
        self._promoted: Set[int] = set()
        self._depth = 0

    def walk(
        self, roots: Iterable[Tuple[str, FrozenSet[str]]]
    ) -> RegionFacts:
        for qname, held in roots:
            self._walk_function(qname, held)
        return self.facts

    # -- function / statement traversal --------------------------------

    def _walk_function(self, qname: str, held: FrozenSet[str]) -> None:
        key = (qname, held)
        if key in self._visited or self._depth > _MAX_WALK_DEPTH:
            return
        self._visited.add(key)
        scope = self.model.scope_for(qname)
        if scope is None:
            return
        self.facts.reached.add(qname)
        self._depth += 1
        try:
            node = scope.info.node
            if isinstance(node, ast.Lambda):
                self._scan_expr(node.body, held, scope)
            else:
                self._walk_stmts(node.body, held, scope)
        finally:
            self._depth -= 1

    def _walk_stmts(
        self,
        stmts: List[ast.stmt],
        held: FrozenSet[str],
        scope: Scope,
    ) -> FrozenSet[str]:
        for stmt in stmts:
            held = self._walk_stmt(stmt, held, scope)
        return held

    def _walk_stmt(
        self, stmt: ast.stmt, held: FrozenSet[str], scope: Scope
    ) -> FrozenSet[str]:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                lock = self.model.lock_of_expr(item.context_expr, scope)
                if lock is not None:
                    self._record_acquisition(
                        lock, inner, "with", item.context_expr, scope
                    )
                    inner = inner | {lock.lock_id}
                else:
                    self._scan_expr(item.context_expr, inner, scope)
            self._walk_stmts(stmt.body, inner, scope)
            return held
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A closure runs, at the latest, within this dynamic extent
            # (the call graph's `nested` convention); walk it with the
            # locks held at its definition.
            nested = f"{scope.info.qname}.<locals>.{stmt.name}"
            self._walk_function(nested, held)
            return held
        if isinstance(stmt, ast.ClassDef):
            self._walk_stmts(stmt.body, held, scope)
            return held
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, held, scope)
            self._walk_stmts(stmt.body, held, scope)
            self._walk_stmts(stmt.orelse, held, scope)
            return held
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, held, scope)
            self._scan_expr(stmt.target, held, scope)
            self._walk_stmts(stmt.body, held, scope)
            self._walk_stmts(stmt.orelse, held, scope)
            return held
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, held, scope)
            self._walk_stmts(stmt.body, held, scope)
            self._walk_stmts(stmt.orelse, held, scope)
            return held
        if isinstance(stmt, ast.Try):
            held = self._walk_stmts(stmt.body, held, scope)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self._scan_expr(handler.type, held, scope)
                self._walk_stmts(handler.body, held, scope)
            held = self._walk_stmts(stmt.orelse, held, scope)
            return self._walk_stmts(stmt.finalbody, held, scope)
        return self._walk_simple(stmt, held, scope)

    def _walk_simple(
        self, stmt: ast.stmt, held: FrozenSet[str], scope: Scope
    ) -> FrozenSet[str]:
        # Statement-level lock.acquire() / lock.release() track held.
        call = self._stmt_call(stmt)
        if call is not None and isinstance(call.func, ast.Attribute):
            op = call.func.attr
            if op in ("acquire", "release"):
                lock = self.model.lock_of_expr(call.func.value, scope)
                if lock is not None:
                    for arg in call.args:
                        self._scan_expr(arg, held, scope)
                    if op == "acquire":
                        self._record_acquisition(
                            lock, held, "acquire", call, scope
                        )
                        return held | {lock.lock_id}
                    return held - {lock.lock_id}
        self._scan_expr(stmt, held, scope)
        return held

    @staticmethod
    def _stmt_call(stmt: ast.stmt) -> Optional[ast.Call]:
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Expr):
            value = stmt.value
        elif isinstance(stmt, ast.Assign):
            value = stmt.value
        return value if isinstance(value, ast.Call) else None

    # -- expression scanning -------------------------------------------

    def _scan_expr(
        self, node: ast.AST, held: FrozenSet[str], scope: Scope
    ) -> None:
        for child in self._scan(node, held, scope):
            if isinstance(child, ast.Call):
                self._handle_call(child, held, scope)
            elif isinstance(child, ast.Attribute):
                self._handle_attr(child, held, scope)
            elif isinstance(child, (ast.Subscript,)) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                if isinstance(child.value, ast.Attribute):
                    self._promoted.add(id(child.value))

    def _scan(
        self, node: ast.AST, held: FrozenSet[str], scope: Scope
    ) -> Iterable[ast.AST]:
        """Preorder walk of an expression tree that dispatches nested
        lambdas as functions instead of descending into them."""
        if isinstance(node, (ast.Call, ast.Attribute, ast.Subscript)):
            yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Lambda):
                nested = (
                    f"{scope.info.qname}.<locals>.<lambda@{child.lineno}>"
                )
                self._walk_function(nested, held)
                continue
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            yield from self._scan(child, held, scope)

    def _handle_call(
        self, node: ast.Call, held: FrozenSet[str], scope: Scope
    ) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            op = func.attr
            if op in _LOCK_OPS:
                lock = self.model.lock_of_expr(func.value, scope)
                if lock is not None:
                    self._handle_lock_op(node, op, lock, held, scope)
                    return
            if op in _MUTATING_METHODS and isinstance(
                func.value, ast.Attribute
            ):
                self._promoted.add(id(func.value))
        kind, target = self.model.resolve_call(node, scope)
        if kind == INTERNAL and target:
            self.facts.edges.setdefault(scope.info.qname, set()).add(
                target
            )
            # A requires-annotated callee is analyzed under its declared
            # contract; a caller that breaks it is reported once, at the
            # call site, not again for every access inside the callee.
            decl = self.model.requires.get(target)
            inside = held | decl.locks if decl is not None else held
            self._walk_function(target, inside)
        if held or (kind == INTERNAL and target in self.model.requires):
            receiver = ""
            if kind != INTERNAL and isinstance(func, ast.Attribute):
                ref = self.model.type_of_expr(func.value, scope)
                if ref is not None and ref[0] == EXT:
                    receiver = ref[1]
            self.facts.calls.append(LockCall(
                target=target, kind=kind, text=_text_of(func),
                held=held, func=scope.info.qname,
                path=scope.module.path, line=node.lineno,
                column=node.col_offset, receiver=receiver,
            ))

    def _handle_lock_op(
        self,
        node: ast.Call,
        op: str,
        lock: LockInfo,
        held: FrozenSet[str],
        scope: Scope,
    ) -> None:
        if op in ("wait", "wait_for") and lock.is_condition:
            if lock.lock_id in held:
                self.facts.acquisitions.append(LockAcquisition(
                    lock_id=lock.lock_id,
                    held_before=held - {lock.lock_id},
                    via="wait-reacquire", func=scope.info.qname,
                    path=scope.module.path, line=node.lineno,
                    column=node.col_offset,
                ))
                self.facts.calls.append(LockCall(
                    target=lock.lock_id, kind=COND_WAIT,
                    text=_text_of(node.func), held=held,
                    func=scope.info.qname, path=scope.module.path,
                    line=node.lineno, column=node.col_offset,
                ))
            else:
                self._misuse(lock, op, node, scope)
        elif op in ("notify", "notify_all") and lock.is_condition:
            if lock.lock_id not in held:
                self._misuse(lock, op, node, scope)
        elif op == "acquire":
            # Non-statement-level acquire (e.g. `if lock.acquire(False):`)
            # still orders, even though `held` cannot track it from here.
            self._record_acquisition(lock, held, "acquire", node, scope)

    def _misuse(
        self, lock: LockInfo, op: str, node: ast.AST, scope: Scope
    ) -> None:
        self.facts.misuses.append(CondMisuse(
            lock_id=lock.lock_id, op=op, func=scope.info.qname,
            path=scope.module.path, line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", 0),
        ))

    def _record_acquisition(
        self,
        lock: LockInfo,
        held: FrozenSet[str],
        via: str,
        node: ast.AST,
        scope: Scope,
    ) -> None:
        self.facts.acquisitions.append(LockAcquisition(
            lock_id=lock.lock_id, held_before=held, via=via,
            func=scope.info.qname, path=scope.module.path,
            line=getattr(node, "lineno", scope.info.line),
            column=getattr(node, "col_offset", 0),
        ))

    def _handle_attr(
        self, node: ast.Attribute, held: FrozenSet[str], scope: Scope
    ) -> None:
        attr = node.attr
        if attr.startswith("__"):
            return
        base = self.model.type_of_expr(node.value, scope)
        if base is None or base[0] != CLASS:
            return
        cls_qname = base[1]
        if cls_qname in self.model.thread_local_classes:
            return
        if attr in self.model.locks_by_class.get(cls_qname, {}):
            return
        if self.model.is_method(cls_qname, attr):
            return
        info = scope.info
        if (
            info.owner_class == cls_qname
            and info.name in ("__init__", "__post_init__")
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return  # construction-time: the object is not shared yet
        write = (
            isinstance(node.ctx, (ast.Store, ast.Del))
            or id(node) in self._promoted
        )
        self.facts.accesses.append(AttrAccess(
            cls=cls_qname, attr=attr, write=write, held=held,
            func=info.qname, path=scope.module.path,
            line=node.lineno, column=node.col_offset,
        ))


def _text_of(func: ast.expr) -> str:
    parts: List[str] = []
    current: ast.expr = func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    if parts:
        return "<expr>." + ".".join(reversed(parts))
    return "<call>"


# ----------------------------------------------------------------------
# Shared facts, memoized per call graph
# ----------------------------------------------------------------------


@dataclass
class ConcurrencyFacts:
    """The model plus both walks, shared by the three rules."""

    model: ConcurrencyModel
    #: Race-accounting walk: thread entry points, public methods of
    #: lock-owning classes, and requires-annotated functions (with
    #: their locks pre-held) — the contexts that can actually race.
    race: RegionFacts
    #: Whole-program walk: every function, for lock ordering, blocking
    #: regions and requires-checking.
    whole: RegionFacts
    #: Functions reachable from thread entry points over call-graph
    #: edges augmented with the walker's receiver-typed resolutions.
    thread_reachable: Set[str]


def _dotted_callee(module: ModuleInfo, node: ast.Call) -> str:
    """The callee's dotted name as written, imports expanded."""
    func = node.func
    if isinstance(func, ast.Name):
        return module.imports.get(func.id, func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        head = module.imports.get(func.value.id, func.value.id)
        return f"{head}.{func.attr}"
    return ""


def _thread_entries(model: ConcurrencyModel) -> List[str]:
    entries = set(find_thread_entry_points(model.program))
    entries.update(model.thread_targets())
    return sorted(entries)


def _race_roots(
    model: ConcurrencyModel,
) -> List[Tuple[str, FrozenSet[str]]]:
    roots: List[Tuple[str, FrozenSet[str]]] = []
    empty: FrozenSet[str] = frozenset()
    for qname in _thread_entries(model):
        roots.append((qname, empty))
    for cls_qname in sorted(model.locks_by_class):
        cls = model.program.classes.get(cls_qname)
        if cls is None:
            continue
        for method, qname in sorted(cls.methods.items()):
            if method.startswith("_"):
                continue
            if qname in model.requires:
                continue
            roots.append((qname, empty))
    for qname, decl in sorted(model.requires.items()):
        roots.append((qname, decl.locks))
    return roots


def _whole_roots(
    model: ConcurrencyModel,
) -> List[Tuple[str, FrozenSet[str]]]:
    roots: List[Tuple[str, FrozenSet[str]]] = []
    empty: FrozenSet[str] = frozenset()
    for qname in sorted(model.program.functions):
        decl = model.requires.get(qname)
        roots.append((qname, decl.locks if decl else empty))
    return roots


_FACTS_CACHE: List[Tuple[CallGraph, ConcurrencyFacts]] = []


def concurrency_facts(graph: CallGraph) -> ConcurrencyFacts:
    """Build (or reuse) the shared concurrency facts for this graph."""
    for cached_graph, cached in _FACTS_CACHE:
        if cached_graph is graph:
            return cached
    model = ConcurrencyModel(graph)
    race = RegionWalker(model).walk(_race_roots(model))
    whole = RegionWalker(model).walk(_whole_roots(model))
    seen: Set[str] = set()
    stack = _thread_entries(model)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(graph.callees(current))
        stack.extend(whole.edges.get(current, set()))
    facts = ConcurrencyFacts(
        model=model, race=race, whole=whole, thread_reachable=seen
    )
    del _FACTS_CACHE[:]
    _FACTS_CACHE.append((graph, facts))
    return facts
