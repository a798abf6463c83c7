"""Whole-package program model: every module parsed and indexed at once.

Where :class:`~repro.lint.context.FileContext` sees one file, a
:class:`Program` sees a package: every module's AST, import map, symbol
table (what each exported name resolves to, following ``from X import
Y`` re-export chains through ``__init__`` modules), every function and
method as a :class:`FunctionDef` node with a stable qualified name, and
every class with its methods, resolved bases and lightly-typed
attributes.  The call-graph builder and the four deep analyses all
consume this index; nothing in it is analysis-specific.

Qualified names are ``module.dotted.path`` plus the lexical nesting of
the definition: ``repro.sim.flowsim.FlowSimulator.run`` for a method,
``repro.topology.search.hill_climb.<locals>.objective`` for a nested
function, ``<lambda@14>`` for a lambda.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.lint.context import build_import_map

#: AST nodes that define a function-like scope.
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]

#: Maximum re-export hops followed when resolving a dotted name (guards
#: against pathological ``from a import b`` cycles in fixture packages).
_MAX_REEXPORT_HOPS = 16


@dataclass
class FunctionInfo:
    """One function, method, nested function or lambda in the program."""

    qname: str
    module: str
    node: FunctionNode
    #: Qualified name of the enclosing class for methods, else "".
    owner_class: str = ""
    #: Qualified name of the lexically enclosing function, else "".
    parent: str = ""
    #: Short name (``node.name`` or ``<lambda@line>``).
    name: str = ""

    @property
    def line(self) -> int:
        return self.node.lineno

    @property
    def is_method(self) -> bool:
        return bool(self.owner_class)

    def param_names(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    """One class: methods by short name, base names, typed attributes."""

    qname: str
    module: str
    node: ast.ClassDef
    #: Short method name -> FunctionInfo qname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: Base-class expressions as written (resolved lazily by Program).
    base_exprs: List[ast.expr] = field(default_factory=list)
    #: ``self.<attr>`` -> type name it was assigned from, when statically
    #: visible in ``__init__`` (a constructor call or annotated param).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its namespace."""

    name: str
    path: str
    tree: ast.Module
    source: str
    #: Local name -> dotted origin for every import (file-wide).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Top-level defs: short name -> qname of function or class.
    defs: Dict[str, str] = field(default_factory=dict)
    #: Top-level ``NAME = <expr>`` assignments (for alias/global tracking).
    assigns: Dict[str, ast.expr] = field(default_factory=dict)


class Program:
    """An indexed package: modules, functions, classes, symbol resolution."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Short method name -> list of owning class qnames (for the
        #: unique-method fallback in the call-graph builder).
        self.methods_by_name: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, package_dir: pathlib.Path, package: str) -> "Program":
        """Index every ``.py`` file under ``package_dir`` as ``package``."""
        program = cls(package)
        package_dir = package_dir.resolve()
        for path in sorted(package_dir.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(package_dir)
            parts = (package,) + rel.with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            module_name = ".".join(parts)
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError):
                continue  # engine reports parse errors; the model skips
            program._index_module(module_name, str(path), tree, source)
        program._finalize_attr_types()
        return program

    @classmethod
    def from_paths(cls, paths: List[pathlib.Path], package: str) -> Optional["Program"]:
        """Locate ``<package>/__init__.py`` under any given path and build.

        Accepts the same path list the CLI takes (``src``, ``tests``,
        single files); returns None when the package is nowhere below.
        """
        for raw in paths:
            base = pathlib.Path(raw)
            if base.is_file():
                base = base.parent
            if not base.is_dir():
                continue
            candidates = [base / package]
            candidates += sorted(base.glob(f"*/{package}"))
            # A path *inside* the package also locates it.
            for parent in [base] + list(base.resolve().parents):
                if parent.name == package and (parent / "__init__.py").exists():
                    candidates.append(parent)
            for candidate in candidates:
                if (candidate / "__init__.py").exists():
                    return cls.build(candidate, package)
        return None

    def _index_module(
        self, name: str, path: str, tree: ast.Module, source: str
    ) -> None:
        module = ModuleInfo(
            name=name,
            path=path,
            tree=tree,
            source=source,
            imports=build_import_map(tree),
        )
        self.modules[name] = module
        self._index_scope(module, tree.body, prefix=name, owner_class="",
                          parent="")
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        module.assigns[target.id] = stmt.value
                        self._maybe_index_lambda(
                            module, target.id, stmt.value
                        )
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    module.assigns[stmt.target.id] = stmt.value
                    self._maybe_index_lambda(
                        module, stmt.target.id, stmt.value
                    )

    def _maybe_index_lambda(
        self, module: ModuleInfo, name: str, value: ast.expr
    ) -> None:
        """``f = lambda ...`` at module level defines a callable ``f``."""
        if isinstance(value, ast.Lambda) and name not in module.defs:
            qname = f"{module.name}.{name}"
            self.functions[qname] = FunctionInfo(
                qname=qname, module=module.name, node=value, name=name
            )
            module.defs[name] = qname

    def _index_scope(
        self,
        module: ModuleInfo,
        body: List[ast.stmt],
        prefix: str,
        owner_class: str,
        parent: str,
    ) -> None:
        """Register defs in one lexical scope, then recurse into them."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{stmt.name}"
                info = FunctionInfo(
                    qname=qname, module=module.name, node=stmt,
                    owner_class=owner_class, parent=parent, name=stmt.name,
                )
                self.functions[qname] = info
                if owner_class:
                    owner = self.classes[owner_class]
                    owner.methods[stmt.name] = qname
                    self.methods_by_name.setdefault(stmt.name, []).append(
                        owner_class
                    )
                elif prefix == module.name:
                    module.defs[stmt.name] = qname
                self._index_function_body(module, info)
            elif isinstance(stmt, ast.ClassDef):
                qname = f"{prefix}.{stmt.name}"
                self.classes[qname] = ClassInfo(
                    qname=qname, module=module.name, node=stmt,
                    base_exprs=list(stmt.bases),
                )
                if prefix == module.name:
                    module.defs[stmt.name] = qname
                self._index_scope(
                    module, stmt.body, prefix=qname, owner_class=qname,
                    parent=parent,
                )
                self._index_attr_types(module, self.classes[qname])

    def _index_function_body(
        self, module: ModuleInfo, info: FunctionInfo
    ) -> None:
        """Register nested functions and lambdas inside ``info``."""
        prefix = f"{info.qname}.<locals>"
        for stmt in ast.iter_child_nodes(info.node):
            for child in ast.walk(stmt):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if self._immediate_scope_of(info.node, child):
                        qname = f"{prefix}.{child.name}"
                        nested = FunctionInfo(
                            qname=qname, module=module.name, node=child,
                            parent=info.qname, name=child.name,
                        )
                        if qname not in self.functions:
                            self.functions[qname] = nested
                            self._index_function_body(module, nested)
                elif isinstance(child, ast.Lambda):
                    if self._immediate_scope_of(info.node, child):
                        qname = f"{prefix}.<lambda@{child.lineno}>"
                        if qname not in self.functions:
                            self.functions[qname] = FunctionInfo(
                                qname=qname, module=module.name, node=child,
                                parent=info.qname,
                                name=f"<lambda@{child.lineno}>",
                            )

    def _immediate_scope_of(
        self, scope: FunctionNode, node: ast.AST
    ) -> bool:
        """True when no other function scope sits between scope and node."""
        return _enclosing_scope(scope, node) is scope

    def _index_attr_types(self, module: ModuleInfo, cls: ClassInfo) -> None:
        """Record ``self.x = <typed>`` assignments from ``__init__``."""
        init_qname = cls.methods.get("__init__")
        if init_qname is None:
            return
        init = self.functions[init_qname].node
        assert isinstance(init, (ast.FunctionDef, ast.AsyncFunctionDef))
        param_types: Dict[str, str] = {}
        args = init.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                dotted = annotation_name(arg.annotation)
                if dotted:
                    param_types[arg.arg] = dotted
        for stmt in ast.walk(init):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                type_name = ""
                if isinstance(stmt, ast.AnnAssign):
                    type_name = annotation_name(stmt.annotation) or ""
                elif isinstance(stmt.value, ast.Call):
                    type_name = annotation_name(stmt.value.func) or ""
                elif isinstance(stmt.value, ast.Name):
                    type_name = param_types.get(stmt.value.id, "")
                if type_name:
                    cls.attr_types.setdefault(target.attr, type_name)

    def _finalize_attr_types(self) -> None:
        """Second typing pass, once every module is indexed.

        ``_index_attr_types`` runs per-class during construction and can
        only record the *syntactic* callee of ``self.x = f(...)`` (for
        example ``routing.compile``), which rarely names a class.  With
        the whole program available we can do better: resolve the callee
        to a :class:`FunctionInfo` and follow its **return annotation**
        to a class qname.  This is what types ``self._compiled =
        routing.compile(table)`` as ``CompiledRouting``, so calls through
        ``self._compiled.sample(...)`` resolve.
        """
        for cls in self.classes.values():
            init_qname = cls.methods.get("__init__")
            if init_qname is None:
                continue
            init = self.functions[init_qname].node
            module = self.modules[cls.module]
            param_classes: Dict[str, str] = {}
            args = init.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                resolved = self.resolve_annotation(module, arg.annotation)
                if resolved:
                    param_classes[arg.arg] = resolved
            for stmt in ast.walk(init):
                if not (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)
                ):
                    continue
                attrs = [
                    t.attr for t in stmt.targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ]
                if not attrs:
                    continue
                returned = self._call_return_class(
                    module, stmt.value.func, param_classes
                )
                if not returned:
                    continue
                for attr in attrs:
                    existing = cls.attr_types.get(attr)
                    if existing and self._resolve_type_name(module, existing):
                        continue  # the syntactic type already resolves
                    cls.attr_types[attr] = returned

    def _call_return_class(
        self,
        module: ModuleInfo,
        func: ast.expr,
        param_classes: Dict[str, str],
    ) -> Optional[str]:
        """Class qname returned by a called function, via its annotation."""
        target: Optional[str] = None
        if isinstance(func, ast.Name):
            target = self.resolve_in_module(module, func.id)
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            owner = param_classes.get(func.value.id)
            if owner:
                target = self.lookup_method(owner, func.attr)
        info = self.functions.get(target) if target else None
        if info is None or isinstance(info.node, ast.Lambda):
            return None
        callee_module = self.modules[info.module]
        return self.resolve_annotation(callee_module, info.node.returns)

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------

    def resolve_qualified(self, dotted: str, _hops: int = 0) -> Optional[str]:
        """Resolve a dotted name to a function/class qname in the program.

        Follows re-export chains: ``repro.topology.dring`` finds the
        ``from repro.topology.dring import dring`` entry in the package
        ``__init__`` and recurses into the defining module.
        """
        if _hops > _MAX_REEXPORT_HOPS:
            return None
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Longest module prefix, then walk the remainder through it.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:cut])
            module = self.modules.get(module_name)
            if module is None:
                continue
            rest = parts[cut:]
            head = rest[0]
            if head in module.defs:
                candidate = module.defs[head]
                if len(rest) == 1:
                    return candidate
                # Class attribute path: Class.method.
                if candidate in self.classes and len(rest) == 2:
                    return self.lookup_method(candidate, rest[1])
                return None
            if head in module.imports:
                target = module.imports[head] + (
                    "." + ".".join(rest[1:]) if len(rest) > 1 else ""
                )
                return self.resolve_qualified(target, _hops + 1)
            return None
        return None

    def resolve_in_module(
        self, module: ModuleInfo, name: str
    ) -> Optional[str]:
        """Resolve a bare name used in ``module`` to a program qname."""
        if name in module.defs:
            return module.defs[name]
        dotted = module.imports.get(name)
        if dotted is not None:
            return self.resolve_qualified(dotted)
        value = module.assigns.get(name)
        if isinstance(value, ast.Name):  # top-level alias: g = f
            if value.id != name:
                return self.resolve_in_module(module, value.id)
        return None

    def lookup_method(self, class_qname: str, method: str) -> Optional[str]:
        """Find ``method`` on a class or its in-program bases (MRO-ish)."""
        seen = set()
        stack = [class_qname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            module = self.modules[cls.module]
            for base in cls.base_exprs:
                dotted = annotation_name(base)
                if not dotted:
                    continue
                resolved = self._resolve_type_name(module, dotted)
                if resolved:
                    stack.append(resolved)
        return None

    def _resolve_type_name(
        self, module: ModuleInfo, dotted: str
    ) -> Optional[str]:
        """Resolve a type name as written in ``module`` to a class qname."""
        if dotted in self.classes:  # already a qname (finalized attr type)
            return dotted
        head, _, rest = dotted.partition(".")
        base = module.defs.get(head) or module.imports.get(head)
        if base is None:
            return None
        full = base + ("." + rest if rest else "")
        resolved = self.resolve_qualified(full)
        if resolved in self.classes:
            return resolved
        return None

    def resolve_annotation(
        self, module: ModuleInfo, annotation: Optional[ast.expr]
    ) -> Optional[str]:
        """Class qname an annotation refers to, unwrapping Optional[...]"""
        dotted = annotation_name(annotation)
        if not dotted:
            return None
        return self._resolve_type_name(module, dotted)

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------

    def functions_in(self, module_name: str) -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if info.module == module_name:
                yield info

    def module_of(self, func: FunctionInfo) -> ModuleInfo:
        return self.modules[func.module]


def annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    """Dotted type name of an annotation expression, best effort.

    Handles ``Network``, ``nx.Graph``, string annotations
    (``"Network"``) and one level of subscripting
    (``Optional[Network]`` -> first Name argument).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text if text.replace(".", "").isidentifier() else None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        parts: List[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
            return ".".join(reversed(parts))
        return None
    if isinstance(node, ast.Subscript):
        outer = annotation_name(node.value)
        if outer and outer.split(".")[-1] == "Optional":
            return annotation_name(node.slice)
        return None
    return None


def _enclosing_scope(
    root: FunctionNode, target: ast.AST
) -> Optional[ast.AST]:
    """The innermost function scope containing ``target`` under ``root``."""
    result: List[Optional[ast.AST]] = [None]

    def visit(node: ast.AST, scope: ast.AST) -> bool:
        if node is target:
            result[0] = scope
            return True
        next_scope = scope
        if node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            next_scope = node
        for child in ast.iter_child_nodes(node):
            if visit(child, next_scope):
                return True
        return False

    visit(root, root)
    return result[0]


def function_statements(node: FunctionNode) -> Iterator[ast.AST]:
    """Every AST node lexically inside ``node`` but not inside a nested
    function scope — the nodes that belong to *this* function's body."""
    def walk(current: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(current):
            yield child
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield from walk(child)

    yield from walk(node)


def local_scope_params(info: FunctionInfo) -> Tuple[str, ...]:
    return tuple(info.param_names())
