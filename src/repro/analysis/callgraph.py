"""Module-level call graph over a Python source tree.

The determinism taint and concurrency rules need one whole-program
fact a per-file AST walk cannot compute: *which functions can run
inside a simulation*.  A wall-clock read in a pretty-printer is noise;
the same read three calls below ``WorkflowDriver.run`` corrupts
virtual time.  This module builds that fact:

1. **Index** every function, method and class across the tree,
   qualified by module (``repro.gateway.gateway.AdmissionGateway.submit``).
2. **Resolve** call edges through the import graph: bare calls, dotted
   ``module.fn()`` calls, ``self.method()`` (through base classes),
   ``ClassName.method()``, ``obj.method()`` via local construction
   (``g = Gateway(); g.submit()``) and via ``self.attr`` types recorded
   from ``__init__``, and ``super().method()``.  Bare *references* to
   functions (hook registration, ``env.process`` targets) become edges
   too — a registered callback runs even though nothing "calls" it.
3. **Seed** entry points: every function defined in a simulation entry
   module — the workflow driver, scheduler, gateway, load generator,
   SimPy kernel, network model and chaos injectors — excluding test
   modules.  ``sim_reachable`` is the transitive closure from those
   seeds, computed with the same deterministic traversal helpers the
   DAG rules use (:func:`repro.analysis.graph.reachable_from`).

Resolution is intentionally *conservative-by-name*: an edge is added
only when the callee resolves to a function we indexed.  Unresolvable
dynamic dispatch drops the edge (possible false negatives) rather than
guessing (false-positive storms).  Everything — node order, edge
order, path reconstruction — is sorted so repeated runs are
byte-identical.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import pathlib
import typing as _t

from repro.analysis.graph import reachable_from

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "CallGraph",
    "build_call_graph",
    "module_name_for",
    "is_test_module",
    "ENTRY_MODULE_PREFIXES",
    "ENTRY_MODULE_MARKERS",
]

#: dotted module prefixes that anchor the simulation (the repro tree)
ENTRY_MODULE_PREFIXES = (
    "repro.workflow.driver",
    "repro.cluster.scheduler",
    "repro.gateway",
    "repro.loadgen",
    "repro.sim",
    "repro.netsim",
    "repro.chaos",
    "repro.testbed",
)

#: name fragments that mark entry modules in arbitrary (fixture) trees
ENTRY_MODULE_MARKERS = (
    "driver", "scheduler", "gateway", "loadgen", "chaos", "sim", "testbed",
)


def module_name_for(path: "str | pathlib.Path") -> str:
    """Dotted module name, walking up through ``__init__.py`` packages.

    ``src/repro/sim/env.py`` -> ``repro.sim.env``; a loose file with no
    enclosing package resolves to its stem (fixture corpora are flat).
    """
    p = pathlib.Path(path).resolve()
    parts = [p.stem] if p.stem != "__init__" else []
    parent = p.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or p.stem


def is_test_module(module: str, path: "str | pathlib.Path" = "") -> bool:
    """True for pytest-style modules: never simulation entry points."""
    parts = module.split(".")
    path_parts = pathlib.Path(path).parts if path else ()
    return (
        "tests" in parts
        or "tests" in path_parts
        or any(p.startswith("test_") for p in parts)
        or "conftest" in parts
    )


@dataclasses.dataclass
class FunctionInfo:
    """One indexed function or method."""

    qualname: str  # module-qualified: pkg.mod.Cls.method
    module: str
    name: str
    path: str
    line: int
    is_generator: bool = False
    class_name: str = ""  # qualified class, "" for free functions

    @property
    def local_qualname(self) -> str:
        """Scope path inside the module (``Cls.method``)."""
        prefix = self.module + "."
        if self.qualname.startswith(prefix):
            return self.qualname[len(prefix):]
        return self.qualname


@dataclasses.dataclass
class ClassInfo:
    """One indexed class: methods, bases and constructed attribute types."""

    qualname: str  # module-qualified: pkg.mod.Cls
    module: str
    name: str
    path: str
    line: int
    #: method name -> function qualname
    methods: dict = dataclasses.field(default_factory=dict)
    #: raw base-class names as written (resolved lazily through imports)
    bases: list = dataclasses.field(default_factory=list)
    #: self.<attr> -> raw class name assigned in a method body
    attr_types: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class _RawCall:
    caller: str  # function qualname ("" = module body)
    shape: tuple  # ("name", n) | ("attr", root, attrs) | ("super", m)
    is_reference: bool = False


@dataclasses.dataclass
class _ModuleIndex:
    name: str
    path: str
    #: local alias -> imported module dotted path
    module_aliases: dict = dataclasses.field(default_factory=dict)
    #: local name -> dotted origin from ``from m import n``
    name_origins: dict = dataclasses.field(default_factory=dict)
    #: local class name -> class qualname
    classes: dict = dataclasses.field(default_factory=dict)
    raw_calls: list = dataclasses.field(default_factory=list)
    #: (caller qualname, var name) -> raw class name (g = Gateway())
    var_types: dict = dataclasses.field(default_factory=dict)


class _Indexer(ast.NodeVisitor):
    """Pass over one module: index defs, record unresolved call shapes."""

    def __init__(self, index: _ModuleIndex, functions: dict, classes: dict):
        self.index = index
        self.functions = functions
        self.classes = classes
        self._scope: list[str] = []  # local scope names
        self._class_stack: list[ClassInfo] = []
        self._func_stack: list[str] = []  # enclosing function qualnames

    # -- naming helpers ------------------------------------------------------

    def _local(self, name: str) -> str:
        return ".".join(self._scope + [name])

    def _qual(self, name: str) -> str:
        return f"{self.index.name}.{self._local(name)}"

    @property
    def _caller(self) -> str:
        return self._func_stack[-1] if self._func_stack else ""

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.index.module_aliases[
                alias.asname or alias.name.split(".")[0]
            ] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:  # relative import: anchor at this module's package
            pkg_parts = self.index.name.split(".")[: -node.level]
            module = ".".join(pkg_parts + ([module] if module else []))
        for alias in node.names:
            self.index.name_origins[alias.asname or alias.name] = (
                f"{module}.{alias.name}" if module else alias.name
            )

    # -- definitions ---------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        info = ClassInfo(
            qualname=self._qual(node.name),
            module=self.index.name,
            name=node.name,
            path=self.index.path,
            line=node.lineno,
            bases=[b for b in map(_dotted_name, node.bases) if b],
        )
        self.classes[info.qualname] = info
        self.index.classes[self._local(node.name)] = info.qualname
        self._scope.append(node.name)
        self._class_stack.append(info)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()
        self._scope.pop()

    def _visit_function(self, node) -> None:
        qualname = self._qual(node.name)
        info = FunctionInfo(
            qualname=qualname,
            module=self.index.name,
            name=node.name,
            path=self.index.path,
            line=node.lineno,
            is_generator=_is_generator(node),
            class_name=(
                self._class_stack[-1].qualname if self._class_stack else ""
            ),
        )
        self.functions[qualname] = info
        if self._class_stack:
            self._class_stack[-1].methods[node.name] = qualname
        self._scope.append(node.name)
        self._func_stack.append(qualname)
        for child in node.body:
            self.visit(child)
        self._func_stack.pop()
        self._scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- assignments: attribute/variable type tracking -----------------------

    def _record_types(self, targets: "list[ast.expr]", value: ast.expr) -> None:
        if not isinstance(value, ast.Call):
            return
        ctor = _dotted_name(value.func)
        if not ctor:
            return
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self._class_stack
            ):
                self._class_stack[-1].attr_types.setdefault(target.attr, ctor)
            elif isinstance(target, ast.Name) and self._caller:
                self.index.var_types.setdefault(
                    (self._caller, target.id), ctor
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_types(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_types([node.target], node.value)
        self.generic_visit(node)

    # -- calls and references ------------------------------------------------

    def _shape(self, expr: ast.expr) -> "tuple | None":
        if isinstance(expr, ast.Name):
            return ("name", expr.id)
        if isinstance(expr, ast.Attribute):
            attrs: list[str] = []
            cur: ast.expr = expr
            while isinstance(cur, ast.Attribute):
                attrs.append(cur.attr)
                cur = cur.value
            attrs.reverse()
            if isinstance(cur, ast.Name):
                return ("attr", cur.id, tuple(attrs))
            if (
                isinstance(cur, ast.Call)
                and isinstance(cur.func, ast.Name)
                and cur.func.id == "super"
                and len(attrs) == 1
            ):
                return ("super", attrs[0])
        return None

    def visit_Call(self, node: ast.Call) -> None:
        shape = self._shape(node.func)
        if shape is not None:
            self.index.raw_calls.append(
                _RawCall(caller=self._caller, shape=shape)
            )
        # Function references passed as arguments register callbacks:
        # hooks.append(self._on_done), env.process(run), functools.partial...
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            ref = self._shape(arg)
            if ref is not None and not isinstance(arg, ast.Call):
                self.index.raw_calls.append(
                    _RawCall(caller=self._caller, shape=ref,
                             is_reference=True)
                )
        self.generic_visit(node)


def _dotted_name(expr: ast.expr) -> str:
    """Render a Name/Attribute chain as a dotted string ('' otherwise)."""
    parts: list[str] = []
    cur = expr
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return ""
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _is_generator(node) -> bool:
    """True when the function body itself yields (ignoring nested defs)."""
    for child in ast.walk(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)) and child is not node:
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            if _encloser(node, child) is node:
                return True
    return False


def _encloser(root, target) -> "ast.AST | None":
    """Innermost function/lambda of ``root`` containing ``target``."""
    result: list = [None]

    def walk(node, owner):
        if node is target:
            result[0] = owner
            return
        next_owner = owner
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            next_owner = node
        for child in ast.iter_child_nodes(node):
            walk(child, next_owner)

    walk(root, root)
    return result[0]


class CallGraph:
    """The resolved whole-program graph plus reachability answers."""

    def __init__(
        self,
        functions: "dict[str, FunctionInfo]",
        classes: "dict[str, ClassInfo]",
        edges: "dict[str, list[str]]",
        reference_targets: "set[str]",
        entries: "list[str]",
    ):
        self.functions = functions
        self.classes = classes
        self.edges = edges
        self.entries = entries
        #: functions only ever *referenced* (hook/callback registration)
        self.reference_targets = frozenset(reference_targets)
        closure: set[str] = set(entries)
        for entry in entries:
            closure |= reachable_from(edges, entry)
        self.sim_reachable = frozenset(closure)

    def is_sim_reachable(self, qualname: str) -> bool:
        return qualname in self.sim_reachable

    def callbacks(self) -> "list[str]":
        """Sim-reachable functions wired in by reference (hooks)."""
        return sorted(self.reference_targets & self.sim_reachable)

    def call_path(self, target: str) -> "list[str] | None":
        """Shortest entry -> ... -> target chain (deterministic BFS)."""
        if target not in self.sim_reachable:
            return None
        parents: dict[str, str] = {}
        queue = collections.deque(self.entries)
        seen = set(self.entries)
        while queue:
            node = queue.popleft()
            if node == target:
                path = [node]
                while path[-1] in parents:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            for nxt in self.edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = node
                    queue.append(nxt)
        return None  # pragma: no cover - closure and BFS agree

    def format_path(self, target: "str | list[str]") -> str:
        """Render a call chain; accepts a target qualname or a ready path."""
        path = target if isinstance(target, list) else self.call_path(target)
        if path:
            return " -> ".join(path)
        return target if isinstance(target, str) else ""


def _default_entry_modules(indexes: "list[_ModuleIndex]") -> "set[str]":
    entries: set[str] = set()
    for idx in indexes:
        if is_test_module(idx.name, idx.path):
            continue
        if idx.name == "repro" or idx.name.startswith("repro."):
            if any(
                idx.name == p or idx.name.startswith(p + ".")
                or (p.endswith(".") and idx.name.startswith(p))
                for p in ENTRY_MODULE_PREFIXES
            ):
                entries.add(idx.name)
        else:
            # Fragment match: "scheduler_conc" and "my_driver" are entry
            # modules; each dotted part is scanned for a marker substring.
            parts = [p.lower() for p in idx.name.split(".")]
            if any(m in p for p in parts for m in ENTRY_MODULE_MARKERS):
                entries.add(idx.name)
    return entries


def build_call_graph(
    paths: _t.Iterable["str | pathlib.Path"],
    entry_modules: "_t.Collection[str] | None" = None,
) -> CallGraph:
    """Index ``*.py`` files under ``paths`` and resolve the call graph.

    ``entry_modules`` overrides entry-point detection (exact dotted
    module names); by default simulation entry modules are detected by
    name (:data:`ENTRY_MODULE_PREFIXES` inside the repro package,
    :data:`ENTRY_MODULE_MARKERS` elsewhere).
    """
    from repro.analysis.determinism import expand_python_paths

    functions: dict[str, FunctionInfo] = {}
    classes: dict[str, ClassInfo] = {}
    indexes: list[_ModuleIndex] = []
    for file in expand_python_paths(paths):
        try:
            tree = ast.parse(file.read_text(), filename=str(file))
        except SyntaxError:
            continue  # DET000 reports this; the graph just skips it
        index = _ModuleIndex(name=module_name_for(file), path=str(file))
        _Indexer(index, functions, classes).visit(tree)
        indexes.append(index)

    resolver = _Resolver(functions, classes, indexes)
    edges: dict[str, set[str]] = {q: set() for q in functions}
    reference_targets: set[str] = set()
    for idx in indexes:
        module_entry = f"{idx.name}.<module>"
        for raw in idx.raw_calls:
            target = resolver.resolve(idx, raw)
            if target is None:
                continue
            caller = raw.caller or module_entry
            edges.setdefault(caller, set()).add(target)
            if raw.is_reference:
                reference_targets.add(target)

    sorted_edges = {q: sorted(t) for q, t in edges.items()}
    if entry_modules is None:
        entry_mods = _default_entry_modules(indexes)
    else:
        entry_mods = set(entry_modules)
    entries = sorted(
        q for q, info in functions.items() if info.module in entry_mods
    )
    # Module bodies of entry modules execute on import inside the sim
    # process; their module-level calls are reachable too.
    entries += sorted(
        q for q in sorted_edges
        if q.endswith(".<module>") and q[: -len(".<module>")] in entry_mods
    )
    return CallGraph(
        functions=functions,
        classes=classes,
        edges=sorted_edges,
        reference_targets=reference_targets,
        entries=entries,
    )


class _Resolver:
    """Resolve recorded call shapes to indexed function qualnames."""

    def __init__(self, functions, classes, indexes):
        self.functions = functions
        self.classes = classes
        self.by_module = {idx.name: idx for idx in indexes}

    def _class_for_raw(self, idx: _ModuleIndex, raw_name: str) -> "str | None":
        """Resolve a raw class name written in ``idx`` to a class qualname."""
        if raw_name in idx.classes:
            return idx.classes[raw_name]
        head, _, rest = raw_name.partition(".")
        if head in idx.module_aliases:
            candidate = f"{idx.module_aliases[head]}.{rest}" if rest else ""
            if candidate in self.classes:
                return candidate
        origin = idx.name_origins.get(head)
        if origin:
            candidate = f"{origin}.{rest}" if rest else origin
            if candidate in self.classes:
                return candidate
        if raw_name in self.classes:
            return raw_name
        return None

    def _method(self, class_qual: str, name: str, depth: int = 0) -> "str | None":
        """Find ``name`` on the class or (transitively) its bases."""
        if depth > 8:
            return None
        info = self.classes.get(class_qual)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        idx = self.by_module.get(info.module)
        for base in info.bases:
            base_qual = self._class_for_raw(idx, base) if idx else None
            if base_qual:
                found = self._method(base_qual, name, depth + 1)
                if found:
                    return found
        return None

    def _enclosing_class(self, caller: str) -> "str | None":
        info = self.functions.get(caller)
        return info.class_name or None if info else None

    def resolve(self, idx: _ModuleIndex, raw: _RawCall) -> "str | None":
        kind = raw.shape[0]
        if kind == "name":
            return self._resolve_name(idx, raw.caller, raw.shape[1])
        if kind == "attr":
            return self._resolve_attr(idx, raw.caller, raw.shape[1],
                                      list(raw.shape[2]))
        if kind == "super":
            cls = self._enclosing_class(raw.caller)
            if cls is None:
                return None
            info = self.classes.get(cls)
            if info is None:
                return None
            for base in info.bases:
                base_qual = self._class_for_raw(idx, base)
                if base_qual:
                    found = self._method(base_qual, raw.shape[1])
                    if found:
                        return found
            return None
        return None  # pragma: no cover

    def _resolve_name(
        self, idx: _ModuleIndex, caller: str, name: str
    ) -> "str | None":
        # Nested/local function in an enclosing scope, innermost first.
        if caller:
            local = caller[len(idx.name) + 1:] if caller.startswith(
                idx.name + "."
            ) else caller
            scope = local.split(".")
            for cut in range(len(scope), -1, -1):
                prefix = ".".join(scope[:cut] + [name])
                candidate = f"{idx.name}.{prefix}"
                if candidate in self.functions:
                    return candidate
        elif f"{idx.name}.{name}" in self.functions:
            return f"{idx.name}.{name}"
        # Local class constructor.
        cls = idx.classes.get(name)
        if cls:
            return self._method(cls, "__init__")
        # from-import of a function or class.
        origin = idx.name_origins.get(name)
        if origin:
            if origin in self.functions:
                return origin
            if origin in self.classes:
                return self._method(origin, "__init__")
        return None

    def _resolve_attr(
        self, idx: _ModuleIndex, caller: str, root: str, attrs: "list[str]"
    ) -> "str | None":
        if root == "self":
            cls = self._enclosing_class(caller)
            if cls is None:
                return None
            if len(attrs) == 1:
                return self._method(cls, attrs[0])
            if len(attrs) == 2:
                info = self.classes.get(cls)
                raw_type = info.attr_types.get(attrs[0]) if info else None
                if raw_type:
                    target_cls = self._class_for_raw(idx, raw_type)
                    if target_cls:
                        return self._method(target_cls, attrs[1])
            return None
        # Imported module: mod.fn() or mod.Class() or mod.Class.method().
        if root in idx.module_aliases:
            dotted = f"{idx.module_aliases[root]}.{'.'.join(attrs)}"
            if dotted in self.functions:
                return dotted
            if dotted in self.classes:
                return self._method(dotted, "__init__")
            if len(attrs) >= 2:
                cls_dotted = (
                    f"{idx.module_aliases[root]}.{'.'.join(attrs[:-1])}"
                )
                if cls_dotted in self.classes:
                    return self._method(cls_dotted, attrs[-1])
            return None
        # Local class: ClassName.method().
        cls = idx.classes.get(root)
        if cls and len(attrs) == 1:
            return self._method(cls, attrs[0])
        # from-imported class: Gateway.submit() / Gateway().
        origin = idx.name_origins.get(root)
        if origin and origin in self.classes and len(attrs) == 1:
            return self._method(origin, attrs[0])
        # Local variable with recorded constructed type: g = Gateway().
        if caller and len(attrs) == 1:
            raw_type = idx.var_types.get((caller, root))
            if raw_type:
                target_cls = self._class_for_raw(idx, raw_type)
                if target_cls:
                    return self._method(target_cls, attrs[0])
        return None
