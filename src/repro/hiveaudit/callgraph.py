"""Pass 3 support — an engine-wide call graph with listener edges.

The graph is intentionally coarse: nodes are functions/methods keyed
``Class.method`` (or a bare name at module top level), and edges come
from three resolvers, tried in order per call site:

1. ``self.m(...)`` → the same class's ``m`` when it exists;
2. ``recv.m(...)`` where ``recv``'s class is known — learned from
   constructor assignments (``x = Cls(...)``, ``self.x = Cls(...)``),
   dataclass/attribute annotations, and annotated function parameters;
3. a bare-name union over every function named ``m`` anywhere in the
   analyzed modules (sound-but-coarse fallback).

Constructor calls are deliberately *not* resolved to ``__init__`` —
building a fresh object is never how the engine invalidates caches, and
those edges would only manufacture spurious "reaches" witnesses.

Catalog listener dispatch is modeled explicitly: a call to
``_notify("<event>", ...)`` gains edges to every handler registered via
``on("<event>", handler)`` anywhere in the analyzed modules, so DDL
paths flow through ``Catalog._notify`` into ``Database._on_drop`` /
``Database._on_alter`` the same way they do at runtime.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

# Modules the lifecycle analysis spans: DDL entry points, DML, the bee
# lifecycle, and the storage layer.
GRAPH_MODULES = (
    "db.py",
    "catalog/catalog.py",
    "engine/dml.py",
    "bees/module.py",
    "bees/cache.py",
    "bees/collector.py",
    "bees/maker.py",
    "bees/datasection.py",
    "parallel/coordinator.py",
    "storage/heapfile.py",
    "storage/page.py",
    "storage/buffer.py",
    "storage/layout.py",
)


@dataclass
class FunctionInfo:
    """One node of the call graph."""

    qualname: str  # "Class.method" or bare function name
    module: str
    lineno: int
    node: ast.FunctionDef
    cls: str | None = None
    calls: list = field(default_factory=list)  # (recv, name, lineno)
    notifies: list = field(default_factory=list)  # event literals
    registrations: list = field(default_factory=list)  # (event, handler)


class _CallCollector(ast.NodeVisitor):
    def __init__(self, info: FunctionInfo) -> None:
        self.info = info

    def visit_Call(self, node: ast.Call) -> None:
        recv = None
        name = None
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if isinstance(node.func.value, ast.Name):
                recv = node.func.value.id
            elif (
                isinstance(node.func.value, ast.Attribute)
                and isinstance(node.func.value.value, ast.Name)
                and node.func.value.value.id == "self"
            ):
                # self.attr.m(...) — receiver is the attribute name,
                # resolvable when its class was learned.
                recv = node.func.value.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        if name is not None:
            self.info.calls.append((recv, name, node.lineno))
        if name == "_notify" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                self.info.notifies.append(first.value)
        if name == "on" and len(node.args) >= 2:
            event, handler = node.args[0], node.args[1]
            if (
                isinstance(event, ast.Constant)
                and isinstance(event.value, str)
                and isinstance(handler, ast.Attribute)
            ):
                self.info.registrations.append((event.value, handler.attr))
        self.generic_visit(node)


class CallGraph:
    """Resolvable call graph over *modules* (:data:`GRAPH_MODULES` by
    default; swarmcheck passes a wider, execution-path module set)."""

    def __init__(self, source, modules: tuple = GRAPH_MODULES) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[str]] = {}
        self.attr_types: dict[str, str] = {}  # attr/var name -> class name
        self.classes: dict[str, set[str]] = {}  # class -> method names
        self._listeners: dict[str, list[str]] = {}  # event -> qualnames
        self.class_module: dict[str, str] = {}  # class -> defining module
        for module in modules:
            self._collect_module(module, source.tree(module))
        self._wire_listeners()

    # -- construction --------------------------------------------------------

    def _add_function(
        self, module: str, fn: ast.FunctionDef, cls: str | None
    ) -> None:
        qual = f"{cls}.{fn.name}" if cls else fn.name
        info = FunctionInfo(qual, module, fn.lineno, fn, cls)
        _CallCollector(info).visit(fn)
        self.functions[qual] = info
        self.by_name.setdefault(fn.name, []).append(qual)
        if cls:
            self.classes.setdefault(cls, set()).add(fn.name)
        self._learn_types(fn)

    def _collect_module(self, module: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self._add_function(module, node, None)
            elif isinstance(node, ast.ClassDef):
                self.classes.setdefault(node.name, set())
                self.class_module.setdefault(node.name, module)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        self._add_function(module, item, node.name)
                    elif isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        self._learn_annotation(
                            item.target.id, item.annotation
                        )

    def _learn_types(self, fn: ast.FunctionDef) -> None:
        for arg in fn.args.args + fn.args.kwonlyargs:
            if arg.annotation is not None:
                self._learn_annotation(arg.arg, arg.annotation)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                ctor = node.value.func
                if isinstance(ctor, ast.Name) and ctor.id[:1].isupper():
                    for target in node.targets:
                        attr = self._attr_or_name(target)
                        if attr:
                            self.attr_types[attr] = ctor.id
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Name
            ):
                # self._ledger = ledger — propagate the parameter's
                # annotated class onto the stored attribute name.
                known = self.attr_types.get(node.value.id)
                if known is not None:
                    for target in node.targets:
                        attr = self._attr_or_name(target)
                        if attr:
                            self.attr_types.setdefault(attr, known)
            elif isinstance(node, ast.AnnAssign):
                attr = self._attr_or_name(node.target)
                if attr:
                    self._learn_annotation(attr, node.annotation)

    @staticmethod
    def _attr_or_name(target) -> str | None:
        if isinstance(target, ast.Name):
            return target.id
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    def _learn_annotation(self, name: str, annotation: ast.expr) -> None:
        # Accept `Cls`, `Cls | None`, `Optional[Cls]`, and string forms.
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name) and node.id[:1].isupper():
                if node.id not in ("None", "Optional", "Union"):
                    self.attr_types.setdefault(name, node.id)
                    return
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                ident = node.value.strip().split("|")[0].strip()
                if ident[:1].isupper():
                    self.attr_types.setdefault(name, ident)
                    return

    def _wire_listeners(self) -> None:
        for info in self.functions.values():
            for event, handler in info.registrations:
                for qual in self.by_name.get(handler, []):
                    self._listeners.setdefault(event, []).append(qual)

    # -- resolution ----------------------------------------------------------

    def resolve(self, caller: FunctionInfo, recv, name) -> list[str]:
        """Candidate callee qualnames for one call site in *caller*."""
        if name == "__init__":
            return []
        if recv == "self" and caller.cls:
            if name in self.classes.get(caller.cls, ()):  # same-class method
                return [f"{caller.cls}.{name}"]
        if recv is not None:
            cls = self.attr_types.get(recv)
            if cls is not None and name in self.classes.get(cls, ()):
                return [f"{cls}.{name}"]
        return list(self.by_name.get(name, []))

    def successors(self, qual: str) -> list[str]:
        info = self.functions.get(qual)
        if info is None:
            return []
        out: list[str] = []
        seen = set()
        for recv, name, _lineno in info.calls:
            for callee in self.resolve(info, recv, name):
                if callee not in seen:
                    seen.add(callee)
                    out.append(callee)
        for event in info.notifies:
            for callee in self._listeners.get(event, []):
                if callee not in seen:
                    seen.add(callee)
                    out.append(callee)
        return out

    def reaches(self, start: str, targets) -> list[str] | None:
        """Witness call path from *start* to any of *targets*, else None.

        *start* itself counts: a mutation inside ``BeeCache.drop_relation_bee``
        would trivially satisfy a rule targeting that function.
        """
        targets = set(targets)
        if start in targets:
            return [start]
        parent: dict[str, str] = {start: ""}
        queue = [start]
        while queue:
            current = queue.pop(0)
            for nxt in self.successors(current):
                if nxt in parent:
                    continue
                parent[nxt] = current
                if nxt in targets:
                    path = [nxt]
                    while parent[path[-1]]:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(nxt)
        return None
