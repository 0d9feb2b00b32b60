"""Pass 2 — classify every write reachable from ``Database.sql``.

Reuses :class:`repro.hiveaudit.callgraph.CallGraph` over a wider,
execution-path module set, walks breadth-first from ``Database.sql``
(DDL/DML entry points are reachable from there via the SQL session),
and scans every reachable function for state writes:

* attribute stores (``self.x = v``, ``recv.x = v``);
* container writes through attributes or aliases (``self.x[k] = v``,
  ``del self.x[k]``, ``self.x.append(...)`` and friends);
* ``global`` / ``nonlocal`` declarations (none exist today; any new one
  is an automatic finding).

Each site is classified:

* **statement-local** — the written object was freshly constructed in
  the writing function (literal, comprehension, constructor), or its
  class lives in a *statement-scoped module* (plan nodes, parser state,
  aggregate accumulators: rebuilt from scratch for every statement), or
  the write happens in a *construction module* (bee generators and the
  planner, which build the routine/plan that is only later published
  through a registry-guarded write);
* **shared-mutable** — matches a
  :data:`repro.swarmcheck.registry.REGISTRY` entry naming its guard and
  invalidation epoch;
* **unclassified** — a finding: either new shared state that needs a
  declared guard + epoch, or a bug about to be.

Method calls that resolve to engine functions (``db.insert`` is DML,
``rel.add_index`` is a method — not ``list.insert``) are call edges,
not container writes; the callee's own writes are scanned directly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.hiveaudit.callgraph import CallGraph
from repro.swarmcheck import registry as reg
from repro.verify.report import Finding

#: Every module on (or reachable from) the ``db.sql()`` execution path:
#: the SQL front-end, planner, executor, all plan-node drivers, the bee
#: lifecycle including generation, the resilience layer, costing, and
#: storage.  Wider than hiveaudit's lifecycle set on purpose — a write
#: anywhere here is a write a morsel worker could race on.
EXEC_MODULES: tuple[str, ...] = (
    "db.py",
    "sql/session.py",
    "sql/planner.py",
    "sql/parser.py",
    "sql/lexer.py",
    "sql/ast.py",
    "engine/executor.py",
    "engine/nodes.py",
    "engine/dml.py",
    "engine/agg.py",
    "engine/aggregates.py",
    "engine/joins.py",
    "engine/deform.py",
    "engine/expr.py",
    "bees/module.py",
    "bees/cache.py",
    "bees/maker.py",
    "bees/collector.py",
    "bees/datasection.py",
    "bees/placement.py",
    "bees/walcache.py",
    "bees/settings.py",
    "bees/emit.py",
    "bees/routines/base.py",
    "bees/routines/gcl.py",
    "bees/routines/scl.py",
    "bees/routines/evp.py",
    "bees/routines/evj.py",
    "bees/routines/agg.py",
    "bees/routines/idx.py",
    "bees/drivers.py",
    "bees/pipeline/fusion.py",
    "bees/pipeline/codegen.py",
    "bees/vector/codegen.py",
    "bees/vector/chunks.py",
    "parallel/coordinator.py",
    "parallel/worker.py",
    "resilience/guard.py",
    "resilience/registry.py",
    "resilience/errors.py",
    "cost/ledger.py",
    "cost/profiler.py",
    "catalog/catalog.py",
    "catalog/annotations.py",
    "catalog/schema.py",
    "storage/heapfile.py",
    "storage/buffer.py",
    "storage/layout.py",
    "storage/index.py",
    "storage/page.py",
    # Hive Gate server core: admission, sequencing, data WAL.
    # protocol.py stays out deliberately — the socket shell does no
    # engine writes (its one counter goes through
    # HiveServer.note_disconnect) and its conn/reader state is
    # connection-thread private.
    "server/locks.py",
    "server/wal.py",
    "server/core.py",
)

#: The session-facing mutation surface: everything a SQL session can
#: trigger.  ``sql()`` covers DML/DDL/queries; ``reannotate`` is the
#: ALTER path (no SQL syntax yet); the profiler toggles ledger state
#: around a measured statement.
ENTRY_POINTS = (
    "Database.sql",
    "Database.reannotate",
    "Database.close",
    "FunctionProfile.__enter__",
    "FunctionProfile.__exit__",
    # The server surface: everything a connected client can trigger.
    "Session.sql",
    "Session.close",
    "HiveServer.session",
    "HiveServer.shutdown",
    "HiveServer.note_disconnect",
    "HiveServer.stats_snapshot",
)

#: Modules whose classes are statement-scoped: instances are rebuilt
#: from scratch for every SQL statement (plan trees, exec contexts,
#: parser/lexer state, aggregate accumulators, bound expressions), so
#: writes to them never cross a statement boundary.  The fused-driver
#: module qualifies — drivers are plan nodes and its rewriters only
#: touch the clones they just made — while the chunk cache and bee
#: module explicitly do not.
STATEMENT_MODULES = frozenset({
    "engine/nodes.py",
    "engine/aggregates.py",
    "engine/expr.py",
    "sql/parser.py",
    "sql/lexer.py",
    "sql/ast.py",
    "bees/drivers.py",
    "cost/profiler.py",
    # The worker module's state is forked-process private (each worker
    # owns its ledger/bee/chunk caches outright — replies cross the
    # pipe by pickle, never by reference), which is the same
    # no-contention property.
    "parallel/worker.py",
})

#: Modules that *construct* a routine or plan: the object under
#: construction (source lines, namespace dict, emitter state, plan tree)
#: is exclusively owned until published, and every publication point is
#: a registry-matched write in ``bees/module.py`` (a plan node's routine
#: slot, the content-keyed maps) / ``bees/cache.py``.  Unresolved-
#: receiver writes here are construction-local; writes to a known shared
#: class still require a registry entry.
CONSTRUCTION_MODULES = frozenset({
    "sql/planner.py",
    "engine/agg.py",
    "engine/joins.py",
    "bees/emit.py",
    "bees/routines/base.py",
    "bees/routines/gcl.py",
    "bees/routines/scl.py",
    "bees/routines/evp.py",
    "bees/routines/evj.py",
    "bees/routines/agg.py",
    "bees/routines/idx.py",
    "bees/pipeline/codegen.py",
    "bees/pipeline/fusion.py",
    "bees/vector/codegen.py",
})

#: Method names that mutate their receiver (list/dict/set/deque/ndarray
#: surface).  ``setflags`` is included: freezing *is* a metadata write
#: and must happen at a declared point (``freeze_chunk``).
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end", "sort",
    "reverse", "appendleft", "setflags", "fill", "put", "resize",
    "partition", "itemset",
})

#: Callables whose result is a fresh object owned by the caller.
_FRESH_CALLS = frozenset({
    "list", "dict", "set", "tuple", "bytearray", "OrderedDict", "deque",
    "defaultdict", "Counter", "sorted", "build_index",
})

#: Attribute-call names returning fresh objects (never aliases of the
#: receiver's internals).
_FRESH_METHODS = frozenset({
    "copy", "deepcopy", "snapshot", "split", "splitlines", "decode",
    "encode", "fromiter", "array", "zeros", "empty", "nonzero", "where",
    "arange", "keys", "values", "items", "as_list",
})

#: Aliasing getters: the result IS (an element of) the receiver.
_ALIAS_METHODS = frozenset({"setdefault", "get", "pop"})

#: Per-function ownership declarations: names whose writes are owned by
#: the function even though the scanner cannot prove freshness.  Each
#: entry is an auditable claim; keep the note honest.
OWNED: dict[str, frozenset] = {
    # freeze_chunk is the one declared mutation point for cached chunk
    # arrays: it runs once, at ChunkCache insertion, before the chunk is
    # published (the escape pass proves nothing writes afterwards).
    "freeze_chunk": frozenset({"arr"}),
    # The statement classifier's accumulator set: created fresh in
    # referenced_tables for every parse, filled recursively, never
    # escapes the call.
    "_collect_tables": frozenset({"names"}),
    # Column sinks append to the scratch lists the chunk decode created
    # for that call and drops once the arrays are built; the guard cuts
    # a faulted page's appends back off the same lists.
    "reference_column_sink": frozenset({"cols", "nulls"}),
    "BeeGuard.column_sink": frozenset({"values"}),
}


@dataclass(frozen=True)
class WriteSite:
    """One attribute/global/container write in reachable engine code."""

    module: str
    qualname: str
    lineno: int
    cls: str | None     # receiver class, when resolvable
    attr: str           # attribute written (or bare receiver name)
    verb: str           # assign | augassign | delete | call:<method> | global
    classification: str  # shared-mutable | statement-local | unclassified
    entry_key: str = ""  # matching registry entry / locality rule


class _FnWriteScanner(ast.NodeVisitor):
    """Collect raw write events for one function.

    Freshness tracking is deliberately simple: a local name assigned
    from a literal container, a comprehension, or a known fresh
    constructor is *fresh*; writes through fresh names are owned by the
    statement.  A local assigned from ``self.x`` / ``recv.x`` (or an
    element thereof, via subscript or ``setdefault``/``get``) is an
    *alias* of that attribute, and writes through it count against the
    attribute.  Loop variables alias what they iterate.
    """

    def __init__(self, graph: CallGraph, info) -> None:
        self.graph = graph
        self.info = info
        self.fresh: set[str] = set()
        self.alias: dict[str, tuple[str | None, str]] = {}
        self.local_types: dict[str, str] = {}  # local name -> class
        self.owned = OWNED.get(info.qualname, frozenset())
        self.events: list = []  # (cls, attr, verb, lineno)

    # -- receiver resolution -------------------------------------------------

    @staticmethod
    def _root_name(node: ast.expr) -> str | None:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def _owned_root(self, node: ast.expr) -> bool:
        root = self._root_name(node)
        return root is not None and (
            root in self.fresh or root in self.owned
        )

    def _receiver(self, node: ast.expr) -> tuple[str | None, str] | None:
        """``(cls, attr)`` for an attribute expression, else None."""
        if not isinstance(node, ast.Attribute):
            return None
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                return (self.info.cls, node.attr)
            if base.id in self.local_types:
                return (self.local_types[base.id], node.attr)
            if base.id in self.alias:
                # rel = self._relations[name]; rel.heap = ... — resolve
                # the element class through the aliased attribute's
                # learned value type (``_relations: dict[str, Relation]``
                # teaches attr_types ``_relations -> Relation``).
                elem = self.graph.attr_types.get(self.alias[base.id][1])
                return (
                    elem or self.graph.attr_types.get(base.id), node.attr
                )
            return (self.graph.attr_types.get(base.id), node.attr)
        if isinstance(base, ast.Attribute) and isinstance(
            base.value, ast.Name
        ):
            # self.x.attr / recv.x.attr — resolve through x's class.
            return (self.graph.attr_types.get(base.attr), node.attr)
        if isinstance(base, ast.Subscript):
            inner = self._subscript_target(base)
            if inner is not None:
                return (self.graph.attr_types.get(inner[1]), node.attr)
        return (None, node.attr)

    def _subscript_target(
        self, node: ast.Subscript
    ) -> tuple[str | None, str] | None:
        """``(cls, name)`` identifying what a subscript writes into."""
        base = node.value
        if isinstance(base, ast.Name):
            if base.id in self.alias:
                return self.alias[base.id]
            return (None, base.id)
        recv = self._receiver(base)
        if recv is not None:
            return recv
        if isinstance(base, ast.Subscript):
            return self._subscript_target(base)
        return None

    def _record(self, cls, attr, verb, lineno) -> None:
        self.events.append((cls, attr, verb, lineno))

    # -- freshness / aliasing ------------------------------------------------

    def _is_fresh_value(self, value: ast.expr) -> bool:
        if isinstance(value, (
            ast.List, ast.Dict, ast.Set, ast.Tuple, ast.ListComp,
            ast.DictComp, ast.SetComp, ast.GeneratorExp, ast.Constant,
            ast.JoinedStr, ast.BinOp, ast.UnaryOp, ast.Compare,
        )):
            return True
        if isinstance(value, ast.Call):
            fn = value.func
            if isinstance(fn, ast.Name):
                # Fresh constructors and Class() instantiations (public
                # or private): statement-owned until published.
                return (
                    fn.id in _FRESH_CALLS
                    or fn.id.lstrip("_")[:1].isupper()
                )
            if isinstance(fn, ast.Attribute):
                return (
                    fn.attr in _FRESH_METHODS
                    or fn.attr.startswith(("make_", "generate_", "build_"))
                )
        return False

    def _alias_of(self, value: ast.expr) -> tuple[str | None, str] | None:
        """What attribute *value* aliases, if any."""
        if isinstance(value, ast.Attribute):
            return self._receiver(value)
        if isinstance(value, ast.Subscript):
            return self._subscript_target(value)
        if isinstance(value, ast.Call):
            fn = value.func
            if isinstance(fn, ast.Attribute) and fn.attr in _ALIAS_METHODS:
                return self._receiver(fn) and self._receiver(fn.value) \
                    if False else self._alias_of(fn.value)
        if isinstance(value, ast.Name):
            return self.alias.get(value.id)
        return None

    def _returned_class(self, value: ast.expr) -> str | None:
        """Class named by the return annotation of a resolved callee
        (``rel = self.relation(name)`` with ``-> Relation``)."""
        if not isinstance(value, ast.Call):
            return None
        fn = value.func
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            recv, name = fn.value.id, fn.attr
        elif isinstance(fn, ast.Name):
            recv, name = None, fn.id
        else:
            return None
        for qual in self.graph.resolve(self.info, recv, name):
            callee = self.graph.functions.get(qual)
            if callee is None or callee.node.returns is None:
                continue
            for node in ast.walk(callee.node.returns):
                if isinstance(node, ast.Name) and node.id[:1].isupper():
                    if node.id in self.graph.classes:
                        return node.id
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    ident = node.value.strip().split("|")[0].strip()
                    if ident in self.graph.classes:
                        return ident
        return None

    def _track_local(self, name: str, value: ast.expr) -> None:
        self.alias.pop(name, None)
        self.fresh.discard(name)
        self.local_types.pop(name, None)
        returned = self._returned_class(value)
        if returned is not None:
            self.local_types[name] = returned
        if isinstance(value, ast.Name) and value.id in self.fresh:
            self.fresh.add(name)
            return
        if self._is_fresh_value(value):
            self.fresh.add(name)
            return
        target = self._alias_of(value)
        if target is not None and target[1] not in self.fresh:
            self.alias[name] = target

    # -- visitors ------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.info.node:
            # Nested def: the function object is statement-owned (so
            # stamping ``closure.shield_key = ...`` is local), but its
            # body still runs with the outer scope visible — scan it.
            self.fresh.add(node.name)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_For(self, node: ast.For) -> None:
        targets = (
            node.target.elts
            if isinstance(node.target, (ast.Tuple, ast.List))
            else [node.target]
        )
        iter_alias = self._alias_of(node.iter)
        if iter_alias is None and isinstance(node.iter, ast.Call):
            fn = node.iter.func
            if isinstance(fn, ast.Attribute):  # self.x.items() etc.
                iter_alias = self._receiver(fn.value) if isinstance(
                    fn.value, ast.Attribute
                ) else self._alias_of(fn.value)
        iter_fresh = (
            self._is_fresh_value(node.iter)
            or self._owned_root(node.iter)
        )
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            self.alias.pop(target.id, None)
            self.fresh.discard(target.id)
            if iter_fresh:
                self.fresh.add(target.id)
            elif iter_alias is not None:
                self.alias[target.id] = iter_alias
        self.generic_visit(node)

    def _handle_store(self, target: ast.expr, verb: str, lineno: int,
                      value: ast.expr | None = None) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.owned:
                return
            if value is not None:
                self._track_local(target.id, value)
            return  # plain local rebind: never shared
        if isinstance(target, (ast.Tuple, ast.List)):
            # Tuple unpack: call results are fresh objects.
            elts_fresh = value is not None and self._is_fresh_value(value)
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.alias.pop(element.id, None)
                    if elts_fresh:
                        self.fresh.add(element.id)
                    else:
                        self.fresh.discard(element.id)
                else:
                    self._handle_store(element, verb, lineno, None)
            return
        if self._owned_root(target):
            return  # field/element of a statement-owned object
        if isinstance(target, ast.Attribute):
            recv = self._receiver(target)
            if recv is not None:
                self._record(recv[0], recv[1], verb, lineno)
            return
        if isinstance(target, ast.Subscript):
            base = self._subscript_target(target)
            if base is None:
                return
            self._record(base[0], base[1], verb, lineno)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_store(target, "assign", node.lineno, node.value)
        self.generic_visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_store(node.target, "assign", node.lineno, node.value)
            self.generic_visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_store(node.target, "augassign", node.lineno)
        self.generic_visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._handle_store(target, "delete", node.lineno)

    def _resolves_to_method(self, recv_expr: ast.expr, name: str) -> bool:
        """True when ``recv.name(...)`` is an engine method call (a call
        edge the reachability walk already follows), not a container
        mutation.  Only class-resolved receivers count — the bare-name
        fallback would hide real dict/list writes."""
        cls = None
        if isinstance(recv_expr, ast.Name):
            if recv_expr.id == "self":
                cls = self.info.cls
            else:
                cls = self.local_types.get(
                    recv_expr.id
                ) or self.graph.attr_types.get(recv_expr.id)
        elif isinstance(recv_expr, ast.Attribute):
            # self.catalog.annotations.clear() — resolve through the
            # final attribute's learned class (AnnotationSet.clear).
            cls = self.graph.attr_types.get(recv_expr.attr)
        return cls is not None and name in self.graph.classes.get(cls, ())

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in MUTATING_METHODS:
            recv_expr = fn.value
            if not self._resolves_to_method(recv_expr, fn.attr) and not (
                self._owned_root(recv_expr)
            ):
                verb = f"call:{fn.attr}"
                if isinstance(recv_expr, ast.Name):
                    name = recv_expr.id
                    if name in self.alias:
                        cls, attr = self.alias[name]
                        self._record(cls, attr, verb, node.lineno)
                    elif name != "self":
                        self._record(None, name, verb, node.lineno)
                elif isinstance(recv_expr, ast.Attribute):
                    recv = self._receiver(recv_expr)
                    if recv is not None:
                        self._record(recv[0], recv[1], verb, node.lineno)
                elif isinstance(recv_expr, ast.Subscript):
                    base = self._subscript_target(recv_expr)
                    if base is not None:
                        self._record(base[0], base[1], verb, node.lineno)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self._record("<global>", name, "global", node.lineno)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        for name in node.names:
            self._record("<nonlocal>", name, "nonlocal", node.lineno)


def _import_aliases(source, modules: tuple) -> dict[str, str]:
    """``alias -> original`` for every ``from X import a as b`` in
    *modules* — ``Database.execute`` calls ``_execute``, which is
    ``engine.executor.execute`` under an alias the raw callgraph cannot
    see."""
    aliases: dict[str, str] = {}
    for module in modules:
        for node in ast.walk(source.tree(module)):
            if isinstance(node, ast.ImportFrom):
                for name in node.names:
                    if name.asname and name.asname != name.name:
                        aliases[name.asname] = name.name
    return aliases


def reachable_from(graph: CallGraph, starts, aliases=None) -> set[str]:
    """Every function qualname reachable from *starts* (inclusive).

    Deliberately coarser than :meth:`CallGraph.successors`: in addition
    to resolved edges, every call unions over *all* functions sharing
    the name (plan-node dispatch is polymorphic — ``node.rows(ctx)``
    must reach every ``rows`` method, not just the one class the
    type-learner happened to pin) and follows import aliases.  For a
    write-coverage pass, over-approximating reachability is the sound
    direction.
    """
    aliases = aliases or {}
    if isinstance(starts, str):
        starts = (starts,)
    seen = set(starts)
    queue = list(starts)
    while queue:
        current = queue.pop(0)
        info = graph.functions.get(current)
        if info is None:
            continue
        successors: set[str] = set(graph.successors(current))
        for _recv, name, _lineno in info.calls:
            successors.update(graph.by_name.get(name, ()))
            original = aliases.get(name)
            if original is not None:
                successors.update(graph.by_name.get(original, ()))
        for nxt in successors:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _statement_scoped(graph: CallGraph, module: str, cls: str | None) -> str:
    """Locality rule for a write site, or ``""`` if none applies."""
    if cls is not None:
        defined_in = graph.class_module.get(cls)
        if defined_in in STATEMENT_MODULES:
            return f"statement-module:{defined_in}"
        if defined_in is not None and defined_in not in CONSTRUCTION_MODULES:
            return ""  # known class outside the local modules: registry
    if module in STATEMENT_MODULES:
        return f"statement-module:{module}"
    if module in CONSTRUCTION_MODULES:
        return f"construction-module:{module}"
    return ""


def classify_writes(
    source,
    registry: tuple = reg.REGISTRY,
) -> tuple[list[WriteSite], list[Finding], dict]:
    """Run the full pass; returns (sites, findings, stats)."""
    graph = CallGraph(source, modules=EXEC_MODULES)
    aliases = _import_aliases(source, EXEC_MODULES)
    reach = reachable_from(graph, ENTRY_POINTS, aliases)
    by_key = {entry.key: entry for entry in registry}

    def lookup(cls, attr):
        if cls:
            entry = by_key.get(f"{cls}.{attr}")
            if entry is not None:
                return entry
        return by_key.get(f"*.{attr}")

    sites: list[WriteSite] = []
    findings: list[Finding] = []
    used_keys: set[str] = set()
    for qual in sorted(reach):
        info = graph.functions.get(qual)
        if info is None:
            continue
        scanner = _FnWriteScanner(graph, info)
        scanner.visit(info.node)
        for cls, attr, verb, lineno in scanner.events:
            if verb in ("global", "nonlocal"):
                sites.append(WriteSite(
                    info.module, qual, lineno, cls, attr, verb,
                    "unclassified",
                ))
                findings.append(Finding(
                    "shared-state", f"{qual}:{attr}",
                    f"{verb} declaration in reachable engine code — "
                    "module-level mutable state is never safe to share",
                    info.module, lineno,
                ))
                continue
            entry = lookup(cls, attr)
            if entry is not None:
                used_keys.add(entry.key)
                sites.append(WriteSite(
                    info.module, qual, lineno, cls, attr, verb,
                    entry.scope, entry.key,
                ))
                continue
            rule = _statement_scoped(graph, info.module, cls)
            if rule:
                sites.append(WriteSite(
                    info.module, qual, lineno, cls, attr, verb,
                    "statement-local", rule,
                ))
                continue
            sites.append(WriteSite(
                info.module, qual, lineno, cls, attr, verb,
                "unclassified",
            ))
            findings.append(Finding(
                "shared-state",
                f"{cls or '?'}.{attr}",
                f"write ({verb}) in {qual} matches no SharedState "
                "registry entry — declare its scope, guard, and "
                "epoch in repro/swarmcheck/registry.py",
                info.module, lineno,
            ))

    stats = {
        "reachable_functions": len(reach & set(graph.functions)),
        "modules": len(EXEC_MODULES),
        "used_registry_keys": sorted(used_keys),
        "unused_registry_keys": sorted(set(by_key) - used_keys),
    }
    return sites, findings, stats
