"""Pass 2 — mutation discovery: where does tracked invariant state change?

Scans the DDL/DML/storage/bee modules for every statement that mutates
one of the invariant classes the extraction pass proved bees embed, and
classifies each site with a *verb* (create / replace / destroy /
rebuild / row-insert / row-delete / swap / append / primitive) that the
rules pass matches against required invalidation edges.

Verbs are primarily syntactic (``del``/``.pop``/``.clear`` → destroy,
assignment → replace) but a ``_notify("<event>", ...)`` literal in the
same function is authoritative — ``Catalog.create_relation`` assigns
into ``_relations`` yet is a *create*, not a replace, and must not be
asked for an invalidation edge.

``__init__`` bodies are skipped: constructing an empty registry is not a
mutation of live state.  Page-level mutations inside ``storage/`` are
collapsed to one informational "primitive" site per mutating function —
callers of those primitives (DML, vacuum) are the sites the rules
constrain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.hiveaudit.callgraph import CallGraph, GRAPH_MODULES

# Attribute name -> (invariant class, default verb for plain assignment),
# per module where the attribute is authoritative.
TRACKED_ATTRS = {
    "catalog/catalog.py": {
        "_relations": ("catalog.schema", "replace"),
    },
    "db.py": {
        "_relations": ("runtime.relations", "replace"),
        "settings": ("settings.flags", "swap"),
    },
}

_NOTIFY_VERBS = {"create": "create", "alter": "replace", "drop": "destroy"}

# Functions whose registry assignment registers a *new* name, though no
# ``_notify`` literal says so: nothing cached can refer to it yet, so no
# eviction edge is owed (the catalog refused a name already taken).
_CREATE_SITES = frozenset({"Database.create_table"})

# Methods on AnnotationStore reached via `.annotations`.
_ANNOTATION_VERBS = {"annotate": "replace", "clear": "destroy"}

_HEAP_ROW_VERBS = {"insert": "row-insert", "delete": "row-delete"}

_STORAGE_MODULES = ("storage/heapfile.py", "storage/buffer.py")

# Attributes whose element-level mutation inside storage/ marks the
# owning function as a storage primitive.
_STORAGE_ATTRS = frozenset({
    "pages", "page_versions", "live_count", "_resident",
})


@dataclass(frozen=True)
class MutationSite:
    """One discovered mutation of tracked invariant state."""

    module: str
    qualname: str  # enclosing function, callgraph key
    lineno: int
    invariant: str  # invariant class mutated
    verb: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "function": self.qualname,
            "line": self.lineno,
            "invariant": self.invariant,
            "verb": self.verb,
            "detail": self.detail,
        }


def _attr_name(node) -> str | None:
    """The attribute name for self.X / obj.X targets, else a bare name."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _subscript_base_attr(node) -> str | None:
    if isinstance(node, ast.Subscript):
        return _attr_name(node.value)
    return None


class _FunctionScanner(ast.NodeVisitor):
    def __init__(
        self, module: str, info, graph: CallGraph, sites: list
    ) -> None:
        self.module = module
        self.info = info
        self.graph = graph
        self.sites = sites
        self.tracked = TRACKED_ATTRS.get(module, {})
        self.notify_verb = None
        for event in info.notifies:
            self.notify_verb = _NOTIFY_VERBS.get(event, self.notify_verb)
        if info.qualname in _CREATE_SITES:
            self.notify_verb = "create"

    def _emit(self, lineno, invariant, verb, detail) -> None:
        self.sites.append(
            MutationSite(
                self.module, self.info.qualname, lineno, invariant, verb,
                detail,
            )
        )

    def _verb(self, syntactic: str) -> str:
        # A _notify literal in the same function names the DDL event and
        # overrides the syntactic guess for registry mutations.
        return self.notify_verb or syntactic

    # -- registry / attribute mutations --------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._store_target(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._store_target(node.target, node.lineno)
        self.generic_visit(node)

    def _store_target(self, target, lineno) -> None:
        base = _subscript_base_attr(target)
        if base is not None and base in self.tracked:
            invariant, verb = self.tracked[base]
            self._emit(lineno, invariant, self._verb(verb),
                       f"{base}[...] = ...")
            return
        attr = _attr_name(target)
        if attr in self.tracked and isinstance(target, ast.Attribute):
            invariant, verb = self.tracked[attr]
            self._emit(lineno, invariant, self._verb(verb), f"{attr} = ...")
        elif (
            attr == "heap"
            and isinstance(target, ast.Attribute)
            and not self.module.startswith("storage/")
        ):
            # rel.heap = <fresh HeapFile> — the heap is rebuilt under the
            # relation: resident pages for it are now stale.
            self._emit(lineno, "storage.heap", "rebuild", "heap = ...")

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            base = _subscript_base_attr(target)
            if base in self.tracked:
                invariant, _verb = self.tracked[base]
                self._emit(node.lineno, invariant, self._verb("destroy"),
                           f"del {base}[...]")
        self.generic_visit(node)

    # -- method-call mutations ------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            recv = func.value
            recv_attr = _attr_name(recv)
            if name in ("pop", "clear") and recv_attr in self.tracked:
                invariant, _verb = self.tracked[recv_attr]
                self._emit(node.lineno, invariant, self._verb("destroy"),
                           f"{recv_attr}.{name}(...)")
            elif (
                name in _ANNOTATION_VERBS
                and isinstance(recv, ast.Attribute)
                and recv.attr == "annotations"
            ):
                self._emit(
                    node.lineno, "layout.annotations",
                    _ANNOTATION_VERBS[name], f"annotations.{name}(...)",
                )
            elif (
                name in _HEAP_ROW_VERBS
                and not self.module.startswith("storage/")
                and recv_attr is not None
                and (
                    self.graph.attr_types.get(recv_attr) == "HeapFile"
                    or recv_attr == "heap"
                )
            ):
                self._emit(
                    node.lineno, "storage.heap", _HEAP_ROW_VERBS[name],
                    f"{recv_attr}.{name}(...)",
                )
            elif (
                name == "write"
                and recv_attr is not None
                and self.graph.attr_types.get(recv_attr) == "RowWriter"
            ):
                self._emit(node.lineno, "storage.heap", "row-insert",
                           f"{recv_attr}.write(...)")
        self.generic_visit(node)


def _scan_datasection(source, graph: CallGraph, sites: list) -> None:
    """DataSectionStore must be append-only: destroys are violations."""
    module = "bees/datasection.py"
    for qual, info in graph.functions.items():
        if info.module != module or info.node.name == "__init__":
            continue
        for node in ast.walk(info.node):
            if isinstance(node, ast.Delete):
                sites.append(
                    MutationSite(module, qual, node.lineno,
                                 "datasection.values", "destroy", "del slab"),
                )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in ("pop", "clear", "remove"):
                    sites.append(
                        MutationSite(
                            module, qual, node.lineno, "datasection.values",
                            "destroy", f".{node.func.attr}(...)",
                        )
                    )
                elif node.func.attr == "append" and _attr_name(
                    node.func.value
                ) == "_slabs":
                    sites.append(
                        MutationSite(
                            module, qual, node.lineno, "datasection.values",
                            "append", "_slabs.append(...)",
                        )
                    )


def _scan_storage_primitives(graph: CallGraph, sites: list) -> None:
    """One informational site per storage function that mutates pages."""
    for qual, info in graph.functions.items():
        if info.module not in _STORAGE_MODULES:
            continue
        if info.node.name == "__init__":
            continue
        for node in ast.walk(info.node):
            mutated = None
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    base = _subscript_base_attr(target) or (
                        _attr_name(target)
                        if isinstance(target, ast.Attribute)
                        else None
                    )
                    if base in _STORAGE_ATTRS:
                        mutated = base
            elif isinstance(node, ast.AugAssign):
                base = _subscript_base_attr(node.target) or _attr_name(
                    node.target
                )
                if base in _STORAGE_ATTRS:
                    mutated = base
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if _subscript_base_attr(target) in _STORAGE_ATTRS:
                        mutated = _subscript_base_attr(target)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if (
                    node.func.attr in ("append", "pop", "clear")
                    and _attr_name(node.func.value) in _STORAGE_ATTRS
                ):
                    mutated = _attr_name(node.func.value)
            if mutated is not None:
                sites.append(
                    MutationSite(
                        info.module, qual, info.lineno, "storage.pages",
                        "primitive", f"mutates {mutated}",
                    )
                )
                break  # one site per function


_SLOT_FIELDS = frozenset({"nslots", "lower", "upper"})


def _page_format_verb(fn: ast.FunctionDef) -> str | None:
    """How *fn* (a ``HeapPage`` method) writes the page format.

    ``allocate``: one tuple-area store, one line pointer packed at
    ``lower``, the slot handed out is ``nslots`` and the three header
    fields only step (``+=``/``-=``).  ``kill``: one line pointer packed
    with a constant-zero length and nothing else.  Any other write of
    ``data``, a line pointer or a header field is a ``rewrite``; a
    method that writes none of them is not a site (``None``).
    """
    packs, stores, fields, hands_out_nslots = [], 0, [], False
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and _attr_name(node.func) == "pack_into":
            packs.append(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if _subscript_base_attr(target) == "data":
                    stores += 1
                elif (
                    isinstance(target, ast.Attribute)
                    and target.attr in _SLOT_FIELDS
                ):
                    fields.append(node)
                elif (
                    isinstance(node, ast.Assign)
                    and _attr_name(target) == "slot"
                    and _attr_name(node.value) == "nslots"
                ):
                    hands_out_nslots = True
    if not (packs or stores or fields):
        return None
    if len(packs) == 1 and len(packs[0].args) == 4:
        _buffer, position, _offset, length = packs[0].args
        if (
            stores == 1 and hands_out_nslots
            and _attr_name(position) == "lower"
            and all(isinstance(node, ast.AugAssign) for node in fields)
        ):
            return "allocate"
        if (
            not stores and not fields
            and isinstance(length, ast.Constant) and length.value == 0
        ):
            return "kill"
    return "rewrite"


def _fills_last_page_only(fn: ast.FunctionDef) -> bool | None:
    """Does every ``self.pages[i].insert(...)`` in *fn* index the last
    page — ``i`` bound to ``len(self.pages) - 1`` and only ever stepped
    by one (behind an append)?  ``None`` when *fn* inserts into no page."""
    indexes = {
        ast.unparse(node.func.value.slice)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and _attr_name(node.func) == "insert"
        and _subscript_base_attr(node.func.value) == "pages"
    }
    if not indexes:
        return None
    if len(indexes) != 1:
        return False
    (index,) = indexes
    if not index.isidentifier():
        return index == "len(self.pages) - 1"
    for node in ast.walk(fn):
        if isinstance(node, ast.AugAssign) and _attr_name(node.target) == index:
            if not (
                isinstance(node.op, ast.Add)
                and isinstance(node.value, ast.Constant)
                and node.value.value == 1
            ):
                return False
        elif isinstance(node, ast.Assign) and any(
            _attr_name(target) == index for target in node.targets
        ):
            if ast.unparse(node.value) != "len(self.pages) - 1":
                return False
    return True


def _scan_page_slots(graph: CallGraph, sites: list) -> None:
    """The slotted page is append-only — a slot is allocated once, at
    ``nslots``, on the file's last page, and a delete only zeroes its
    line pointer's length.  The chunk cache's refresh leans on it (old
    slots can only die, new tuples only sit past the slot count it
    saw), so every writer of the page format is a site and any writer
    that is not an ``allocate``/``kill``/``fill-last`` is a ``rewrite``."""
    for qual, info in graph.functions.items():
        if info.node.name == "__init__":
            continue
        verb = None
        if info.module == "storage/page.py":
            verb = _page_format_verb(info.node)
        elif info.module == "storage/heapfile.py":
            last_only = _fills_last_page_only(info.node)
            if last_only is not None:
                verb = "fill-last" if last_only else "rewrite"
        if verb is not None:
            sites.append(
                MutationSite(
                    info.module, qual, info.lineno, "storage.slots", verb,
                    "writes the page format",
                )
            )


def scan_mutations(source, graph: CallGraph) -> list[MutationSite]:
    """Every mutation site of tracked invariants across the engine."""
    sites: list[MutationSite] = []
    for qual, info in graph.functions.items():
        if info.node.name == "__init__":
            continue
        if info.module in TRACKED_ATTRS or info.module in (
            "db.py", "engine/dml.py", "bees/module.py", "bees/cache.py",
            "bees/collector.py",
        ):
            _FunctionScanner(info.module, info, graph, sites).visit(info.node)
    _scan_datasection(source, graph, sites)
    _scan_storage_primitives(graph, sites)
    _scan_page_slots(graph, sites)
    sites.sort(key=lambda s: (s.module, s.lineno))
    return sites


__all__ = [
    "GRAPH_MODULES",
    "MutationSite",
    "scan_mutations",
]
