"""Pass 1 — effect inference over generated bee source.

A bee is safe to run on any morsel worker iff it is *pure modulo
declared sinks*: every effect it has is either (a) a write into an
object the caller handed it for exactly that purpose (the AGG ``states``
list, the fused-agg ``groups`` dict, the GCL column sink's ``cols`` /
``nulls`` lists), or (b) one of the two declared
ambient effects every bee shares — charging the cost ledger through the
captured ``_charge`` and falling back to the generic ``_slow`` path.
Everything else must be provably local: plain-name stores are locals by
Python scoping, and container mutation is only allowed through names the
routine itself bound (fresh objects it owns).

Three properties are proven per routine:

1. **No scope escapes** — no ``global``/``nonlocal``, no imports, no
   attribute stores, no stores to captured namespace names.
2. **Mutation discipline** — every subscript store, augmented
   assignment, delete, and mutating-method call bottoms out in a name
   the routine bound locally or a declared per-family sink parameter.
3. **Frozen captures** — every namespace ("data section") entry is an
   immutable plan constant (scalars, ``struct.Struct``, read-only
   ndarrays, interned :mod:`repro.engine.expr` nodes) or a whitelisted
   callable; a mutable capture (list, dict, writable array) is shared
   state smuggled past the registry.

EVJ routines are C template text, not Python — they get the textual
checks (no static state, no nondeterministic calls) instead of the AST
walk.
"""

from __future__ import annotations

import ast
import re
import struct

from repro.beecheck import lint
from repro.bees.routines.base import proto_entry
from repro.verify.report import Finding

#: Mutating container/ndarray methods (superset of what bees may emit).
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse", "fill",
    "put", "resize", "itemset", "setflags", "move_to_end", "appendleft",
})

#: Calls every Python bee family may make.
_BASE_CALLS = frozenset({
    "_charge", "_slow", "len", "range", "sum", "min", "max", "abs",
    "int", "float", "str", "bool", "list", "tuple", "dict", "set",
    "bytes", "bytearray", "enumerate", "zip", "isinstance",
    # non-mutating methods on locals/params
    "decode", "encode", "rstrip", "lstrip", "strip", "get", "items",
    "unpack_from", "pack",
})


class Family:
    """Per-family purity contract."""

    def __init__(self, sinks: tuple = (), calls: frozenset = frozenset()):
        self.sinks = frozenset(sinks)
        self.calls = _BASE_CALLS | calls


FAMILIES: dict[str, Family] = {
    "gcl": Family(),
    # The column sink appends to the per-column lists its caller hands
    # it (through ``a<n> = cols[n].append`` binders it owns).
    "gcl_cols": Family(sinks=("cols", "nulls")),
    "scl": Family(calls=frozenset({"_char"})),
    "evp": Family(),
    "agg": Family(sinks=("states",), calls=frozenset({"update"})),
    "idx": Family(),
    "pipeline": Family(
        sinks=("groups",),
        calls=frozenset({"append", "update", "make_states"}),
    ),
    "vector": Family(
        sinks=("groups",),
        calls=frozenset({
            "append", "update", "make_states",
            "_obj", "_zip_rows", "_materialize", "_probe", "_div",
            # numpy surface the kernel emitter uses
            "nonzero", "fromiter", "bool_", "evaluate", "astype",
            "zeros", "array", "where", "isin",
        }),
    ),
}

#: Relation-scoped families, whose source names the routine itself.
_NAMED_KINDS = frozenset({"gcl", "gcl_cols", "scl", "idx"})

#: Namespace keys that may bind callables, and what they are.
_CALLABLE_KEYS = re.compile(
    r"^(_charge|_slow|_char|_obj|_zip_rows|_materialize|_probe|_div"
    r"|make_states|fn\d+)$"
)

#: Immutable scalar/container types for captured constants.
_FROZEN_SCALARS = (type(None), bool, int, float, str, bytes, complex)


def _routine_def(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _root(node: ast.expr) -> ast.expr:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


class _PurityScanner(ast.NodeVisitor):
    """Prove properties 1 and 2 over one routine body."""

    def __init__(self, family: Family, params: set[str]) -> None:
        self.family = family
        self.params = params
        self.bound: set[str] = set()   # names the routine itself bound
        self.problems: list[tuple[str, int]] = []

    def _flag(self, what: str, lineno: int) -> None:
        self.problems.append((what, lineno))

    def _root_ok(self, node: ast.expr) -> bool:
        root = _root(node)
        return (
            isinstance(root, ast.Name)
            and (root.id in self.bound or root.id in self.family.sinks)
        )

    # Name binding: every plain-name store is a local (property of
    # Python scoping once global/nonlocal are excluded), so track it.
    def _bind_target(self, target: ast.expr, lineno: int) -> None:
        if isinstance(target, ast.Name):
            self.bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, lineno)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, lineno)
        elif isinstance(target, ast.Attribute):
            self._flag(
                f"attribute store to {ast.unparse(target)}", lineno
            )
        elif isinstance(target, ast.Subscript):
            if not self._root_ok(target):
                self._flag(
                    f"subscript store into non-owned {ast.unparse(target)}",
                    lineno,
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._bind_target(target, node.lineno)
        self.generic_visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._bind_target(node.target, node.lineno)
        if node.value is not None:
            self.generic_visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            if node.target.id not in self.bound:
                # += on a bare name that was never bound locally would
                # be an UnboundLocalError at runtime unless it is a
                # parameter — and mutating a non-sink param (list +=)
                # is an escape.
                if node.target.id not in self.family.sinks:
                    self._flag(
                        f"augmented assignment to non-owned "
                        f"{node.target.id!r}", node.lineno,
                    )
            self.bound.add(node.target.id)
        elif not self._root_ok(node.target):
            self._flag(
                f"augmented assignment into non-owned "
                f"{ast.unparse(node.target)}", node.lineno,
            )
        self.generic_visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                if not self._root_ok(target):
                    self._flag(
                        f"delete on non-owned {ast.unparse(target)}",
                        node.lineno,
                    )

    def visit_For(self, node: ast.For) -> None:
        self._bind_target(node.target, node.lineno)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._bind_target(node.target, 0)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._flag("with-block (context-manager effects)", node.lineno)

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        name = None
        if isinstance(fn, ast.Name):
            name = fn.id
        elif isinstance(fn, ast.Attribute):
            name = fn.attr
            if name in _MUTATORS and not self._root_ok(fn.value):
                self._flag(
                    f"mutating call {ast.unparse(fn)}() on non-owned "
                    "receiver", node.lineno,
                )
        if (
            name is not None
            and name not in self.family.calls
            and name not in self.bound
            and name not in self.params
        ):
            self._flag(
                f"call to {name!r} outside the family whitelist",
                node.lineno,
            )
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._flag(f"global {', '.join(node.names)}", node.lineno)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._flag(f"nonlocal {', '.join(node.names)}", node.lineno)

    def visit_Import(self, node: ast.Import) -> None:
        self._flag("import in bee body", node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._flag("import in bee body", node.lineno)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._flag(f"nested function {node.name!r}", node.lineno)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._flag("lambda in bee body", node.lineno)


def _frozen_capture(key: str, value, entry: str) -> str:
    """``""`` when the namespace entry is frozen, else a description of
    why it is mutable."""
    if key == entry:
        return ""  # the routine's own compiled function
    if isinstance(value, _FROZEN_SCALARS):
        return ""
    if isinstance(value, struct.Struct):
        return ""
    if isinstance(value, re.Pattern):
        return ""
    if isinstance(value, tuple):
        bad = [
            reason for item in value
            if (reason := _frozen_capture(key, item, entry))
        ]
        return bad[0] if bad else ""
    if isinstance(value, frozenset):
        return ""
    if type(value) is object:
        return ""  # identity sentinel (_CS)
    if type(value).__module__ == "repro.engine.expr":
        return ""  # interned plan expression (treated as immutable)
    type_name = type(value).__name__
    if type_name == "module":
        return "" if value.__name__ == "numpy" else (
            f"captured module {value.__name__!r}"
        )
    if type_name == "ndarray":
        return "" if not value.flags.writeable else (
            "captured WRITABLE ndarray"
        )
    if callable(value):
        if _CALLABLE_KEYS.match(key):
            return ""
        return f"captured callable under undeclared name {key!r}"
    if isinstance(value, list):
        if key == "_PAD" and all(item is None for item in value):
            return ""  # null-pad template, only ever read and copied
        return "captured mutable list"
    if isinstance(value, dict):
        return "captured mutable dict"
    return f"captured mutable {type_name}"


#: C-template checks for EVJ routines: function-local static linkage is
#: fine; static *data*, extern state, or nondeterministic calls are not.
_EVJ_STATIC_DATA = re.compile(
    r"\bstatic\b(?!\s+(?:inline\s+)?bool\s+evj_)"
)
_EVJ_EXTERN = re.compile(r"\bextern\b")
_EVJ_ASSIGN_GLOBAL = re.compile(r"^\s*\w+\s*=(?!=)", re.MULTILINE)


def check_evj_text(routine) -> list[Finding]:
    findings = []
    if _EVJ_STATIC_DATA.search(routine.source):
        findings.append(Finding(
            "purity", routine.name,
            "static data in EVJ C template (cross-call state)",
        ))
    if _EVJ_EXTERN.search(routine.source):
        findings.append(Finding(
            "purity", routine.name,
            "extern declaration in EVJ C template",
        ))
    for detail in lint.lint_determinism(routine.source, c_text=True):
        findings.append(Finding("purity", routine.name, detail))
    return findings


def check_routine(kind: str, routine) -> list[Finding]:
    """Prove one routine pure modulo its family's declared sinks."""
    if kind == "evj":
        return check_evj_text(routine)
    family = FAMILIES.get(kind)
    if family is None:
        return [Finding("purity", routine.name, f"unknown family {kind!r}")]
    findings: list[Finding] = []
    try:
        tree = ast.parse(routine.source)
    except SyntaxError as exc:
        return [Finding(
            "purity", routine.name, f"unparsable source: {exc}",
        )]
    # Query bees are proto-bees: the def carries the family prefix.
    entry = routine.name if kind in _NAMED_KINDS else proto_entry(routine.name)
    fn = _routine_def(tree, entry)
    if fn is None:
        return [Finding(
            "purity", routine.name,
            "generated source does not define the routine",
        )]
    params = {arg.arg for arg in fn.args.args + fn.args.kwonlyargs}
    scanner = _PurityScanner(family, params)
    for stmt in fn.body:
        scanner.visit(stmt)
    for what, lineno in scanner.problems:
        findings.append(Finding(
            "purity", routine.name, what, lineno=lineno,
        ))
    for key, value in (routine.namespace or {}).items():
        if key.startswith("__"):
            continue
        reason = _frozen_capture(key, value, entry)
        if reason:
            findings.append(Finding(
                "purity", routine.name, f"{reason} (namespace {key!r})",
            ))
    return findings


def run_purity(corpus) -> tuple[list[Finding], dict[str, int]]:
    """Check every (kind, routine) pair; returns (findings, counts)."""
    findings: list[Finding] = []
    counts: dict[str, int] = {}
    for kind, routine in corpus:
        counts[kind] = counts.get(kind, 0) + 1
        findings.extend(check_routine(kind, routine))
    return findings, counts
