"""Pass 1 — invariant extraction: what state does each generator embed?

Each bee generator is a function from invariant values (a
``TupleLayout``, a bound expression, aggregate specs, index key
positions, annotated attribute values) to specialized code.  This pass
taints the generator's invariant-bearing parameters with *invariant
classes* and traces the taint — through locals, loops, branches
(implicit flows), comprehensions, and helper calls — to the points
where it enters the generated artifact:

* f-string / ``str.format`` interpolation into emitted source text,
* stores into a routine's ``namespace`` (interned data-section
  constants), and
* stores into tuple-bee data-section slabs,

recording each as an :class:`Embedding` with a source span.  The union
of classes per bee kind is the left column of the invariant-dependency
graph the rules pass checks; the extraction also proves the negative
property that no generator embeds :class:`BeeSettings` flags (settings
swaps must never stale a bee).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

# Mutable-invariant classes, with what each covers.
INVARIANT_CLASSES = {
    "catalog.schema": "RelationSchema identity: attribute names/types/order",
    "layout.offsets": "TupleLayout physical offsets, widths, alignment",
    "layout.annotations": "annotated (tuple-bee) attribute sets and slots",
    "plan.constants": "bound plan state: predicates, agg specs, join shape",
    "datasection.values": "annotated attribute values behind 2-byte beeIDs",
    "settings.flags": "BeeSettings feature flags (must never be embedded)",
    "runtime.relations": "Database._relations runtime registry",
    "storage.heap": "heap contents: rows inserted/deleted/rewritten",
}

# Attribute reads that refine a tainted object's classes: touching the
# tuple-bee topology of a layout makes the emission depend on the
# relation's *annotations*, not just its offsets.
ATTR_REFINEMENTS = {
    "bee_attrs": "layout.annotations",
    "bee_slot": "layout.annotations",
    "has_beeid": "layout.annotations",
}

_ACCUMULATE = frozenset({"append", "extend", "add", "insert", "update"})
_SETTINGS_TAINT = frozenset({"settings.flags"})


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator entry point and its invariant-bearing parameters."""

    kind: str
    module: str
    entry: str
    roots: tuple  # ((param_name, frozenset(classes)), ...)


def _spec(kind: str, module: str, entry: str, **roots) -> GeneratorSpec:
    return GeneratorSpec(
        kind,
        module,
        entry,
        tuple((name, frozenset(classes)) for name, classes in roots.items()),
    )


_LAYOUT = {"catalog.schema", "layout.offsets"}

GENERATORS = (
    _spec("gcl", "bees/routines/gcl.py", "generate_gcl", layout=_LAYOUT),
    _spec("gcl_cols", "bees/routines/gcl.py", "generate_gcl_columns",
          layout=_LAYOUT),
    _spec("scl", "bees/routines/scl.py", "generate_scl", layout=_LAYOUT),
    _spec("evp", "bees/routines/evp.py", "generate_evp",
          expr={"plan.constants"}),
    _spec("evj", "bees/routines/evj.py", "instantiate_evj",
          join_type={"plan.constants"}, n_keys={"plan.constants"}),
    _spec("agg", "bees/routines/agg.py", "generate_agg",
          specs={"plan.constants"}),
    _spec("idx", "bees/routines/idx.py", "generate_idx",
          key_indexes={"catalog.schema"}),
    _spec("pipeline", "bees/pipeline/codegen.py", "generate_pipeline",
          spec={"plan.constants", "catalog.schema", "layout.offsets"}),
    _spec("vector", "bees/vector/codegen.py", "generate_vector",
          spec={"plan.constants", "catalog.schema", "layout.offsets"}),
    _spec("tuple", "bees/datasection.py", "DataSectionStore.get_or_create",
          key={"datasection.values"}),
    _spec("relation-bee", "bees/maker.py", "BeeMaker.make_relation_bee",
          layout=_LAYOUT),
)

#: The emitter core every generator above calls into: in the function
#: table beside the generators' own modules, an entry point of none.
SHARED_MODULES = ("bees/emit.py",)

# Minimum classes each kind must be seen to embed; an analysis run that
# finds less has degraded and is itself reported as a finding.
EXPECTED_EMBEDDINGS = {
    "gcl": frozenset(_LAYOUT),
    "gcl_cols": frozenset(_LAYOUT),
    "scl": frozenset(_LAYOUT),
    "evp": frozenset({"plan.constants"}),
    "evj": frozenset({"plan.constants"}),
    "agg": frozenset({"plan.constants"}),
    "idx": frozenset({"catalog.schema"}),
    "pipeline": frozenset({"plan.constants", "layout.offsets"}),
    "vector": frozenset({"plan.constants", "catalog.schema"}),
    "tuple": frozenset({"datasection.values"}),
    "relation-bee": frozenset({"catalog.schema"}),
}


@dataclass(frozen=True)
class Embedding:
    """One point where tainted invariant state enters a generated bee."""

    module: str
    lineno: int
    via: str  # "fstring" | "format" | "store" | "emit"
    classes: frozenset

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "line": self.lineno,
            "via": self.via,
            "classes": sorted(self.classes),
        }


@dataclass
class KindExtraction:
    """Extraction result for one bee kind."""

    kind: str
    classes: frozenset
    evidence: list

    def to_dict(self, evidence_cap: int = 20) -> dict:
        return {
            "classes": sorted(self.classes),
            "evidence_count": len(self.evidence),
            "evidence": [e.to_dict() for e in self.evidence[:evidence_cap]],
        }


class _Universe:
    """Function table across every generator module and the emitter
    core (cross-module calls like agg's use of evp's ``_emit_direct`` or
    anyone's of ``finish`` resolve by bare name)."""

    def __init__(self, source) -> None:
        self.functions: dict[str, tuple[str, ast.FunctionDef, bool]] = {}
        modules = [spec.module for spec in GENERATORS] + list(SHARED_MODULES)
        for module in dict.fromkeys(modules):
            tree = source.tree(module)
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.functions.setdefault(node.name, (module, node, False))
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            self.functions.setdefault(
                                item.name, (module, item, True)
                            )

    def lookup(self, name: str):
        return self.functions.get(name)


_EMPTY = frozenset()


class _Extractor:
    """Flow-, branch-, and (bare-name) call-sensitive taint evaluator."""

    def __init__(self, universe: _Universe) -> None:
        self.universe = universe
        self.embeddings: list[Embedding] = []
        self._memo: dict = {}
        self._active: set = set()

    # -- function-level ------------------------------------------------------

    def analyze(
        self, module: str, fn: ast.FunctionDef, params: dict
    ) -> frozenset:
        """Run *fn* with *params* taints; returns the return-value taint."""
        key = (module, fn.name, fn.lineno,
               frozenset(params.items()))
        if key in self._memo:
            return self._memo[key]
        if key in self._active:
            # Recursive emitter (e.g. _emit_direct): assume the result
            # carries everything its arguments carry.
            out: frozenset = _EMPTY
            for taint in params.values():
                out |= taint
            return out
        self._active.add(key)
        env = dict(params)
        ret = self._block(module, fn.body, env, _EMPTY)
        self._active.discard(key)
        self._memo[key] = ret
        return ret

    # -- statements ----------------------------------------------------------

    def _block(self, module, stmts, env, ambient) -> frozenset:
        ret: frozenset = _EMPTY
        for stmt in stmts:
            ret |= self._stmt(module, stmt, env, ambient)
        return ret

    def _bind(self, target, taint, env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, env)

    def _stmt(self, module, stmt, env, ambient) -> frozenset:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
                return _EMPTY
            value = self._eval(module, stmt.value, env, ambient) | ambient
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    classes = value | self._eval(
                        module, target.slice, env, ambient
                    )
                    if classes:
                        self.embeddings.append(
                            Embedding(module, stmt.lineno, "store",
                                      frozenset(classes))
                        )
                    base = target.value
                    if isinstance(base, ast.Name):
                        env[base.id] = env.get(base.id, _EMPTY) | classes
                elif isinstance(target, ast.Name):
                    if isinstance(stmt, ast.AugAssign):
                        value |= env.get(target.id, _EMPTY)
                    env[target.id] = value
                    # Assembling the namespace or source artifact from
                    # tainted parts is itself an embedding.
                    if target.id in ("namespace", "source") and value:
                        self.embeddings.append(
                            Embedding(module, stmt.lineno, "store", value)
                        )
                else:
                    self._bind(target, value, env)
            return _EMPTY
        if isinstance(stmt, ast.Expr):
            self._eval(module, stmt.value, env, ambient)
            call = stmt.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in _ACCUMULATE
                and isinstance(call.func.value, ast.Name)
            ):
                args: frozenset = _EMPTY
                for arg in call.args:
                    args |= self._eval(module, arg, env, ambient)
                recv = call.func.value.id
                env[recv] = env.get(recv, _EMPTY) | args | ambient
            return _EMPTY
        if isinstance(stmt, ast.For):
            it = self._eval(module, stmt.iter, env, ambient) | ambient
            self._bind(stmt.target, it, env)
            inner = ambient | it
            # Two passes reach the accumulate-then-use fixpoint.
            self._block(module, stmt.body, env, inner)
            ret = self._block(module, stmt.body, env, inner)
            return ret | self._block(module, stmt.orelse, env, ambient)
        if isinstance(stmt, (ast.If, ast.While)):
            test = self._eval(module, stmt.test, env, ambient)
            inner = ambient | test
            ret = self._block(module, stmt.body, env, inner)
            return ret | self._block(module, stmt.orelse, env, inner)
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return _EMPTY
            return self._eval(module, stmt.value, env, ambient) | ambient
        if isinstance(stmt, ast.Try):
            ret = self._block(module, stmt.body, env, ambient)
            for handler in stmt.handlers:
                ret |= self._block(module, handler.body, env, ambient)
            ret |= self._block(module, stmt.orelse, env, ambient)
            return ret | self._block(module, stmt.finalbody, env, ambient)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                taint = self._eval(module, item.context_expr, env, ambient)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint, env)
            return self._block(module, stmt.body, env, ambient)
        # Raise aborts generation — nothing reaches the artifact; other
        # statements (pass, import, assert, nested defs) carry no flow.
        return _EMPTY

    # -- expressions ---------------------------------------------------------

    def _eval(self, module, node, env, ambient) -> frozenset:
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Name):
            taint = env.get(node.id, _EMPTY)
            if node.id == "settings":
                taint = taint | _SETTINGS_TAINT
            return taint
        if isinstance(node, ast.Attribute):
            base = self._eval(module, node.value, env, ambient)
            if node.attr == "settings":
                base = base | _SETTINGS_TAINT
            if base and node.attr in ATTR_REFINEMENTS:
                base = base | {ATTR_REFINEMENTS[node.attr]}
            return base
        if isinstance(node, ast.Constant):
            return _EMPTY
        if isinstance(node, ast.JoinedStr):
            classes: frozenset = _EMPTY
            for value in node.values:
                classes |= self._eval(module, value, env, ambient)
            classes |= ambient
            if classes:
                self.embeddings.append(
                    Embedding(module, node.lineno, "fstring", classes)
                )
            return classes
        if isinstance(node, ast.FormattedValue):
            taint = self._eval(module, node.value, env, ambient)
            return taint | self._eval(module, node.format_spec, env, ambient)
        if isinstance(node, ast.Call):
            return self._call(module, node, env, ambient)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            inner = dict(env)
            taint: frozenset = _EMPTY
            for comp in node.generators:
                it = self._eval(module, comp.iter, inner, ambient)
                self._bind(comp.target, it | ambient, inner)
                taint |= it
                for cond in comp.ifs:
                    taint |= self._eval(module, cond, inner, ambient)
            if isinstance(node, ast.DictComp):
                taint |= self._eval(module, node.key, inner, ambient)
                taint |= self._eval(module, node.value, inner, ambient)
            else:
                taint |= self._eval(module, node.elt, inner, ambient)
            return taint
        if isinstance(node, ast.Lambda):
            return _EMPTY
        taint = _EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword)):
                value = child.value if isinstance(child, ast.keyword) else child
                taint |= self._eval(module, value, env, ambient)
        return taint

    def _call(self, module, node: ast.Call, env, ambient) -> frozenset:
        recv_taint: frozenset = _EMPTY
        bare = None
        is_attr_call = False
        if isinstance(node.func, ast.Attribute):
            bare = node.func.attr
            is_attr_call = True
            recv_taint = self._eval(module, node.func.value, env, ambient)
        elif isinstance(node.func, ast.Name):
            bare = node.func.id
        else:
            recv_taint = self._eval(module, node.func, env, ambient)

        arg_taints = [self._eval(module, a, env, ambient) for a in node.args]
        kw_taints = {
            kw.arg: self._eval(module, kw.value, env, ambient)
            for kw in node.keywords
        }
        all_args: frozenset = _EMPTY
        for taint in arg_taints:
            all_args |= taint
        for taint in kw_taints.values():
            all_args |= taint

        if is_attr_call and bare == "format":
            classes = recv_taint | all_args | ambient
            if classes:
                self.embeddings.append(
                    Embedding(module, node.lineno, "format", classes)
                )
        if is_attr_call and bare in _ACCUMULATE:
            classes = all_args | ambient
            if classes:
                self.embeddings.append(
                    Embedding(module, node.lineno, "emit", classes)
                )

        target = self.universe.lookup(bare) if bare else None
        if target is not None:
            callee_module, fn, is_method = target
            params: dict[str, frozenset] = {}
            names = [a.arg for a in fn.args.args]
            if is_method and is_attr_call and names and names[0] == "self":
                params[names[0]] = recv_taint
                names = names[1:]
            for name, taint in zip(names, arg_taints):
                params[name] = taint
            for name, taint in kw_taints.items():
                if name is not None:
                    params[name] = taint
            return self.analyze(callee_module, fn, params) | recv_taint
        return recv_taint | all_args


def _entry_node(universe: _Universe, spec: GeneratorSpec):
    name = spec.entry.rsplit(".", 1)[-1]
    target = universe.lookup(name)
    if target is None:
        return None
    return target


def extract_embeddings(source) -> dict[str, KindExtraction]:
    """Run extraction for every generator; one result per bee kind."""
    results: dict[str, KindExtraction] = {}
    for spec in GENERATORS:
        universe = _Universe(source)
        extractor = _Extractor(universe)
        target = _entry_node(universe, spec)
        if target is None:
            results[spec.kind] = KindExtraction(spec.kind, _EMPTY, [])
            continue
        module, fn, is_method = target
        params = {name: classes for name, classes in spec.roots}
        if is_method:
            params.setdefault("self", _EMPTY)
        extractor.analyze(module, fn, params)
        classes: frozenset = _EMPTY
        for emb in extractor.embeddings:
            classes |= emb.classes
        results[spec.kind] = KindExtraction(
            spec.kind, classes, extractor.embeddings
        )
    return results
