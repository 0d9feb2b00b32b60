"""VEC — columnar NumPy kernel generation for fused pipelines.

The vector tier compiles the *same* :class:`PipelineSpec` bundles the
pipeline fuser matches — Scan→Filter*→Project, join probe, HashAgg
input — but instead of a fused per-row Python loop it emits a **vector
program**: a straight-line kernel over typed column arrays
(:mod:`repro.bees.vector.chunks`) that evaluates the predicate as a
boolean mask, compacts the selected row indexes once, and feeds the
sink from gathered columns.

NULL semantics are carried as parallel mask arrays under the invariant
that every boolean value lane is ``False`` where its null lane is set
(Kleene strict-true selection then needs no separate guard), and every
data lane holds a type-stable fill.  Expressions outside the vectorized
set — LIKE, functions, CASE, IN-lists, and any arithmetic touching
integer/boolean columns (NumPy would wrap or round where Python is
exact) — fall back to an *object lane*: the bound interpreter expression
itself, evaluated over rows materialized from the chunk, so the kernel
never trades correctness for vectorization.  A qualification is split
at its ``AND``: the vectorizable conjuncts become one whole-column mask,
and each object conjunct is evaluated only over the rows it must see,
materialized with only the columns it reads (``None`` in every other
cell).  Strict-true selection of an ``AND`` is the ``AND`` of its
conjuncts' strict-true masks, so the selected rows are the
interpreter's.  Its error contract is kept too: the interpreter's
``AND`` runs left to right and stops at the first ``False``, so a
conjunct that may raise runs in source order over every row on which
no earlier vector or raising conjunct is definitely ``False``; only an
``IN`` list over a bare column or a ``LIKE`` over a bare string column
(under any ``NOT``s), which cannot raise, runs last, over the
survivors of all the others.  A conjunct evaluated on a row the
interpreter never reaches may raise where it would not; the shield
then degrades the statement, as for a vector division.

Emitted rows are converted back to plain Python values (``tolist`` +
NULL re-materialization): downstream operators, the oracle's typed row
tags, and the beecheck translation validator all see exactly what the
interpreter produces.  Aggregation groups and finalizes *inside* the
kernel with insertion-ordered buckets and sequential Python reductions,
bit-identical to ``_PlainState``/``_DistinctState`` folds.

The generated source carries exactly one ledger charge —
``_charge(_NAME, _C0 + _C1 * n + _C2 * _m)`` — whose constants the
beecheck cost audit recomputes from the spec (``n`` input rows, ``_m``
selected rows).  It is a proto-bee: the routine name (``_NAME``) and
every literal (``_K{n}``) live in the namespace, so kernels of one shape
share a compiled code object.  Division runs under ``errstate(raise)``
so a lane the interpreter would fault on raises out of the kernel and
the shield degrades the statement vector→pipeline→generic.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import not_

import numpy as np

from repro.cost import constants as C
from repro.engine import expr as E
from repro.bees.emit import (
    Holes,
    column_nullable,
    finish,
    referenced,
    spec_columns,
    tuple_of,
)
from repro.bees.pipeline.codegen import PipelineSpec
from repro.bees.routines.base import BeeRoutine

#: The vector tier reuses the pipeline's spec as-is: same plan-invariant
#: bundle, different compilation target.
VectorSpec = PipelineSpec

#: Expression nodes with a direct whole-column emission.
_FAST_EXPRS = (
    E.Const, E.Col, E.Cmp, E.Arith, E.And, E.Or, E.Not, E.IsNull, E.Between,
)

_CMP_NUMPY = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: struct formats whose arithmetic must stay on the Python object lane:
#: int64 wraps (Python promotes) and bool ``+`` is logical (Python is 2).
_EXACT_ARITH_FMTS = ("i", "q", "B")


def _conjuncts(expr: E.Expr) -> list:
    """*expr*'s ``AND`` arguments, nested ``AND``s flattened in source
    order (the interpreter reaches them in that order), else ``[expr]``."""
    if isinstance(expr, E.And):
        return [c for arg in expr.args for c in _conjuncts(arg)]
    return [expr]


def _never_raises(expr: E.Expr, schema) -> bool:
    """True for the object conjuncts that cannot raise on any row: an
    ``IN`` list over a bare column, or a ``LIKE`` over a bare string
    column, under any number of ``NOT``s."""
    while isinstance(expr, E.Not):
        expr = expr.arg
    if not isinstance(expr, (E.InList, E.Like)):
        return False
    col = expr.arg
    if not isinstance(col, E.Col):
        return False
    if isinstance(expr, E.InList):
        return True
    return (
        col.index < schema.natts
        and not schema.attributes[col.index].sql_type.struct_fmt
    )


def _split_kinds(qual: E.Expr, schema) -> list:
    """*qual*'s conjuncts, each with the lane it runs in: ``"vector"``
    (part of the whole-column mask), ``"late"`` (cannot raise: runs
    last, over the survivors) or ``"raising"`` (any other object
    conjunct).  A vectorizable conjunct that reads no column stays an
    object one: its emission is a scalar, not a mask."""
    out = []
    for conjunct in _conjuncts(qual):
        acc: set = set()
        referenced(conjunct, acc)
        if acc and _vectorizable(conjunct, schema):
            out.append(("vector", conjunct))
        elif _never_raises(conjunct, schema):
            out.append(("late", conjunct))
        else:
            out.append(("raising", conjunct))
    return out


def _expr_nodes(expr: E.Expr) -> int:
    """Node count of *expr* (the per-lane work unit the charge prices)."""
    return 1 + sum(_expr_nodes(child) for child in expr.children())


def _vectorizable(expr: E.Expr, schema) -> bool:
    """True when *expr* has an exact whole-column emission."""
    if not isinstance(expr, _FAST_EXPRS):
        return False
    if isinstance(expr, E.Arith):
        acc: set = set()
        referenced(expr, acc)
        for index in acc:
            if index >= schema.natts:     # ctid: an int64 lane
                return False
            fmt = schema.attributes[index].sql_type.struct_fmt
            if fmt in _EXACT_ARITH_FMTS:
                return False
    return all(_vectorizable(child, schema) for child in expr.children())


# -- runtime helpers (injected into every kernel's namespace) ----------------


def _obj(values, mask, m: int) -> list:
    """Materialize a value lane as a plain Python list with NULLs."""
    if isinstance(values, np.ndarray):
        vals = values.tolist()
    else:
        vals = [values] * m
    if mask is False or mask is None:
        return vals
    if mask is True:
        return [None] * m
    return [None if f else v for f, v in zip(mask.tolist(), vals)]


def _zip_rows(columns: list) -> list:
    """Transpose output column lists into row lists."""
    return [list(row) for row in zip(*columns)]


def _materialize(cols, nulls, idx, used=None) -> list:
    """Chunk → Python rows at chunk positions *idx* (``None``: all rows):
    the object-lane evaluation domain and the probe's survivors.  With
    *used* (a tuple of column indexes) only those columns are read;
    every other cell of a row is ``None``."""
    m = len(cols[0]) if idx is None else len(idx)
    columns: list = []
    for j, (arr, mask) in enumerate(zip(cols, nulls)):
        if used is not None and j not in used:
            columns.append(repeat(None, m))
            continue
        if idx is not None:
            arr = arr[idx]
            if mask is not None:
                mask = mask[idx]
        vals = arr.tolist()
        if mask is not None:
            vals = [None if f else v for f, v in zip(mask.tolist(), vals)]
        columns.append(vals)
    return _zip_rows(columns)


def _probe(kind, table, keys, key_nulls, cols, nulls, idx, pad=None) -> list:
    """The ``probe`` sink past its key lanes: look up, keep the
    survivors, materialise only them, emit per join type.

    *keys* are the selected rows' key lanes as value lists (``_obj``),
    *key_nulls* their null lanes (``False`` for a NOT NULL key), and
    *idx* maps a selected position to its chunk row (``None`` when every
    row is selected).  Every key is looked up in one C-level pass; a
    NULL key lane matches nothing, whatever *table* holds.  Survivors —
    rows with candidates for inner and semi joins, rows without for anti
    joins, every row for a left join — are gathered at their chunk
    positions and turned into rows; output is in probe order, then
    build order, as ``HashJoin`` emits it.
    """
    cands = list(map(table.get, zip(*keys), repeat(())))
    for mask in key_nulls:
        if mask is not False:
            for i in mask.nonzero()[0].tolist():
                cands[i] = ()
    if kind == "left":
        at = idx
    else:
        alive = cands if kind != "anti" else map(not_, cands)
        at = np.fromiter(compress(count(), alive), np.intp)
        if idx is not None:
            at = idx[at]
    rows = _materialize(cols, nulls, at)
    if kind == "inner":
        return [row + b for row, bs in zip(rows, filter(None, cands))
                for b in bs]
    if kind == "left":
        return [row + b for row, bs in zip(rows, cands) for b in bs or (pad,)]
    return rows


def _div(numer, denom, denom_null):
    """Vectorized true division with the interpreter's error contract.

    NULL-divisor lanes are patched to 1 (their results are masked out);
    a genuine zero or invalid lane raises, so the shield can degrade the
    statement exactly where ``a / b`` would raise ``ZeroDivisionError``
    on the generic path.
    """
    if denom_null is not False and denom_null is not None:
        denom = np.where(denom_null, 1, denom)
    with np.errstate(divide="raise", invalid="raise"):
        return np.true_divide(numer, denom)


# -- emission ----------------------------------------------------------------


class _KernelEmitter:
    """Builds kernel body lines; every composite value gets a ``t{n}``.

    Fragments are *atoms* — parameter subscripts, data-section holes
    (``_K{n}`` literals, ``_E{n}`` interpreter expressions), temps — or
    the literals ``"True"``/``"False"`` for statically-known null lanes,
    so symbolic simplification never needs parentheses.
    """

    def __init__(self, namespace: dict, schema) -> None:
        self.lines: list[str] = []
        self.holes = Holes(namespace)
        self.schema = schema
        self._n_temp = 0
        self._cache: dict = {}
        self.gather = ""       # becomes "[_idx]" after selection
        self._rows: dict = {}  # materialized object-lane row domains

    def temp(self, src: str) -> str:
        name = f"t{self._n_temp}"
        self._n_temp += 1
        self.lines.append(f"    {name} = {src}")
        return name

    # symbolic boolean combiners over atom/literal fragments ---------------

    def not_(self, frag: str) -> str:
        if frag == "True":
            return "False"
        if frag == "False":
            return "True"
        key = ("not", frag, self.gather)
        if key not in self._cache:
            self._cache[key] = self.temp(f"~{frag}")
        return self._cache[key]

    def and_(self, a: str, b: str) -> str:
        if a == "False" or b == "False":
            return "False"
        if a == "True":
            return b
        if b == "True":
            return a
        return self.temp(f"{a} & {b}")

    def or_(self, a: str, b: str) -> str:
        if a == "True" or b == "True":
            return "True"
        if a == "False":
            return b
        if b == "False":
            return a
        return self.temp(f"{a} | {b}")

    # value emission -------------------------------------------------------

    def col(self, index: int) -> tuple[str, str]:
        """``(value_frag, null_frag)`` for column *index*."""
        gather = self.gather
        key = ("col", index, gather)
        if key not in self._cache:
            if gather:
                self._cache[key] = self.temp(f"cols[{index}]{gather}")
            else:
                self._cache[key] = f"cols[{index}]"
        val = self._cache[key]
        if not column_nullable(self.schema, index):
            return val, "False"
        nkey = ("nul", index, gather)
        if nkey not in self._cache:
            if gather:
                self._cache[nkey] = self.temp(f"nulls[{index}]{gather}")
            else:
                self._cache[nkey] = f"nulls[{index}]"
        return val, self._cache[nkey]

    def emit(self, expr: E.Expr) -> tuple[str, str]:
        """Vectorized ``(value, null)`` emission (fast exprs only).

        Invariant: wherever the null fragment is set, a boolean value
        fragment is ``False`` and a data fragment holds the type fill.
        """
        if isinstance(expr, E.Const):
            if expr.value is None:
                return "False", "True"
            return self.holes.const(expr), "False"
        if isinstance(expr, E.Col):
            return self.col(expr.index)
        if isinstance(expr, E.Cmp):
            lv, lu = self.emit(expr.left)
            rv, ru = self.emit(expr.right)
            u = self.or_(lu, ru)
            if u == "True":
                return "False", "True"
            t = self.temp(f"{lv} {_CMP_NUMPY[expr.op]} {rv}")
            if u != "False":
                t = self.and_(t, self.not_(u))
            return t, u
        if isinstance(expr, E.Arith):
            lv, lu = self.emit(expr.left)
            rv, ru = self.emit(expr.right)
            u = self.or_(lu, ru)
            if u == "True":
                return "False", "True"
            if expr.op == "/":
                return self.temp(f"_div({lv}, {rv}, {ru})"), u
            return self.temp(f"{lv} {expr.op} {rv}"), u
        if isinstance(expr, E.And):
            pairs = [self.emit(arg) for arg in expr.args]
            value = pairs[0][0]
            for v, _u in pairs[1:]:
                value = self.and_(value, v)
            if all(u == "False" for _v, u in pairs):
                return value, "False"
            # Kleene: a definitely-false conjunct silences the NULLs.
            definite = "False"
            for v, u in pairs:
                definite = self.or_(definite, self.and_(self.not_(v),
                                                        self.not_(u)))
            unknown = "False"
            for _v, u in pairs:
                unknown = self.or_(unknown, u)
            return value, self.and_(unknown, self.not_(definite))
        if isinstance(expr, E.Or):
            pairs = [self.emit(arg) for arg in expr.args]
            value = pairs[0][0]
            for v, _u in pairs[1:]:
                value = self.or_(value, v)
            if all(u == "False" for _v, u in pairs):
                return value, "False"
            unknown = "False"
            for _v, u in pairs:
                unknown = self.or_(unknown, u)
            return value, self.and_(unknown, self.not_(value))
        if isinstance(expr, E.Not):
            v, u = self.emit(expr.arg)
            return self.and_(self.not_(v), self.not_(u)), u
        if isinstance(expr, E.IsNull):
            _v, u = self.emit(expr.arg)
            value = self.not_(u) if expr.negate else u
            return value, "False"
        if isinstance(expr, E.Between):
            v, u = self.emit(expr.arg)
            if u == "True":
                return "False", "True"
            low = self.holes.const(expr, "low")
            high = self.holes.const(expr, "high")
            t = self.and_(
                self.temp(f"{low} <= {v}"), self.temp(f"{v} <= {high}")
            )
            if u != "False":
                t = self.and_(t, self.not_(u))
            return t, u
        raise ValueError(f"no vector emission for {type(expr).__name__}")

    # object lane ----------------------------------------------------------

    def rows_domain(self) -> str:
        """Python rows for the current domain (full or selected)."""
        key = self.gather
        if key not in self._rows:
            idx = "_idx" if self.gather else "None"
            self._rows[key] = self.temp(f"_materialize(cols, nulls, {idx})")
        return self._rows[key]

    def object_rows(self, expr: E.Expr, at: str, test: str = "") -> str:
        """Comprehension text evaluating *expr* (an ``_E{n}``), then
        *test*, per row at chunk positions *at* (``None``: every row);
        the rows carry only the columns *expr* reads."""
        acc: set = set()
        referenced(expr, acc)
        name = self.holes.expr(expr)
        used = tuple(sorted(acc))
        return (
            f"{name}.evaluate(_r){test} "
            f"for _r in _materialize(cols, nulls, {at}, {used!r})"
        )

    def split(self, qual: E.Expr) -> tuple[str, list]:
        """Emit *qual*'s conjuncts over the whole chunk but those that
        run last: ``(mask, late)``.

        *mask* is the strict-true mask of the vector conjuncts and of
        the object conjuncts that may raise; each of the latter runs in
        source order over the rows on which no earlier one of either
        kind is definitely ``False`` (what the interpreter's ``AND``
        reaches, plus the rows only a late conjunct rejects).  *late*
        are the object conjuncts that cannot raise, for the caller to
        run over *mask*'s survivors.
        """
        kinds = _split_kinds(qual, self.schema)
        mask = reach = "True"
        pending = sum(kind == "raising" for kind, _c in kinds)
        for kind, conjunct in kinds:
            if kind == "vector":
                v, u = self.emit(conjunct)
                mask = self.and_(mask, v)
                if pending:
                    reach = self.and_(reach, self.or_(v, u))
                continue
            if kind == "late":
                continue
            pending -= 1
            if reach == "False":    # no row reaches it
                mask = "False"
                continue
            if reach == "True":
                values = self.temp(f"[{self.object_rows(conjunct, 'None')}]")
                strict = self.temp(
                    f"_np.fromiter((_v is True for _v in {values}), "
                    f"_np.bool_, n)"
                )
                if pending:
                    reach = self.temp(
                        f"_np.fromiter((_v is not False for _v in "
                        f"{values}), _np.bool_, n)"
                    )
            else:
                at = self.temp(f"_np.nonzero({reach})[0]")
                values = self.temp(f"[{self.object_rows(conjunct, at)}]")
                strict = self.temp("_np.zeros(n, _np.bool_)")
                self.lines.append(
                    f"    {strict}[{at}] = [_v is True for _v in {values}]"
                )
                if pending:
                    alive = self.temp("_np.zeros(n, _np.bool_)")
                    self.lines.append(
                        f"    {alive}[{at}] = "
                        f"[_v is not False for _v in {values}]"
                    )
                    reach = self.and_(reach, alive)
            mask = self.and_(mask, strict)
        return mask, [c for kind, c in kinds if kind == "late"]

    def object_values(self, expr: E.Expr) -> str:
        """Value list via the interpreter over the current domain."""
        name = self.holes.expr(expr)
        rows = self.rows_domain()
        return self.temp(f"[{name}.evaluate(_r) for _r in {rows}]")

    def output_list(self, expr: E.Expr) -> str:
        """Emit *expr* as a plain Python value list over the domain."""
        if _vectorizable(expr, self.schema):
            v, u = self.emit(expr)
            return self.temp(f"_obj({v}, {u}, _m)")
        return self.object_values(expr)

    def column_list(self, index: int) -> str:
        """A bare schema column as a Python value list over the domain."""
        v, u = self.col(index)
        return self.temp(f"_obj({v}, {u}, _m)")


def _expr_charge(expr: E.Expr, schema) -> int:
    """Per-selected-row cost of one sink expression."""
    if isinstance(expr, E.Col):
        return 0
    if _vectorizable(expr, schema):
        return C.VEC_KERNEL_PER_VALUE * _expr_nodes(expr)
    return expr.generic_cost


def generate_vector(
    spec: PipelineSpec, ledger, fn_name: str, code_cache=None,
    mergeable: bool = False,
) -> BeeRoutine:
    """Compile *spec* into one columnar kernel routine.

    The generated function's signature depends on the sink:

    * ``rows``:  ``fn(cols, nulls, n) -> list[row]``
    * ``probe``: ``fn(cols, nulls, n, table) -> list[row]``
    * ``agg``:   ``fn(cols, nulls, n) -> list[row]`` (finalized groups)

    where *cols*/*nulls* are the relation chunk's arrays and *n* its row
    count; a ctid spec is handed the chunk widened by its ``tids`` array
    (:meth:`~repro.bees.vector.chunks.Chunk.with_ctid`), so column
    ``natts`` reads like any NOT NULL int column.  Unlike the pipeline
    tier the aggregate sink groups **and** finalizes inside the kernel,
    so every sink returns finished rows and the drivers share one arity
    check.

    Finished groups cannot be merged across morsels, so a pool worker
    asks for the *mergeable* form of the ``agg`` sink instead: the same
    mask, compaction, insertion-ordered bucketing and charge, but the
    epilogue bulk-fills one :class:`~repro.engine.aggregates.AggState`
    per aggregate per bucket and returns ``[(group_key, [AggState])]``
    in first-seen order.  The coordinator folds those with
    ``AggState.merge`` in morsel order and the driver finalizes; only
    the cross-morsel re-association of float sums can differ from
    serial, in the last ulps.  A grand aggregate always yields its
    single ``()`` bucket, even over zero selected rows (``HashAgg``).
    """
    schema = spec.layout.schema
    natts = schema.natts
    spec_columns(spec, "vector")    # validation only: lanes gather lazily
    mergeable = mergeable and spec.sink == "agg"

    namespace = {
        "_np": np,
        "_charge": ledger.charge_fn,
        "_obj": _obj,
        "_zip_rows": _zip_rows,
        "_materialize": _materialize,
        "_probe": _probe,
        "_div": _div,
    }
    em = _KernelEmitter(namespace, schema)
    params = "cols, nulls, n, table" if spec.sink == "probe" else "cols, nulls, n"
    kind = "Partial-agg" if mergeable else f"Vector {spec.sink}"
    header = [
        f'    """{kind} kernel over relation {spec.relation!r} (generated)."""',
    ]

    # -- selection: one mask, one compaction --------------------------------
    # A qual outside the vector set is split at its AND (``split``);
    # it is still priced as one interpreter evaluation per input row.
    qual_cost = 0
    late: list = []
    if spec.qual is None:
        mask = "True"
    elif _vectorizable(spec.qual, schema):
        mask, _u = em.emit(spec.qual)
        qual_cost = C.VEC_KERNEL_PER_VALUE * _expr_nodes(spec.qual)
    else:
        mask, late = em.split(spec.qual)
        qual_cost = spec.qual.generic_cost
    if mask == "True" and not late:
        em.lines.append("    _m = n")
    elif mask == "False":
        nosel = np.array([], dtype=np.intp)
        nosel.setflags(write=False)  # captured state must be frozen
        namespace["_NOSEL"] = nosel
        em.lines.append("    _idx = _NOSEL")
        em.lines.append("    _m = 0")
        em.gather = "[_idx]"
    else:
        if mask == "True":      # a late conjunct first sees every row
            rows = em.object_rows(late.pop(0), "None", " is True")
            mask = em.temp(f"_np.fromiter(({rows}), _np.bool_, n)")
        em.lines.append(f"    _idx = _np.nonzero({mask})[0]")
        for conjunct in late:   # each over the survivors so far
            rows = em.object_rows(conjunct, "_idx", " is True")
            keep = em.temp(f"_np.fromiter(({rows}), _np.bool_, len(_idx))")
            em.lines.append(f"    _idx = _idx[{keep}]")
        em.lines.append("    _m = len(_idx)")
        em.gather = "[_idx]"

    # -- sink ----------------------------------------------------------------
    c1 = C.VEC_SELECT_PER_ROW + qual_cost
    costs = {"_C0": C.VEC_KERNEL_DISPATCH, "_C1": c1}
    if spec.sink == "rows":
        if spec.output is None:
            items = [em.column_list(i) for i in range(spec.scan_width)]
            expr_cost = 0
        else:
            items = [em.output_list(expr) for expr in spec.output]
            expr_cost = sum(
                _expr_charge(expr, schema) for expr in spec.output
            )
        em.lines.append(f"    out = _zip_rows([{', '.join(items)}])")
        costs["_C2"] = (
            C.VEC_EMIT_BASE + C.VEC_EMIT_PER_COLUMN * len(items) + expr_cost
        )
    elif spec.sink == "probe":
        # Key lanes only; the helper materialises the survivors.  _C2
        # still prices every selected row, survivor or not: pricing is
        # kept, and the saving is real-clock only.
        keys = [em.column_list(i) for i in spec.probe_idx]
        key_nulls = [em.col(i)[1] for i in spec.probe_idx]
        args = [
            repr(spec.join_type), "table", f"[{', '.join(keys)}]",
            f"[{', '.join(key_nulls)}]", "cols", "nulls",
            "_idx" if em.gather else "None",
        ]
        if spec.join_type == "left":
            namespace["_PAD"] = [None] * spec.build_width
            args.append("_PAD")
        em.lines.append(f"    out = _probe({', '.join(args)})")
        costs["_C2"] = (
            C.VEC_PROBE_PER_ROW + C.VEC_EMIT_PER_COLUMN * natts
        )
    else:   # agg
        group_lists = [em.output_list(expr) for expr in spec.group_exprs]
        arg_lists = {
            i: em.output_list(agg.arg)
            for i, agg in enumerate(spec.aggs)
            if agg.arg is not None
        }
        if spec.group_exprs:
            key = tuple_of([f"{g}[_i]" for g in group_lists])
            em.lines.append("    _buckets = {}")
            em.lines.append("    for _i in range(_m):")
            em.lines.append(f"        _k = {key}")
            em.lines.append("        _b = _buckets.get(_k)")
            em.lines.append("        if _b is None:")
            em.lines.append("            _buckets[_k] = _b = []")
            em.lines.append("        _b.append(_i)")
        else:
            em.lines.append("    _buckets = {(): list(range(_m))}")
        em.lines.append("    out = []")
        em.lines.append("    for _k, _ix in _buckets.items():")
        epilogue = _emit_partial_states if mergeable else _emit_finished_row
        epilogue(spec, arg_lists, em.lines, namespace)
        costs["_C2"] = (
            C.VEC_GROUP_PER_ROW
            + C.VEC_EMIT_PER_COLUMN
            * (len(spec.group_exprs) + len(arg_lists))
            + sum(_expr_charge(expr, schema) for expr in spec.group_exprs)
            + sum(
                _expr_charge(agg.arg, schema)
                for agg in spec.aggs
                if agg.arg is not None
            )
        )

    namespace.update(costs)
    em.lines.append("    _charge(_NAME, _C0 + _C1 * n + _C2 * _m)")
    em.lines.append("    return out")
    return finish(
        fn_name, params, header + em.lines, namespace, [], c1, code_cache,
        em.holes.binds,
    )


# The two per-bucket epilogues of the ``agg`` sink fold ``_ix``'s selected
# positions with sequential Python reductions in row order — bit-identical
# to the generic accumulators.


def _emit_finished_row(spec, arg_lists: dict, lines: list, namespace) -> None:
    """Finalizing epilogue: one finished output row per bucket."""
    lines.append("        _row = list(_k)")
    for i, agg in enumerate(spec.aggs):
        if agg.arg is None:   # count(*)
            lines.append("        _row.append(len(_ix))")
            continue
        values = f"({arg_lists[i]}[_i] for _i in _ix)"
        if agg.distinct:
            lines.append(
                f"        _vals = {{v for v in {values} if v is not None}}"
            )
        else:
            lines.append(
                f"        _vals = [v for v in {values} if v is not None]"
            )
        result = {
            "count": "len(_vals)",
            "sum": "sum(_vals) if _vals else None",
            "avg": "sum(_vals) / len(_vals) if _vals else None",
            "min": "min(_vals) if _vals else None",
            "max": "max(_vals) if _vals else None",
        }[agg.func]
        lines.append(f"        _row.append({result})")
    lines.append("        out.append(_row)")


def _partial_fill(agg, values: str | None) -> list[str]:
    """Statements bulk-filling state ``_s`` of *agg* from its bucket."""
    if values is None:   # count(*): every bucketed row counts
        return ["        _s.count = len(_ix)"]
    nonnull = f"v for v in ({values}[_i] for _i in _ix) if v is not None"
    if agg.distinct:
        return [f"        _s.seen = {{{nonnull}}}"]
    fill = [f"        _vals = [{nonnull}]", "        _s.count = len(_vals)"]
    if agg.func in ("sum", "avg"):
        fill.append("        _s.total = sum(_vals)")
    elif agg.func in ("min", "max"):
        fill.append(
            f"        _s.extreme = {agg.func}(_vals) if _vals else None"
        )
    return fill


def _emit_partial_states(spec, arg_lists: dict, lines: list, namespace) -> None:
    """Mergeable epilogue: one bulk-filled ``AggState`` per aggregate per
    bucket (``count``/``total``/``extreme``/``seen``)."""
    lines.append("        _states = []")
    for i, agg in enumerate(spec.aggs):
        namespace[f"_mk{i}"] = agg.make_state
        lines.append(f"        _s = _mk{i}()")
        lines += _partial_fill(agg, arg_lists.get(i))
        lines.append("        _states.append(_s)")
    lines.append("        out.append((_k, _states))")
