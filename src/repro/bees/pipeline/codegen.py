"""PIPE — fused, batch-at-a-time pipeline-bee code generation.

Where GCL/EVP/EVJ/AGG each specialize one routine and still meet at the
Volcano executor's per-tuple ``ExecProcNode`` ping-pong, a pipeline bee
fuses a whole plan pipeline — deform, qualification, and the sink
(projection, hash-join probe, or aggregate transition) — into **one**
generated function that runs over a page's tuples at a time:

* the relation bee's deform body is inlined and *pruned* to the columns
  the pipeline actually touches (unreferenced trailing attributes are
  never decoded; unreferenced varlenas are length-hopped only),
* the predicate and scalar expressions are emitted EVP-style over the
  hoisted per-tuple locals (``v<attnum>``) instead of row indexing,
* emission appends into a batch vector; the ledger is charged **once
  per batch** from counters, not once per tuple per node.

The generated source is kept on the routine for inspection, golden
snapshots, and the beecheck pipeline grammar lint + translation
validation (``repro.beecheck``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cost import constants as C
from repro.engine import expr as E
from repro.engine.agg import _COUNT_STAR
from repro.bees.emit import (
    column_nullable,
    emit_deform,
    emit_probe,
    finish,
    slow_path,
    spec_columns,
    tuple_of,
)
from repro.bees.routines.agg import AGG_SPECIALIZED_PER_AGG
from repro.bees.routines.base import BeeRoutine
from repro.bees.routines.evp import _Emitter, _emit_direct, _emit_guarded
from repro.storage.layout import (
    HEADER_INFOMASK_BYTE,
    INFOMASK_HAS_NULLS,
    TupleLayout,
)

SINKS = ("rows", "probe", "agg")


@dataclass
class PipelineSpec:
    """Everything a fused pipeline embeds: the plan-invariant bundle.

    A spec describes one fusable pipeline anchored at a sequential scan:
    the relation's physical layout, the combined residual qualification
    (``None`` when unfiltered), and one of three sinks —

    * ``rows``: emit projected rows (``output`` exprs; ``None`` emits the
      full schema row),
    * ``probe``: probe a hash-join table with ``probe_idx`` key columns
      and emit joined rows per ``join_type``,
    * ``agg``: advance aggregate accumulators (``group_exprs`` +
      ``aggs``, :class:`repro.engine.aggregates.AggSpec`).

    With ``ctid`` the anchoring scan carries its trailing tuple-identifier
    column (the match scan of UPDATE/DELETE): a NOT NULL int at column
    index ``natts``, handed to the routine by the tier's input instead of
    being decoded.  Only the ``rows`` sink takes one.
    """

    relation: str
    layout: TupleLayout
    qual: E.Expr | None = None
    output: list | None = None          # rows sink: projection exprs
    sink: str = "rows"
    join_type: str | None = None        # probe sink
    probe_idx: tuple = ()               # probe sink: key column indexes
    build_width: int = 0                # probe sink: build-side row width
    group_exprs: tuple = ()             # agg sink
    aggs: tuple = ()                    # agg sink: AggSpec tuple
    fused_nodes: tuple = field(default=())   # node labels, for EXPLAIN
    ctid: bool = False                  # rows sink: the scan carries ctid

    def __post_init__(self) -> None:
        if self.sink not in SINKS:
            raise ValueError(f"unknown pipeline sink {self.sink!r}")
        if self.ctid and self.sink != "rows":
            raise ValueError("only the rows sink takes a ctid scan")

    @property
    def scan_width(self) -> int:
        """Columns of the anchoring scan's row: the schema's, plus ctid."""
        return self.layout.schema.natts + self.ctid


def _direct_ok(expr: E.Expr, layout: TupleLayout) -> bool:
    """True when the direct (non-3VL) EVP emission variant is sound for
    *expr*: every referenced column is NOT NULL in the schema, and no
    node can introduce ``None`` from non-None inputs (CASE without a hit
    falls through to NULL, functions may return NULL, and a literal NULL
    is ``None`` outright).  Unlike EVP — where the plan author asserts
    ``not_null`` — the pipeline fuser decides this itself, so it must be
    conservative; the guarded variant is always correct, just slower."""
    if isinstance(expr, (E.Case, E.Func)):
        return False
    if isinstance(expr, E.Const) and expr.value is None:
        return False
    if isinstance(expr, E.Col) and column_nullable(layout.schema, expr.index):
        return False
    return all(_direct_ok(child, layout) for child in expr.children())


def _reindent(lines: list, depth: int) -> list:
    """Shift emitter output (one indent level) to loop depth *depth*."""
    pad = "    " * (depth - 1)
    return [pad + line for line in lines]


def _emit_value(expr: E.Expr, em: _Emitter, layout: TupleLayout,
                lines: list, depth: int) -> str:
    """Emit *expr* over the hoisted locals; returns the source fragment
    holding its value (a local, a temp, or an inline expression)."""
    if isinstance(expr, E.Col):
        return f"v{expr.index}"
    if _direct_ok(expr, layout):
        return _emit_direct(expr, em)
    mark = len(em.lines)
    temp = _emit_guarded(expr, em)
    lines.extend(_reindent(em.lines[mark:], depth))
    return temp


def generate_pipeline(
    spec: PipelineSpec, ledger, fn_name: str, code_cache=None
) -> BeeRoutine:
    """Compile *spec* into one fused batch-at-a-time pipeline routine.

    The generated function's signature depends on the sink:

    * ``rows``:  ``fn(batch, sections) -> list[row]``
    * ``probe``: ``fn(batch, sections, table) -> list[row]``
    * ``agg``:   ``fn(batch, sections, groups, make_states) -> None``

    where *batch* is a page's raw tuples — ``(raw, ctid)`` pairs for a
    ctid spec, whose loop binds the ctid straight into the hoisted local
    of column ``natts`` — and *sections* the relation's tuple-bee data
    sections.  It charges the ledger once per batch:
    a batch constant, a per-input-row term, and per-survivor /
    per-candidate / per-emitted-row terms from loop counters.

    The source is a proto-bee: the routine's name is the ``_NAME`` hole
    and every literal a ``_K{n}`` hole bound as a default-argument local
    (the qualification runs per row), so pipelines of one shape over one
    layout share a code object from *code_cache*.
    """
    layout = spec.layout
    natts = layout.schema.natts
    needed = spec_columns(spec, "pipeline")

    em = _Emitter(col_ref="v{}")
    namespace = em.holes.namespace
    namespace["_charge"] = ledger.charge_fn

    params = {
        "rows": "batch, sections",
        "probe": "batch, sections, table",
        "agg": "batch, sections, groups, make_states",
    }[spec.sink]
    lines = [
        f'    """Fused {spec.sink} pipeline over relation '
        f'{spec.relation!r} (generated)."""',
    ]
    if spec.sink != "agg":
        lines.append("    out = []")
        lines.append("    _append = out.append")
    if spec.sink == "probe":
        lines.append("    _np = 0")
        lines.append("    _nc = 0")
        lines.append("    _get = table.get")
    if spec.sink == "agg":
        lines.append("    _np = 0")
        if not spec.group_exprs:
            lines.append("    _st = groups[()]")
    if spec.ctid:
        lines.append(f"    for raw, v{natts} in batch:")
    else:
        lines.append("    for raw in batch:")

    # -- deform: NULL-bearing tuples take the generic slow path ------------
    deform_cost = 0
    if needed:      # a column-free scan (COUNT(*)) inlines no deform at all
        namespace["_slow"] = slow_path(layout, ledger, fn_name)
        deform, hoisted, deform_cost = emit_deform(layout, needed, 3, namespace)
        lines.append(
            f"        if raw[{HEADER_INFOMASK_BYTE}] & {INFOMASK_HAS_NULLS}:"
        )
        lines.append("            _r = _slow(raw, sections)")
        for local, attnum in zip(hoisted, sorted(needed)):
            lines.append(f"            {local} = _r[{attnum}]")
        lines.append("        else:")
        lines += deform

    # -- qualification ------------------------------------------------------
    qual_cost = 0
    if spec.qual is not None:
        qual_cost = spec.qual.evp_cost
        if _direct_ok(spec.qual, layout):
            verdict = _emit_direct(spec.qual, em)
            lines.extend(_reindent(em.lines, 2))
            em.lines = []
            lines.append(f"        if not {verdict}:")
        else:
            mark = len(em.lines)
            temp = _emit_guarded(spec.qual, em)
            lines.extend(_reindent(em.lines[mark:], 2))
            em.lines = []
            lines.append(f"        if {temp} is not True:")
        lines.append("            continue")

    # -- sink ----------------------------------------------------------------
    c1 = C.PIPE_NEXT + deform_cost + qual_cost
    costs = {"_C0": C.PIPE_BATCH_OVERHEAD, "_C1": c1}
    if spec.sink == "rows":
        if spec.output is None:
            items = [f"v{i}" for i in range(spec.scan_width)]
            expr_cost = 0
        else:
            items = []
            expr_cost = 0
            for expr in spec.output:
                items.append(_emit_value(expr, em, layout, lines, 2))
                em.lines = []
                if not isinstance(expr, E.Col):
                    expr_cost += expr.evp_cost
        lines.append(f"        _append([{', '.join(items)}])")
        costs["_C2"] = (
            C.PIPE_EMIT_BASE + C.PIPE_EMIT_PER_COLUMN * len(items) + expr_cost
        )
        charge = "_C0 + _C1 * len(batch) + _C2 * len(out)"
    elif spec.sink == "probe":
        lines += emit_probe(spec, "v{}", namespace)
        costs["_C2"] = C.JOIN_HASH_COMPUTE + C.JOIN_HASH_PROBE
        costs["_C3"] = C.EVJ_COMPARE * len(spec.probe_idx)
        costs["_C4"] = C.JOIN_EMIT
        charge = (
            "_C0 + _C1 * len(batch) + _C2 * _np + _C3 * _nc + _C4 * len(out)"
        )
    else:   # agg
        lines.append("        _np += 1")
        group_cost = 0
        if spec.group_exprs:
            parts = []
            for expr in spec.group_exprs:
                parts.append(_emit_value(expr, em, layout, lines, 2))
                em.lines = []
                group_cost += expr.evp_cost
            lines.append(f"        _k = {tuple_of(parts)}")
            lines.append("        _st = groups.get(_k)")
            lines.append("        if _st is None:")
            lines.append("            _st = make_states()")
            lines.append("            groups[_k] = _st")
        trans_cost = AGG_SPECIALIZED_PER_AGG * len(spec.aggs)
        for i, agg in enumerate(spec.aggs):
            if agg.arg is None:   # count(*): the generic path's sentinel
                namespace["_CS"] = _COUNT_STAR
                lines.append(f"        _st[{i}].update(_CS)")
                continue
            trans_cost += agg.arg.evp_cost
            value = _emit_value(agg.arg, em, layout, lines, 2)
            em.lines = []
            if agg.func == "count" and not _direct_ok(agg.arg, layout):
                lines.append(f"        if {value} is not None:")
                lines.append(f"            _st[{i}].update({value})")
            else:
                lines.append(f"        _st[{i}].update({value})")
        costs["_C2"] = C.AGG_HASH_LOOKUP + group_cost + trans_cost
        charge = "_C0 + _C1 * len(batch) + _C2 * _np"

    namespace.update(costs)
    lines.append(f"    _charge(_NAME, {charge})")
    if spec.sink != "agg":
        lines.append("    return out")
    return finish(
        fn_name, params, lines, namespace, em.holes.consts, c1, code_cache,
        em.holes.binds,
    )
