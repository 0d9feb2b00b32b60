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

import struct
from dataclasses import dataclass, field

from repro.cost import constants as C
from repro.engine import expr as E
from repro.engine.agg import _COUNT_STAR
from repro.engine.deform import generic_deform_null_cost
from repro.bees.routines.agg import AGG_SPECIALIZED_PER_AGG
from repro.bees.routines.base import (
    BeeRoutine,
    compile_routine,
    hole_params,
    proto_entry,
)
from repro.bees.routines.evp import _Emitter, _emit_direct, _emit_guarded
from repro.storage.layout import (
    BEEID_HI_BYTE,
    BEEID_LO_BYTE,
    HEADER_INFOMASK_BYTE,
    INFOMASK_HAS_NULLS,
    TupleLayout,
    VARLENA_HEADER_BYTES,
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


def _referenced(expr: E.Expr, acc: set) -> None:
    """Collect the bound column indexes *expr* reads into *acc*."""
    if isinstance(expr, E.Col):
        acc.add(expr.index)
    for child in expr.children():
        _referenced(child, acc)


def column_nullable(schema, index: int) -> bool:
    """Whether scan column *index* may be NULL: the schema's word for an
    attribute; the column past them is a ctid scan's ctid, never NULL."""
    return index < schema.natts and schema.attributes[index].nullable


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


def _emit_deform(layout: TupleLayout, needed: set, lines: list,
                 namespace: dict, depth: int) -> int:
    """Inline the pruned relation-bee deform for *needed* attnums at
    *depth*; returns its per-tuple cost share."""
    pad = "    " * depth
    schema = layout.schema
    hoff = layout.header_size(tuple_has_nulls=False)
    cost = C.GCL_ISNULL_ZERO * ((schema.natts + 7) // 8)

    if layout.has_beeid:
        needed_bee = [
            (slot, schema.attnum(name))
            for name, slot in layout.bee_slot.items()
            if schema.attnum(name) in needed
        ]
        if needed_bee:
            lines.append(
                f"{pad}_bv = sections[raw[{BEEID_LO_BYTE}]"
                f" | (raw[{BEEID_HI_BYTE}] << 8)]"
            )
            for slot, attnum in needed_bee:
                lines.append(f"{pad}v{attnum} = _bv[{slot}]")
                cost += C.GCL_TUPLE_BEE

    # Fixed prefix (stored attrs before the first varlena): one struct
    # unpack over the needed subset, pad bytes skipping gaps *and* the
    # pruned attributes.
    prefix = []
    for i, attr in enumerate(layout.stored_attrs):
        if attr.attlen == -1:
            break
        prefix.append((i, attr))
    fmt_parts = ["<"]
    cursor = 0
    prefix_end = 0
    prefix_locals = []
    char_fixups = []
    bool_fixups = []
    for i, attr in prefix:
        offset = layout.stored_offset(i)
        prefix_end = offset + attr.sql_type.attlen
        if attr.attnum not in needed:
            continue
        if offset > cursor:
            fmt_parts.append(f"{offset - cursor}x")
        local = f"v{attr.attnum}"
        prefix_locals.append(local)
        sql_type = attr.sql_type
        if sql_type.struct_fmt:
            fmt_parts.append(sql_type.struct_fmt)
            if sql_type.struct_fmt == "B":
                bool_fixups.append(local)
        else:
            fmt_parts.append(f"{sql_type.attlen}s")
            char_fixups.append(local)
        cursor = offset + sql_type.attlen
        cost += C.GCL_FIXED
        if attr.nullable:
            cost += C.GCL_NULLABLE
    if prefix_locals:
        namespace["_PREFIX"] = struct.Struct("".join(fmt_parts))
        targets = ", ".join(prefix_locals)
        trailing = "," if len(prefix_locals) == 1 else ""
        lines.append(
            f"{pad}{targets}{trailing} = _PREFIX.unpack_from(raw, {hoff})"
        )
        for local in char_fixups:
            lines.append(f"{pad}{local} = {local}.decode().rstrip(' ')")
        for local in bool_fixups:
            lines.append(f"{pad}{local} = bool({local})")

    # Post-varlena attrs: running-offset walk, stopping at the last
    # needed attribute; pruned varlenas still hop their length.
    rest = [
        (i, attr)
        for i, attr in enumerate(layout.stored_attrs)
        if i >= len(prefix)
    ]
    needed_rest = [i for i, attr in rest if attr.attnum in needed]
    if needed_rest:
        last = max(needed_rest)
        lines.append(f"{pad}off = {hoff + prefix_end}")
        scalar_idx = 0
        for i, attr in rest:
            if i > last:
                break
            sql_type = attr.sql_type
            align = attr.attalign
            wanted = attr.attnum in needed
            local = f"v{attr.attnum}"
            if align > 1:
                lines.append(f"{pad}off = (off + {align - 1}) & -{align}")
            if sql_type.attlen == -1:
                namespace.setdefault("_VL", struct.Struct("<i"))
                vl = VARLENA_HEADER_BYTES
                lines.append(f"{pad}ln = _VL.unpack_from(raw, off)[0]")
                if wanted:
                    lines.append(
                        f"{pad}{local} = "
                        f"raw[off + {vl} : off + {vl} + ln].decode()"
                    )
                cost += C.GCL_VARLENA
                if wanted and attr.nullable:
                    cost += C.GCL_NULLABLE
                if i < last:
                    lines.append(f"{pad}off = off + {vl} + ln")
            else:
                if wanted:
                    if sql_type.struct_fmt:
                        s_name = f"_S{scalar_idx}"
                        scalar_idx += 1
                        namespace[s_name] = struct.Struct(
                            "<" + sql_type.struct_fmt
                        )
                        lines.append(
                            f"{pad}{local} = {s_name}.unpack_from(raw, off)[0]"
                        )
                        if sql_type.struct_fmt == "B":
                            lines.append(f"{pad}{local} = bool({local})")
                    else:
                        width = sql_type.attlen
                        lines.append(
                            f"{pad}{local} = raw[off : off + {width}]"
                            ".decode().rstrip(' ')"
                        )
                    cost += C.GCL_FIXED
                    if attr.nullable:
                        cost += C.GCL_NULLABLE
                if i < last:
                    lines.append(f"{pad}off = off + {sql_type.attlen}")
    return cost


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
    schema = layout.schema
    natts = schema.natts
    exprs = list(spec.group_exprs) + [
        s.arg for s in spec.aggs if s.arg is not None
    ]
    if spec.qual is not None:
        exprs.append(spec.qual)
    if spec.output is not None:
        exprs.extend(spec.output)
    for expr in exprs:
        if not E.is_bound(expr):
            raise ValueError(
                "pipeline specialization requires bound expressions"
            )

    needed: set = set()
    if spec.qual is not None:
        _referenced(spec.qual, needed)
    if spec.sink == "rows":
        if spec.output is None:
            needed.update(range(natts))
        else:
            for expr in spec.output:
                _referenced(expr, needed)
    elif spec.sink == "probe":
        needed.update(range(natts))   # the full probe row is emitted
    else:
        for expr in spec.group_exprs:
            _referenced(expr, needed)
        for agg in spec.aggs:
            if agg.arg is not None:
                _referenced(agg.arg, needed)
    needed.discard(natts)     # ctid: bound by the batch loop, not decoded

    em = _Emitter(col_ref="v{}")
    namespace = em.namespace
    namespace["_charge"] = ledger.charge_fn

    params = {
        "rows": "batch, sections",
        "probe": "batch, sections, table",
        "agg": "batch, sections, groups, make_states",
    }[spec.sink]
    lines = [
        "",   # the def line: written last, once the holes are known
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
    if needed:
        lines.append(
            f"        if raw[{HEADER_INFOMASK_BYTE}] & {INFOMASK_HAS_NULLS}:"
        )
        lines.append("            _r = _slow(raw, sections)")
        for attnum in sorted(needed):
            lines.append(f"            v{attnum} = _r[{attnum}]")
        lines.append("        else:")
        before = len(lines)
        deform_cost = _emit_deform(layout, needed, lines, namespace, 3)
        if len(lines) == before:
            lines.append("            pass")

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
        lines.append("        _np += 1")
        keys = ", ".join(f"v{i}" for i in spec.probe_idx)
        key_tuple = f"({keys},)" if len(spec.probe_idx) == 1 else f"({keys})"
        nullable_keys = [
            f"v{i}"
            for i in spec.probe_idx
            if layout.schema.attributes[i].nullable
        ]
        if nullable_keys:
            guard = " and ".join(f"{k} is not None" for k in nullable_keys)
            lines.append(
                f"        _cands = _get({key_tuple}, ()) if {guard} else ()"
            )
        else:
            lines.append(f"        _cands = _get({key_tuple}, ())")
        row = "[" + ", ".join(f"v{i}" for i in range(natts)) + "]"
        if spec.join_type == "inner":
            lines.append("        if not _cands:")
            lines.append("            continue")
            lines.append("        _nc += len(_cands)")
            lines.append(f"        row = {row}")
            lines.append("        for _b in _cands:")
            lines.append("            _append(row + _b)")
        elif spec.join_type == "left":
            lines.append(f"        row = {row}")
            lines.append("        if _cands:")
            lines.append("            _nc += len(_cands)")
            lines.append("            for _b in _cands:")
            lines.append("                _append(row + _b)")
            lines.append("        else:")
            lines.append("            _append(row + _PAD)")
            namespace["_PAD"] = [None] * spec.build_width
        elif spec.join_type == "semi":
            lines.append("        if _cands:")
            lines.append("            _nc += len(_cands)")
            lines.append(f"            _append({row})")
        else:   # anti
            lines.append("        if _cands:")
            lines.append("            _nc += len(_cands)")
            lines.append("        else:")
            lines.append(f"            _append({row})")
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
            key = ", ".join(parts)
            key_tuple = f"({key},)" if len(parts) == 1 else f"({key})"
            lines.append(f"        _k = {key_tuple}")
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
    lines[0] = (
        f"def {proto_entry(fn_name)}({params}{hole_params(em.holes)}):"
    )
    source = "\n".join(lines) + "\n"

    # Slow path: NULL-bearing tuples decode generically, charged at the
    # generic slow-path rate (specialize the frequent path, as GCL does).
    def _slow(raw: bytes, sections) -> list:
        bee_values = (
            sections[layout.read_bee_id(raw)] if layout.has_beeid else None
        )
        values, isnull = layout.decode(raw, bee_values)
        ledger.charge_fn(fn_name, generic_deform_null_cost(layout, isnull))
        for attnum, null in enumerate(isnull):
            if null:
                values[attnum] = None
        return values

    namespace["_slow"] = _slow
    fn = compile_routine(source, fn_name, namespace, code_cache)
    return BeeRoutine(
        name=fn_name, fn=fn, cost=c1, source=source, namespace=namespace,
    )
