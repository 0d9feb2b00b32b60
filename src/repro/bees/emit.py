"""The emitter core: what every bee generator decides the same way, once.

The paper's bee maker is one component that turns a template plus
invariant values into code.  The generators (GCL row/column sinks, SCL,
EVP, AGG, IDX, the fused row-loop pipeline, the NumPy vector kernel and
its mergeable partial-agg form, columnar CDL) differ in the *language*
their bodies speak; what they share lives here:

* **the tuple format's unrolled decode** — :func:`emit_deform`, pruned to
  the attributes a caller needs (GCL needs them all), with its cost;
  :func:`decode_row` is the reference decode of one raw tuple and
  :func:`slow_path` the charged closure generated code escapes to for a
  NULL-bearing tuple;
* **the fused-kernel skeleton** over a ``PipelineSpec`` —
  :func:`spec_columns` (bound-expression validation and the columns a
  sink reads) and :func:`emit_probe` (the row loop's hash-probe sink:
  lookup and join-type switch; the vector kernel probes whole key lanes
  through its own runtime helper);
* **the data section and the epilogue** — :class:`Holes` allocates every
  ``_K{n}``/``re{n}``/``in{n}``/``fn{n}``/``_E{n}`` hole, and
  :func:`finish` writes the ``def`` line, compiles and builds the
  :class:`BeeRoutine`: the one ``compile_routine`` caller among the
  generators.

A backend supplies its expression emitter (scalar Python with direct or
guarded 3VL in :mod:`repro.bees.routines.evp`, NumPy value+null lanes in
:mod:`repro.bees.vector.codegen`), its loop or kernel frame and its
charge formula.  Adding a sink is one function per backend plus one
beecheck auditor case.
"""

from __future__ import annotations

import struct

from repro.cost import constants as C
from repro.engine import expr as E
from repro.engine.deform import generic_deform_null_cost
from repro.bees.routines.base import (
    BeeRoutine,
    compile_routine,
    hole_params,
    proto_entry,
)
from repro.storage.layout import (
    BEEID_HI_BYTE,
    BEEID_LO_BYTE,
    TupleLayout,
    VARLENA_HEADER_BYTES,
)


# -- data section and epilogue ------------------------------------------------


class Holes:
    """Allocator of one routine's data-section holes.

    Statement literals become ``_K{n}`` (:meth:`const`, also listed in
    :attr:`consts` so a per-row body can bind them as default-argument
    locals, and with where each came from in :attr:`binds` so a
    re-bound plan can re-patch them); compiled regexes, IN sets and
    functions share that counter under their own prefix (:meth:`bind`);
    interpreter expressions the vector object lane evaluates are
    ``_E{n}`` (:meth:`expr`).
    """

    def __init__(self, namespace: dict) -> None:
        self.namespace = namespace
        self.consts: list[str] = []
        self.binds: list[tuple[str, object, str]] = []
        self._n = 0
        self._n_expr = 0

    def bind(self, prefix: str, value) -> str:
        name = f"{prefix}{self._n}"
        self._n += 1
        self.namespace[name] = value
        return name

    def const(self, node: E.Expr, attr: str = "value") -> str:
        """The hole for literal ``node.attr`` (a ``Const``'s value, a
        ``Between`` bound)."""
        name = self.bind("_K", getattr(node, attr))
        self.consts.append(name)
        self.binds.append((name, node, attr))
        return name

    def expr(self, expr: E.Expr) -> str:
        name = f"_E{self._n_expr}"
        self._n_expr += 1
        self.namespace[name] = expr
        return name


def finish(
    fn_name: str,
    params: str,
    body: list[str],
    namespace: dict,
    holes: list[str] | None,
    cost: int,
    code_cache=None,
    binds: list | None = None,
) -> BeeRoutine:
    """The routine epilogue: ``def`` line, compile, :class:`BeeRoutine`.

    With *holes* (possibly empty) the source is a proto-bee: its ``def``
    carries only the family prefix and binds each hole as a
    default-argument local, so one shape compiles once in *code_cache*.
    ``None`` marks a relation-scoped routine, named in full (its source
    is per relation anyway).  *binds* is the emitter's
    :attr:`Holes.binds`: what :meth:`BeeRoutine.repatch` re-reads.
    """
    if holes is None:
        head = f"def {fn_name}({params}):"
    else:
        head = f"def {proto_entry(fn_name)}({params}{hole_params(holes)}):"
    source = "\n".join([head, *body]) + "\n"
    fn = compile_routine(source, fn_name, namespace, code_cache)
    return BeeRoutine(
        name=fn_name, fn=fn, cost=cost, source=source, namespace=namespace,
        binds=binds or [],
    )


# -- the tuple format ---------------------------------------------------------


def decode_row(layout: TupleLayout, raw: bytes, sections) -> list:
    """Reference-decode one raw tuple into schema-ordered values, NULLs
    as ``None`` (*sections*: the relation's beeID-indexed data sections,
    read only for a tuple-bee layout)."""
    bee_values = sections[layout.read_bee_id(raw)] if layout.has_beeid else None
    return layout.decode(raw, bee_values)[0]


def slow_path(layout: TupleLayout, ledger, fn_name: str):
    """The ``_slow(raw, sections)`` closure of a generated deform: a
    NULL-bearing tuple decodes generically, charged to *fn_name* at the
    generic slow-path rate (specialize the frequent path)."""

    def _slow(raw: bytes, sections) -> list:
        values = decode_row(layout, raw, sections)
        ledger.charge_fn(
            fn_name,
            generic_deform_null_cost(layout, [v is None for v in values]),
        )
        return values

    return _slow


def emit_deform(
    layout: TupleLayout, needed: set, depth: int, namespace: dict
) -> tuple[list[str], list[str], int]:
    """The unrolled NULL-free deform of one ``raw`` tuple, pruned to the
    *needed* attnums, at indent *depth*.

    Returns the statements, the local holding each needed attribute (in
    attnum order) and the per-tuple cost; the precompiled structs the
    statements reference are added to *namespace*.  Unneeded trailing
    attributes are never decoded, unneeded varlenas are length-hopped
    only, and the offset is not advanced past the last needed attribute.
    """
    pad = "    " * depth
    schema = layout.schema
    hoff = layout.header_size(tuple_has_nulls=False)
    lines: list[str] = []
    cost = C.GCL_ISNULL_ZERO * ((schema.natts + 7) // 8)

    bee = [
        (slot, schema.attnum(name))
        for name, slot in layout.bee_slot.items()
        if schema.attnum(name) in needed
    ]
    if bee:
        lines.append(
            f"{pad}_bv = sections[raw[{BEEID_LO_BYTE}]"
            f" | (raw[{BEEID_HI_BYTE}] << 8)]"
        )
        lines += [f"{pad}v{attnum} = _bv[{slot}]" for slot, attnum in bee]
        cost += C.GCL_TUPLE_BEE * len(bee)

    # Fixed prefix (stored attrs before the first varlena): one struct
    # unpack over the needed subset, pad bytes skipping the constant
    # alignment gaps *and* the pruned attributes.
    stored = layout.stored_attrs
    n_prefix = next(
        (i for i, attr in enumerate(stored) if attr.attlen == -1), len(stored)
    )
    fmt_parts = ["<"]
    cursor = prefix_end = 0
    prefix_locals = []
    fixups = {"s": [], "B": []}     # CHAR strips, then BOOL casts
    for i, attr in enumerate(stored[:n_prefix]):
        offset = layout.stored_offset(i)
        sql_type = attr.sql_type
        prefix_end = offset + sql_type.attlen
        if attr.attnum not in needed:
            continue
        if offset > cursor:
            fmt_parts.append(f"{offset - cursor}x")
        local = f"v{attr.attnum}"
        prefix_locals.append(local)
        fmt_parts.append(sql_type.struct_fmt or f"{sql_type.attlen}s")
        if not sql_type.struct_fmt:
            fixups["s"].append(f"{pad}{local} = {local}.decode().rstrip(' ')")
        elif sql_type.struct_fmt == "B":
            fixups["B"].append(f"{pad}{local} = bool({local})")
        cursor = prefix_end
        cost += C.GCL_FIXED + (C.GCL_NULLABLE if attr.nullable else 0)
    if prefix_locals:
        namespace["_PREFIX"] = struct.Struct("".join(fmt_parts))
        trailing = "," if len(prefix_locals) == 1 else ""
        lines.append(
            f"{pad}{', '.join(prefix_locals)}{trailing}"
            f" = _PREFIX.unpack_from(raw, {hoff})"
        )
        lines += fixups["s"] + fixups["B"]

    # Post-varlena attrs: running-offset walk, constants folded per type,
    # stopping at the last needed attribute.
    wanted = [
        i for i in range(n_prefix, len(stored)) if stored[i].attnum in needed
    ]
    if wanted:
        last = wanted[-1]
        lines.append(f"{pad}off = {hoff + prefix_end}")
        scalar_idx = 0
        vl = VARLENA_HEADER_BYTES
        for i in range(n_prefix, last + 1):
            attr = stored[i]
            sql_type = attr.sql_type
            local = f"v{attr.attnum}"
            want = attr.attnum in needed
            if attr.attalign > 1:
                align = attr.attalign
                lines.append(f"{pad}off = (off + {align - 1}) & -{align}")
            if sql_type.attlen == -1:
                namespace.setdefault("_VL", struct.Struct("<i"))
                lines.append(f"{pad}ln = _VL.unpack_from(raw, off)[0]")
                cost += C.GCL_VARLENA
                advance = f"{vl} + ln"
                if want:
                    lines.append(
                        f"{pad}{local} = "
                        f"raw[off + {vl} : off + {vl} + ln].decode()"
                    )
            else:
                advance = str(sql_type.attlen)
                if want and sql_type.struct_fmt:
                    s_name = f"_S{scalar_idx}"
                    scalar_idx += 1
                    namespace[s_name] = struct.Struct("<" + sql_type.struct_fmt)
                    lines.append(
                        f"{pad}{local} = {s_name}.unpack_from(raw, off)[0]"
                    )
                    if sql_type.struct_fmt == "B":
                        lines.append(f"{pad}{local} = bool({local})")
                elif want:
                    lines.append(
                        f"{pad}{local} = raw[off : off + {sql_type.attlen}]"
                        ".decode().rstrip(' ')"
                    )
                if want:
                    cost += C.GCL_FIXED
            if want and attr.nullable:
                cost += C.GCL_NULLABLE
            if i < last:
                lines.append(f"{pad}off = off + {advance}")
    return lines, [f"v{attnum}" for attnum in sorted(needed)], cost


# -- the fused-kernel skeleton ------------------------------------------------


def referenced(expr: E.Expr, acc: set) -> None:
    """Collect the bound column indexes *expr* reads into *acc*."""
    if isinstance(expr, E.Col):
        acc.add(expr.index)
    for child in expr.children():
        referenced(child, acc)


def column_nullable(schema, index: int) -> bool:
    """Whether scan column *index* may be NULL: the schema's word for an
    attribute; the column past them is a ctid scan's ctid, never NULL."""
    return index < schema.natts and schema.attributes[index].nullable


def tuple_of(parts: list[str]) -> str:
    """Source of the tuple of the *parts* fragments (a hash key)."""
    return f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"


def spec_columns(spec, what: str) -> set:
    """Validate that every expression of fused *spec* is bound, and
    return the attnums its qualification and sink read — what a row-loop
    backend must deform (a ctid is bound by the loop, never decoded)."""
    natts = spec.layout.schema.natts
    exprs = [*spec.group_exprs, *(spec.output or ())]
    exprs += [agg.arg for agg in spec.aggs if agg.arg is not None]
    if spec.qual is not None:
        exprs.append(spec.qual)
    needed: set = set()
    for expr in exprs:
        if not E.is_bound(expr):
            raise ValueError(f"{what} specialization requires bound expressions")
        referenced(expr, needed)
    if spec.sink == "probe" or (spec.sink == "rows" and spec.output is None):
        needed.update(range(natts))     # the full row is emitted
    needed.discard(natts)
    return needed


def emit_probe(spec, col: str, namespace: dict) -> list[str]:
    """The row loop's ``probe`` sink over one input row, at loop depth:
    candidate lookup (a NULL key matches nothing) and the join-type
    switch.

    *col* is the backend's fragment template for scan column ``{}``.
    The row list is built from hoisted locals only once it is emitted,
    and ``_np``/``_nc`` count probes and candidates for the batch
    charge.  (The vector kernel probes whole key lanes instead:
    :func:`repro.bees.vector.codegen._probe`.)
    """
    schema = spec.layout.schema
    keys = [col.format(i) for i in spec.probe_idx]
    guard = " and ".join(
        f"{key} is not None"
        for key, i in zip(keys, spec.probe_idx)
        if schema.attributes[i].nullable
    )
    row = "[" + ", ".join(col.format(i) for i in range(schema.natts)) + "]"
    lines = [
        "_np += 1",
        f"_cands = _get({tuple_of(keys)}, ())"
        + (f" if {guard} else ()" if guard else ""),
    ]
    tally, hoist = ["_nc += len(_cands)"], [f"row = {row}"]
    each = ["for _b in _cands:", "    _append(row + _b)"]

    def nest(inner: list[str]) -> list[str]:
        return ["    " + line for line in inner]

    if spec.join_type == "inner":
        lines += ["if not _cands:", "    continue"] + tally + hoist + each
    elif spec.join_type == "left":
        namespace["_PAD"] = [None] * spec.build_width
        lines += hoist + ["if _cands:"] + nest(tally + each)
        lines += ["else:", "    _append(row + _PAD)"]
    elif spec.join_type == "semi":
        lines += ["if _cands:"] + nest(tally + [f"_append({row})"])
    else:   # anti
        lines += ["if _cands:"] + nest(tally) + ["else:", f"    _append({row})"]
    return nest(nest(lines))
