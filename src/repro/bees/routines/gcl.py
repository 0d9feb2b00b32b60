"""GCL — the specialized GetColumnsToLongs relation-bee routine.

Generates, per relation, an unrolled tuple-deform function (the paper's
Listing 2): the attribute loop is unrolled, null checks are dropped for
NOT NULL relations, fixed offsets are folded into one ``struct`` unpack of
the fixed prefix, and tuple-bee-resident attributes read straight from the
relation's data sections through the stored beeID ("holes" in the paper's
terminology).  The generated source is kept on the routine for inspection.

The same unrolled body is emitted into two sinks: the *row* sink
(:func:`generate_gcl`, one tuple in, one value list out — what scans and
the DML match scan call) and the *column* sink
(:func:`generate_gcl_columns`, one page of tuples in, values appended
straight onto per-column lists — what the vector tier's chunk decode
calls, so building a columnar chunk never materializes rows).
"""

from __future__ import annotations

import struct

from repro.cost import constants as C
from repro.engine.deform import generic_deform_null_cost
from repro.bees.routines.base import BeeRoutine, compile_routine
from repro.storage.layout import (
    BEEID_HI_BYTE,
    BEEID_LO_BYTE,
    HEADER_INFOMASK_BYTE,
    INFOMASK_HAS_NULLS,
    TupleLayout,
    VARLENA_HEADER_BYTES,
)


def gcl_cost(layout: TupleLayout) -> int:
    """Per-invocation cost of the generated GCL routine for *layout*."""
    cost = C.GCL_PROLOGUE
    cost += C.GCL_ISNULL_ZERO * ((layout.schema.natts + 7) // 8)
    for attr in layout.stored_attrs:
        if attr.attlen == -1:
            cost += C.GCL_VARLENA
        else:
            cost += C.GCL_FIXED
        if attr.nullable:
            cost += C.GCL_NULLABLE
    cost += C.GCL_TUPLE_BEE * len(layout.bee_attrs)
    return cost


def _deform_body(
    layout: TupleLayout, namespace: dict, pad: str
) -> tuple[list[str], list[str]]:
    """The unrolled NULL-free deform of one ``raw`` tuple of *layout*.

    Returns the statements (each indented by *pad*) and the local that
    holds each attribute's value, in schema order; the precompiled
    structs the statements reference are added to *namespace*.
    """
    schema = layout.schema
    hoff = layout.header_size(tuple_has_nulls=False)
    lines: list[str] = []

    value_names: dict[int, str] = {}   # attnum -> generated local name
    if layout.has_beeid:
        lines.append(
            f"{pad}_bv = sections[raw[{BEEID_LO_BYTE}]"
            f" | (raw[{BEEID_HI_BYTE}] << 8)]"
        )
        for name, slot in layout.bee_slot.items():
            attnum = schema.attnum(name)
            value_names[attnum] = f"v{attnum}"
            lines.append(f"{pad}v{attnum} = _bv[{slot}]")

    # Fixed prefix: stored attributes up to the first varlena, decoded with
    # one precompiled struct (pad bytes encode the constant alignment gaps).
    prefix_attrs = []
    for i, attr in enumerate(layout.stored_attrs):
        if attr.attlen == -1:
            break
        prefix_attrs.append((i, attr))
    fmt_parts = ["<"]
    cursor = 0
    prefix_locals = []
    char_fixups = []
    bool_fixups = []
    for i, attr in enumerate(layout.stored_attrs[: len(prefix_attrs)]):
        offset = layout.stored_offset(i)
        if offset > cursor:
            fmt_parts.append(f"{offset - cursor}x")
        local = f"v{attr.attnum}"
        value_names[attr.attnum] = local
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

    # Remaining attributes: running-offset code, constants folded per type.
    rest = layout.stored_attrs[len(prefix_attrs) :]
    if rest:
        lines.append(f"{pad}off = {hoff + cursor}")
        scalar_idx = 0
        for attr in rest:
            local = f"v{attr.attnum}"
            value_names[attr.attnum] = local
            sql_type = attr.sql_type
            align = attr.attalign
            if sql_type.attlen == -1:
                if align > 1:
                    lines.append(f"{pad}off = (off + {align - 1}) & -{align}")
                vl = VARLENA_HEADER_BYTES
                lines.append(f"{pad}ln = _VL.unpack_from(raw, off)[0]")
                lines.append(
                    f"{pad}{local} = raw[off + {vl} : off + {vl} + ln].decode()"
                )
                lines.append(f"{pad}off = off + {vl} + ln")
                namespace.setdefault("_VL", struct.Struct("<i"))
            else:
                if align > 1:
                    lines.append(f"{pad}off = (off + {align - 1}) & -{align}")
                if sql_type.struct_fmt:
                    s_name = f"_S{scalar_idx}"
                    scalar_idx += 1
                    namespace[s_name] = struct.Struct("<" + sql_type.struct_fmt)
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
                lines.append(f"{pad}off = off + {sql_type.attlen}")

    return lines, [value_names[n] for n in range(schema.natts)]


def generate_gcl(layout: TupleLayout, ledger, fn_name: str) -> BeeRoutine:
    """Build the GCL bee routine for *layout*, charging into *ledger*."""
    schema = layout.schema
    cost = gcl_cost(layout)
    namespace: dict = {"_charge": ledger.charge_fn, "_COST": cost}

    lines = [
        f"def {fn_name}(raw, sections):",
        f'    """Specialized deform for relation {schema.name!r} (generated)."""',
        f"    if raw[{HEADER_INFOMASK_BYTE}] & {INFOMASK_HAS_NULLS}:",
        "        return _slow(raw, sections)",
        f"    _charge({fn_name!r}, _COST)",
    ]
    body, values = _deform_body(layout, namespace, "    ")
    lines += body
    lines.append(f"    return [{', '.join(values)}]")
    source = "\n".join(lines) + "\n"

    # Slow path: tuples containing NULLs fall back to the generic decode,
    # charged at the generic slow-path rate (specialize the frequent path).
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
    fn = compile_routine(source, fn_name, namespace)
    return BeeRoutine(
        name=fn_name, fn=fn, cost=cost, source=source, namespace=namespace,
    )


def generate_gcl_columns(layout: TupleLayout, fn_name: str) -> BeeRoutine:
    """Build the GCL *column sink* for *layout*: one page in, columns out.

    ``fn(raws, sections, cols, nulls)`` deforms every tuple of *raws*
    with the same unrolled body :func:`generate_gcl` emits and appends
    attribute ``a``'s value to ``cols[a]`` (and ``False`` to ``nulls[a]``
    for nullable attributes; ``nulls[a]`` is ``None`` otherwise).  A
    NULL-bearing tuple takes the reference-decoder slow path, as the row
    sink's ``_slow`` does.  Nothing is charged here: the chunk decode
    that calls it prices a page at a time (``PAGE_ACCESS``,
    ``VEC_CHUNK_BUILD``, ``VEC_DECODE_PER_VALUE``), whichever decoder
    fills the lists.
    """
    # Imported lazily: the vector package imports the bee maker's world.
    from repro.bees.vector.chunks import reference_column_sink

    schema = layout.schema
    namespace: dict = {"_slow": reference_column_sink(layout)}
    nullable = [attr.attnum for attr in schema.attributes if attr.nullable]
    lines = [
        f"def {fn_name}(raws, sections, cols, nulls):",
        f'    """Specialized columnar deform for relation {schema.name!r}'
        ' (generated)."""',
    ]
    lines += [f"    a{n} = cols[{n}].append" for n in range(schema.natts)]
    lines += [f"    n{n} = nulls[{n}].append" for n in nullable]
    lines += [
        "    for raw in raws:",
        f"        if raw[{HEADER_INFOMASK_BYTE}] & {INFOMASK_HAS_NULLS}:",
        "            _slow((raw,), sections, cols, nulls)",
        "            continue",
    ]
    body, values = _deform_body(layout, namespace, "        ")
    lines += body
    lines += [f"        a{n}({value})" for n, value in enumerate(values)]
    lines += [f"        n{n}(False)" for n in nullable]
    source = "\n".join(lines) + "\n"
    fn = compile_routine(source, fn_name, namespace)
    # Charges nothing itself (cost 0); its code is the row sink's body.
    return BeeRoutine(
        name=fn_name, fn=fn, cost=0, source=source,
        size_bytes=max(64, gcl_cost(layout) * 4), namespace=namespace,
    )
