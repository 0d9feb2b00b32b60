"""SCL — the specialized SetColumnsFromLongs relation-bee routine.

Generates, per relation, an unrolled tuple-construction function replacing
the generic ``heap_fill_tuple``: the constant header is baked in as a bytes
literal, the fixed prefix is packed with one precompiled ``struct``, and
tuple-bee-resident attributes are simply *not written* (their values are
identified by the beeID patched into the header).  Output is byte-identical
to the generic fill.
"""

from __future__ import annotations

import struct

from repro.cost import constants as C
from repro.bees.emit import finish
from repro.bees.routines.base import BeeRoutine
from repro.storage.layout import (
    BEEID_HI_BYTE,
    BEEID_LO_BYTE,
    HEADER_HOFF_BYTE,
    HEADER_INFOMASK_BYTE,
    INFOMASK_HAS_BEEID,
    TupleLayout,
    VARLENA_HEADER_BYTES,
)


def scl_cost(layout: TupleLayout) -> int:
    """Per-invocation cost of the generated SCL routine for *layout*."""
    cost = C.SCL_PROLOGUE
    for attr in layout.stored_attrs:
        if attr.attlen == -1:
            cost += C.SCL_VARLENA
        else:
            cost += C.SCL_FIXED
        if attr.nullable:
            cost += C.SCL_NULLABLE
    cost += C.SCL_TUPLE_BEE * len(layout.bee_attrs)
    return cost


def _char_bytes(value: str, width: int, name: str) -> bytes:
    """Encode a CHAR(n) value, enforcing the same width check (and the
    same error) as the generic ``layout.encode`` path — the specialized
    fill must be behavior-identical, including on bad input."""
    raw = value.encode() if isinstance(value, str) else bytes(value)
    if len(raw) > width:
        raise ValueError(f"value too long for {name} ({len(raw)} > {width})")
    return raw.ljust(width, b" ")


def generate_scl(layout: TupleLayout, ledger, fn_name: str) -> BeeRoutine:
    """Build the SCL bee routine for *layout*, charging into *ledger*."""
    schema = layout.schema
    cost = scl_cost(layout)
    hoff = layout.header_size(tuple_has_nulls=False)

    # Constant no-nulls header: infomask, hoff, (beeID patched at runtime),
    # alignment padding.
    infomask = INFOMASK_HAS_BEEID if layout.has_beeid else 0x00
    header = bytearray(hoff)
    header[HEADER_INFOMASK_BYTE] = infomask
    header[HEADER_HOFF_BYTE] = hoff
    namespace: dict = {
        "_charge": ledger.charge_fn,
        "_COST": cost,
        "_HDR": bytes(header),
        "_char": _char_bytes,
    }

    lines = [
        f'    """Specialized fill for relation {schema.name!r} (generated)."""',
        "    if None in values:",
        "        return _slow(values, bee_id)",
        f"    _charge({fn_name!r}, _COST)",
        "    out = bytearray(_HDR)",
    ]
    if layout.has_beeid:
        lines.append(f"    out[{BEEID_LO_BYTE}] = bee_id & 0xFF")
        lines.append(f"    out[{BEEID_HI_BYTE}] = (bee_id >> 8) & 0xFF")

    # Fixed prefix packed in one shot.
    prefix = []
    for i, attr in enumerate(layout.stored_attrs):
        if attr.attlen == -1:
            break
        prefix.append((i, attr))
    fmt_parts = ["<"]
    cursor = 0
    pack_args = []
    for i, attr in prefix:
        offset = layout.stored_offset(i)
        if offset > cursor:
            fmt_parts.append(f"{offset - cursor}x")
        sql_type = attr.sql_type
        if sql_type.struct_fmt:
            fmt_parts.append(sql_type.struct_fmt)
            if sql_type.struct_fmt == "B":
                pack_args.append(f"int(values[{attr.attnum}])")
            else:
                pack_args.append(f"values[{attr.attnum}]")
        else:
            fmt_parts.append(f"{sql_type.attlen}s")
            pack_args.append(
                f"_char(values[{attr.attnum}], {sql_type.attlen}, "
                f"{attr.name!r})"
            )
        cursor = offset + sql_type.attlen
    if prefix:
        namespace["_PREFIX"] = struct.Struct("".join(fmt_parts))
        lines.append(f"    out += _PREFIX.pack({', '.join(pack_args)})")

    rest = layout.stored_attrs[len(prefix) :]
    if rest:
        namespace["_VL"] = struct.Struct("<i")
        lines.append(f"    off = {cursor}")
        for attr in rest:
            sql_type = attr.sql_type
            align = attr.attalign
            if align > 1:
                # Branch-free alignment: appending zero pad bytes is a
                # no-op, so the fast path stays straight-line code (the
                # property beecheck's lint pass enforces).
                lines.append(f"    pad = ((off + {align - 1}) & -{align}) - off")
                lines.append("    out += b'\\x00' * pad")
                lines.append("    off = off + pad")
            if sql_type.attlen == -1:
                lines.append(f"    b = values[{attr.attnum}].encode()")
                lines.append("    out += _VL.pack(len(b))")
                lines.append("    out += b")
                lines.append(f"    off = off + {VARLENA_HEADER_BYTES} + len(b)")
            elif sql_type.struct_fmt:
                s_name = f"_P{attr.attnum}"
                namespace[s_name] = struct.Struct("<" + sql_type.struct_fmt)
                arg = f"values[{attr.attnum}]"
                if sql_type.struct_fmt == "B":
                    arg = f"int({arg})"
                lines.append(f"    out += {s_name}.pack({arg})")
                lines.append(f"    off = off + {sql_type.attlen}")
            else:
                lines.append(
                    f"    out += _char(values[{attr.attnum}], "
                    f"{sql_type.attlen}, {attr.name!r})"
                )
                lines.append(f"    off = off + {sql_type.attlen}")

    lines.append("    return bytes(out)")

    def _slow(values: list, bee_id: int) -> bytes:
        from repro.engine.deform import generic_fill_cost

        ledger.charge_fn(fn_name, generic_fill_cost(layout))
        isnull = [value is None for value in values]
        return layout.encode(values, isnull, bee_id)

    namespace["_slow"] = _slow
    return finish(fn_name, "values, bee_id=0", lines, namespace, None, cost)
