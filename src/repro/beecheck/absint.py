"""Abstract interpretation of bee offset arithmetic.

The generated GCL/SCL routines are straight-line offset computations:
``off`` starts at a literal, advances by attribute widths and varlena
lengths, and is rounded up by ``(off + a-1) & -a`` alignment masks.
This pass symbolically executes those updates and proves, against the
:class:`~repro.storage.layout.TupleLayout` the routine was generated
for, that

* every read/write lands exactly where the layout's reference codec
  (``encode``/``decode``) puts that attribute — same base, same
  alignment rounds, same varlena-length terms — which makes each access
  in-bounds by construction (the encoder emits exactly those bytes);
* every fixed-width access offset is provably ``0 mod attalign``;
* every data-section access uses a valid bee slot of the layout, and
  every bee attribute is filled exactly once;
* the precompiled structs in the routine's data section (``_PREFIX``,
  ``_S*``, ``_P*``, ``_VL``, ``_HDR``) encode the layout's formats and
  constant header byte-for-byte.

Symbolic values form a tiny normalizing algebra::

    e ::= ('c', n)                      -- exact integer
        | ('t', base, k, vars)          -- base + k + sum(vars)
    base ::= None | ('align', e, a)     -- e rounded up to a

Varlena lengths enter as fresh variables (``ln0``, ``ln1``, ... in
reading order), so the generated side and the layout-derived reference
side build structurally identical terms iff the arithmetic agrees.
Alignment facts are extracted by :func:`s_mod`: an expression is provably
``0 mod a`` when it is exact, or when it hangs off an ``align`` node
whose factor ``a`` divides the alignment and the added constant.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import struct

from repro.storage.layout import (
    BEEID_HI_BYTE,
    BEEID_LO_BYTE,
    HEADER_HOFF_BYTE,
    HEADER_INFOMASK_BYTE,
    INFOMASK_HAS_BEEID,
    TupleLayout,
    VARLENA_HEADER_BYTES,
)

# -- the symbolic domain -----------------------------------------------------


def s_const(n: int) -> tuple:
    return ("c", n)


def _lift(e: tuple) -> tuple:
    if e[0] == "c":
        return (None, e[1], ())
    return (e[1], e[2], e[3])


def _norm(base, k: int, vars_: tuple) -> tuple:
    vars_ = tuple(sorted(vars_))
    if base is None and not vars_:
        return ("c", k)
    return ("t", base, k, vars_)


def s_add(e: tuple, k: int) -> tuple:
    base, c, vars_ = _lift(e)
    return _norm(base, c + k, vars_)


def s_addvar(e: tuple, var: str) -> tuple:
    base, c, vars_ = _lift(e)
    return _norm(base, c, vars_ + (var,))


def s_align(e: tuple, a: int) -> tuple:
    if a <= 1:
        return e
    if e[0] == "c":
        return ("c", (e[1] + a - 1) & -a)
    base, c, vars_ = _lift(e)
    if not vars_ and base is not None:
        _, _, inner_a = base
        if inner_a % a == 0 and c % a == 0:
            return e  # already provably aligned
    return _norm(("align", e, a), 0, ())


def s_mod(e: tuple, a: int) -> int | None:
    """``e % a`` when provable, else None."""
    if a <= 1:
        return 0
    if e[0] == "c":
        return e[1] % a
    base, c, vars_ = _lift(e)
    if vars_:
        return None
    if base is not None:
        _, _, inner_a = base
        if inner_a % a == 0:
            return c % a
    return None


def s_str(e: tuple) -> str:
    """Render a symbolic offset for findings."""
    if e[0] == "c":
        return str(e[1])
    base, c, vars_ = _lift(e)
    parts = []
    if base is not None:
        parts.append(f"align({s_str(base[1])}, {base[2]})")
    if c or not (parts or vars_):
        parts.append(str(c))
    parts.extend(vars_)
    return " + ".join(parts)


# -- shared helpers ----------------------------------------------------------


def _expected_prefix(layout: TupleLayout) -> tuple[list, str, int]:
    """The fixed prefix the layout dictates: attrs, struct fmt, end cursor."""
    prefix = []
    for i, attr in enumerate(layout.stored_attrs):
        if attr.attlen == -1:
            break
        prefix.append((i, attr))
    fmt_parts = ["<"]
    cursor = 0
    for i, attr in prefix:
        offset = layout.stored_offset(i)
        if offset > cursor:
            fmt_parts.append(f"{offset - cursor}x")
        sql_type = attr.sql_type
        fmt_parts.append(sql_type.struct_fmt or f"{sql_type.attlen}s")
        cursor = offset + sql_type.attlen
    return prefix, "".join(fmt_parts), cursor


def _check_struct(
    namespace: dict | None,
    name: str,
    fmt: str,
    findings: list[str],
) -> None:
    obj = (namespace or {}).get(name)
    if not isinstance(obj, struct.Struct):
        findings.append(f"data section misses struct {name!r}")
    elif obj.format != fmt:
        findings.append(
            f"data-section struct {name} has format {obj.format!r}, "
            f"layout dictates {fmt!r}"
        )


def _body(source: str) -> list[ast.stmt] | None:
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        return None
    body = tree.body[0].body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
    ):
        body = body[1:]
    return list(body)


_VLB = VARLENA_HEADER_BYTES


# -- GCL ---------------------------------------------------------------------

_RE_GCL_BV = re.compile(r"_bv = sections\[raw\[(\d+)\] \| raw\[(\d+)\] << 8\]")
_RE_GCL_BEE = re.compile(r"v(\d+) = _bv\[(\d+)\]")
_RE_GCL_PREFIX = re.compile(
    r"(v\d+(?:, v\d+)*),? = _PREFIX\.unpack_from\(raw, (\d+)\)"
)
_RE_GCL_CHARFIX = re.compile(r"(v\d+) = \1\.decode\(\)\.rstrip\(' '\)")
_RE_GCL_BOOLFIX = re.compile(r"(v\d+) = bool\(\1\)")
_RE_OFF_INIT = re.compile(r"off = (\d+)")
_RE_OFF_ALIGN = re.compile(r"off = off \+ (\d+) & -(\d+)")
_RE_GCL_VLLEN = re.compile(r"ln = _VL\.unpack_from\(raw, off\)\[0\]")
_RE_GCL_VLDATA = re.compile(
    rf"v(\d+) = raw\[off \+ {_VLB}:off \+ {_VLB} \+ ln\]\.decode\(\)"
)
_RE_OFF_VL = re.compile(rf"off = off \+ {_VLB} \+ ln")
_RE_GCL_SCALAR = re.compile(r"v(\d+) = _S(\d+)\.unpack_from\(raw, off\)\[0\]")
_RE_GCL_CHAR = re.compile(
    r"v(\d+) = raw\[off:off \+ (\d+)\]\.decode\(\)\.rstrip\(' '\)"
)
_RE_OFF_ADD = re.compile(r"off = off \+ (\d+)")
_RE_GCL_RETURN = re.compile(r"return \[(v\d+(?:, v\d+)*)\]")


def check_gcl(routine, layout: TupleLayout) -> list[str]:
    """Prove the GCL routine's reads against *layout*."""
    findings: list[str] = []
    body = _body(routine.source)
    if body is None:
        return ["source does not parse into a single function"]
    stmts = [ast.unparse(s) for s in body]

    hoff = layout.header_size(tuple_has_nulls=False)
    prefix, prefix_fmt, prefix_end = _expected_prefix(layout)
    rest = layout.stored_attrs[len(prefix):]

    # -- guard + charge envelope (lint owns the exact shape) --
    idx = 0
    if idx < len(stmts) and stmts[idx].startswith("if "):
        idx += 1
    if idx < len(stmts) and stmts[idx].startswith("_charge("):
        idx += 1

    # -- bee-section reads --
    seen_slots: dict[int, int] = {}
    if layout.has_beeid:
        if idx >= len(stmts) or not (m := _RE_GCL_BV.fullmatch(stmts[idx])):
            findings.append("tuple-bee layout but no data-section load")
        else:
            lo, hi = int(m.group(1)), int(m.group(2))
            if (lo, hi) != (BEEID_LO_BYTE, BEEID_HI_BYTE):
                findings.append(
                    f"beeID read at bytes ({lo}, {hi}), layout stores it at "
                    f"({BEEID_LO_BYTE}, {BEEID_HI_BYTE})"
                )
            idx += 1
        while idx < len(stmts) and (m := _RE_GCL_BEE.fullmatch(stmts[idx])):
            seen_slots[int(m.group(1))] = int(m.group(2))
            idx += 1
        expected_slots = {
            layout.schema.attnum(name): slot
            for name, slot in layout.bee_slot.items()
        }
        if seen_slots != expected_slots:
            findings.append(
                f"bee-slot map {seen_slots} != layout slots {expected_slots}"
            )
    elif idx < len(stmts) and _RE_GCL_BV.fullmatch(stmts[idx]):
        findings.append("data-section load in a layout without tuple bees")

    # -- fixed prefix --
    if prefix:
        if idx >= len(stmts) or not (m := _RE_GCL_PREFIX.fullmatch(stmts[idx])):
            findings.append("layout has a fixed prefix but no _PREFIX unpack")
            return findings
        targets = [t.strip() for t in m.group(1).split(",")]
        base = int(m.group(2))
        idx += 1
        if base != hoff:
            findings.append(
                f"prefix unpack at byte {base}, data area starts at {hoff}"
            )
        expected_targets = [f"v{attr.attnum}" for _, attr in prefix]
        if targets != expected_targets:
            findings.append(
                f"prefix targets {targets} != layout order {expected_targets}"
            )
        _check_struct(routine.namespace, "_PREFIX", prefix_fmt, findings)
        # Field-level alignment: hoff is 8-aligned, so each field is aligned
        # iff its layout offset is.
        for i, attr in prefix:
            if (hoff + layout.stored_offset(i)) % attr.attalign:
                findings.append(
                    f"prefix field {attr.name} at misaligned absolute offset "
                    f"{hoff + layout.stored_offset(i)}"
                )
        # Post-unpack fixups, in emitted order: all CHAR strips first,
        # then all BOOL casts (the generator batches them in two loops).
        fixups = [
            (attr, _RE_GCL_CHARFIX)
            for _, attr in prefix
            if not attr.sql_type.struct_fmt
        ] + [
            (attr, _RE_GCL_BOOLFIX)
            for _, attr in prefix
            if attr.sql_type.struct_fmt == "B"
        ]
        for attr, fixup in fixups:
            if (
                idx < len(stmts)
                and (m := fixup.fullmatch(stmts[idx]))
                and m.group(1) == f"v{attr.attnum}"
            ):
                idx += 1
            else:
                findings.append(
                    f"missing decode fixup for prefix attr {attr.name}"
                )

    # -- remaining attrs: symbolic off walk --
    scalar_idx = 0
    vl_idx = 0
    if rest:
        if idx >= len(stmts) or not (m := _RE_OFF_INIT.fullmatch(stmts[idx])):
            findings.append("missing off initialization for varlena tail")
            return findings
        off = s_const(int(m.group(1)))
        expected_off = s_const(hoff + prefix_end)
        if off != expected_off:
            findings.append(
                f"off starts at {s_str(off)}, layout dictates "
                f"{s_str(expected_off)}"
            )
        idx += 1
        for attr in rest:
            # The offset is dead past the last attribute: no advance there.
            advances = attr is not rest[-1]
            # Reference walk: where the layout puts this attribute.
            expected_off = s_align(expected_off, attr.attalign)
            if attr.attalign > 1:
                if idx < len(stmts) and (
                    m := _RE_OFF_ALIGN.fullmatch(stmts[idx])
                ):
                    c, a = int(m.group(1)), int(m.group(2))
                    if c != a - 1 or a & (a - 1):
                        findings.append(
                            f"malformed alignment round for {attr.name}: "
                            f"off + {c} & -{a}"
                        )
                    if a != attr.attalign:
                        findings.append(
                            f"{attr.name} aligned to {a}, type requires "
                            f"{attr.attalign}"
                        )
                    off = s_align(off, a)
                    idx += 1
                elif s_mod(off, attr.attalign) != 0:
                    findings.append(
                        f"no alignment round before {attr.name} and "
                        f"off = {s_str(off)} is not provably "
                        f"0 mod {attr.attalign}"
                    )
            if off != expected_off:
                findings.append(
                    f"{attr.name} read at off = {s_str(off)}, layout puts it "
                    f"at {s_str(expected_off)}"
                )
                off = expected_off  # resynchronize to localize findings
            proved = s_mod(off, attr.attalign)
            if proved != 0:
                findings.append(
                    f"cannot prove {attr.name} access aligned: off = "
                    f"{s_str(off)} mod {attr.attalign} is "
                    f"{'unknown' if proved is None else proved}"
                )
            sql_type = attr.sql_type
            if sql_type.attlen == -1:
                var = f"ln{vl_idx}"
                vl_idx += 1
                ok = (
                    idx + 1 + advances < len(stmts)
                    and _RE_GCL_VLLEN.fullmatch(stmts[idx])
                    and (m := _RE_GCL_VLDATA.fullmatch(stmts[idx + 1]))
                    and int(m.group(1)) == attr.attnum
                    and (
                        not advances
                        or _RE_OFF_VL.fullmatch(stmts[idx + 2])
                    )
                )
                if not ok:
                    findings.append(
                        f"varlena read sequence for {attr.name} is broken "
                        f"at: {stmts[idx:idx + 3]!r}"
                    )
                    return findings
                idx += 2 + advances
                off = s_addvar(s_add(off, VARLENA_HEADER_BYTES), var)
                expected_off = s_addvar(
                    s_add(expected_off, VARLENA_HEADER_BYTES), var
                )
                _check_struct(routine.namespace, "_VL", "<i", findings)
            else:
                read = stmts[idx] if idx < len(stmts) else ""
                if sql_type.struct_fmt:
                    m = _RE_GCL_SCALAR.fullmatch(read)
                    if not m or int(m.group(1)) != attr.attnum:
                        findings.append(
                            f"expected scalar read of {attr.name}, got "
                            f"{read!r}"
                        )
                        return findings
                    _check_struct(
                        routine.namespace,
                        f"_S{m.group(2)}",
                        "<" + sql_type.struct_fmt,
                        findings,
                    )
                    scalar_idx += 1
                    idx += 1
                    if sql_type.struct_fmt == "B":
                        if idx < len(stmts) and _RE_GCL_BOOLFIX.fullmatch(
                            stmts[idx]
                        ):
                            idx += 1
                        else:
                            findings.append(
                                f"missing bool() fixup for {attr.name}"
                            )
                else:
                    m = _RE_GCL_CHAR.fullmatch(read)
                    if (
                        not m
                        or int(m.group(1)) != attr.attnum
                        or int(m.group(2)) != sql_type.attlen
                    ):
                        findings.append(
                            f"expected CHAR({sql_type.attlen}) read of "
                            f"{attr.name}, got {read!r}"
                        )
                        return findings
                    idx += 1
                adv = stmts[idx] if idx < len(stmts) else ""
                m = _RE_OFF_ADD.fullmatch(adv)
                if advances and m and int(m.group(1)) == sql_type.attlen:
                    idx += 1
                elif advances:
                    findings.append(
                        f"off must advance by {sql_type.attlen} after "
                        f"{attr.name}, got {adv!r}"
                    )
                off = s_add(off, sql_type.attlen)
                expected_off = s_add(expected_off, sql_type.attlen)
        if off != expected_off:
            findings.append(
                f"final off = {s_str(off)} diverges from layout end "
                f"{s_str(expected_off)}"
            )

    # -- every attribute produced exactly once, returned in schema order --
    ret = stmts[idx] if idx < len(stmts) else ""
    m = _RE_GCL_RETURN.fullmatch(ret)
    if not m:
        findings.append(f"expected the result-list return, got {ret!r}")
    else:
        got = [t.strip() for t in m.group(1).split(",")]
        expected = [f"v{n}" for n in range(layout.schema.natts)]
        if got != expected:
            findings.append(
                f"return order {got} != schema order {expected}"
            )
        if idx != len(stmts) - 1:
            findings.append("statements after the result return")
    return findings


def check_gcl_cols(routine, layout: TupleLayout) -> list[str]:
    """Prove the GCL column sink's reads against *layout*: its deform
    statements through :func:`check_gcl` (on the row sink the lint
    rewrites it into), its null-flag lists against the schema."""
    from repro.beecheck.lint import gcl_cols_as_row_source

    row_source, nullable, _envelope = gcl_cols_as_row_source(
        routine.source, routine.name
    )
    if row_source is None:
        return ["column sink does not rewrite into a row sink"]
    findings = check_gcl(
        dataclasses.replace(routine, source=row_source), layout
    )
    expected = [a.attnum for a in layout.schema.attributes if a.nullable]
    if nullable != expected:
        findings.append(
            f"null flags kept for attributes {nullable}, schema has "
            f"nullable attributes {expected}"
        )
    return findings


# -- SCL ---------------------------------------------------------------------

_RE_SCL_HDR = re.compile(r"out = bytearray\(_HDR\)")
_RE_SCL_BEELO = re.compile(r"out\[(\d+)\] = bee_id & 255")
_RE_SCL_BEEHI = re.compile(r"out\[(\d+)\] = bee_id >> 8 & 255")
_RE_SCL_PREFIX = re.compile(r"out \+= _PREFIX\.pack\((.*)\)")
_RE_SCL_PAD = re.compile(
    r"pad = \(off \+ (\d+) & -(\d+)\) - off\n"
    r"out \+= b'\\x00' \* pad\n"
    r"off = off \+ pad"
)
_RE_SCL_VL = re.compile(
    rf"b = values\[(\d+)\]\.encode\(\)\n"
    rf"out \+= _VL\.pack\(len\(b\)\)\n"
    rf"out \+= b\n"
    rf"off = off \+ {_VLB} \+ len\(b\)"
)
_RE_SCL_PACK = re.compile(r"out \+= _P(\d+)\.pack\((.*)\)")
_RE_SCL_CHAR = re.compile(r"out \+= _char\(values\[(\d+)\], (\d+), '([^']*)'\)")


def _expected_pack_arg(attr) -> str:
    sql_type = attr.sql_type
    if sql_type.struct_fmt == "B":
        return f"int(values[{attr.attnum}])"
    if sql_type.struct_fmt:
        return f"values[{attr.attnum}]"
    return f"_char(values[{attr.attnum}], {sql_type.attlen}, '{attr.name}')"


def check_scl(routine, layout: TupleLayout) -> list[str]:
    """Prove the SCL routine's writes against *layout*."""
    findings: list[str] = []
    body = _body(routine.source)
    if body is None:
        return ["source does not parse into a single function"]
    stmts = [ast.unparse(s) for s in body]

    hoff = layout.header_size(tuple_has_nulls=False)
    prefix, prefix_fmt, prefix_end = _expected_prefix(layout)
    rest = layout.stored_attrs[len(prefix):]

    # Constant header in the data section, byte for byte.
    hdr = (routine.namespace or {}).get("_HDR")
    expected_mask = INFOMASK_HAS_BEEID if layout.has_beeid else 0
    if not isinstance(hdr, bytes):
        findings.append("data section misses the constant header _HDR")
    else:
        if len(hdr) != hoff:
            findings.append(
                f"_HDR is {len(hdr)} bytes, layout header is {hoff}"
            )
        elif (
            hdr[HEADER_INFOMASK_BYTE] != expected_mask
            or hdr[HEADER_HOFF_BYTE] != hoff
            or any(
                b != 0
                for i, b in enumerate(hdr)
                if i not in (HEADER_INFOMASK_BYTE, HEADER_HOFF_BYTE)
            )
        ):
            findings.append(
                f"_HDR bytes {hdr!r} disagree with layout header "
                f"(infomask={expected_mask:#04x}, hoff={hoff})"
            )

    idx = 0
    if idx < len(stmts) and stmts[idx].startswith("if "):
        idx += 1
    if idx < len(stmts) and stmts[idx].startswith("_charge("):
        idx += 1
    if idx < len(stmts) and _RE_SCL_HDR.fullmatch(stmts[idx]):
        idx += 1
    else:
        findings.append("fill must start from the constant header")

    # beeID patch iff the layout stores one.
    patched = (
        idx + 1 < len(stmts)
        and (lo := _RE_SCL_BEELO.fullmatch(stmts[idx]))
        and (hi := _RE_SCL_BEEHI.fullmatch(stmts[idx + 1]))
    )
    if layout.has_beeid:
        if not patched:
            findings.append("tuple-bee layout but bee_id is never stored")
        else:
            if (int(lo.group(1)), int(hi.group(1))) != (
                BEEID_LO_BYTE,
                BEEID_HI_BYTE,
            ):
                findings.append(
                    f"bee_id written at bytes ({lo.group(1)}, {hi.group(1)}), "
                    f"layout stores it at ({BEEID_LO_BYTE}, {BEEID_HI_BYTE})"
                )
            idx += 2
    elif patched:
        findings.append("bee_id stored in a layout without tuple bees")

    if prefix:
        m = _RE_SCL_PREFIX.fullmatch(stmts[idx]) if idx < len(stmts) else None
        if not m:
            findings.append("layout has a fixed prefix but no _PREFIX pack")
            return findings
        idx += 1
        got_args = [a.strip() for a in _split_args(m.group(1))]
        expected_args = [_expected_pack_arg(attr) for _, attr in prefix]
        if got_args != expected_args:
            findings.append(
                f"prefix pack args {got_args} != layout order {expected_args}"
            )
        _check_struct(routine.namespace, "_PREFIX", prefix_fmt, findings)

    if rest:
        if idx >= len(stmts) or not (m := _RE_OFF_INIT.fullmatch(stmts[idx])):
            findings.append("missing off initialization for varlena tail")
            return findings
        off = s_const(int(m.group(1)))
        expected_off = s_const(prefix_end)
        if off != expected_off:
            findings.append(
                f"off starts at {s_str(off)}, prefix ends at "
                f"{s_str(expected_off)}"
            )
        idx += 1
        vl_idx = 0
        for attr in rest:
            expected_off = s_align(expected_off, attr.attalign)
            if attr.attalign > 1:
                pad = "\n".join(stmts[idx:idx + 3])
                m = _RE_SCL_PAD.fullmatch(pad)
                if m:
                    c, a = int(m.group(1)), int(m.group(2))
                    if c != a - 1 or a & (a - 1):
                        findings.append(
                            f"malformed pad round for {attr.name}: "
                            f"off + {c} & -{a}"
                        )
                    if a != attr.attalign:
                        findings.append(
                            f"{attr.name} padded to {a}, type requires "
                            f"{attr.attalign}"
                        )
                    off = s_align(off, a)
                    idx += 3
                elif s_mod(off, attr.attalign) != 0:
                    findings.append(
                        f"no pad before {attr.name} and off = {s_str(off)} "
                        f"is not provably 0 mod {attr.attalign}"
                    )
            if off != expected_off:
                findings.append(
                    f"{attr.name} written at off = {s_str(off)}, layout puts "
                    f"it at {s_str(expected_off)}"
                )
                off = expected_off
            proved = s_mod(off, attr.attalign)
            if proved != 0:
                findings.append(
                    f"cannot prove {attr.name} write aligned: off = "
                    f"{s_str(off)} mod {attr.attalign} is "
                    f"{'unknown' if proved is None else proved}"
                )
            sql_type = attr.sql_type
            if sql_type.attlen == -1:
                var = f"ln{vl_idx}"
                vl_idx += 1
                block = "\n".join(stmts[idx:idx + 4])
                m = _RE_SCL_VL.fullmatch(block)
                if not m or int(m.group(1)) != attr.attnum:
                    findings.append(
                        f"varlena write sequence for {attr.name} is broken "
                        f"at: {stmts[idx:idx + 4]!r}"
                    )
                    return findings
                idx += 4
                off = s_addvar(s_add(off, VARLENA_HEADER_BYTES), var)
                expected_off = s_addvar(
                    s_add(expected_off, VARLENA_HEADER_BYTES), var
                )
                _check_struct(routine.namespace, "_VL", "<i", findings)
            else:
                write = stmts[idx] if idx < len(stmts) else ""
                if sql_type.struct_fmt:
                    m = _RE_SCL_PACK.fullmatch(write)
                    if (
                        not m
                        or int(m.group(1)) != attr.attnum
                        or m.group(2).strip() != _expected_pack_arg(attr)
                    ):
                        findings.append(
                            f"expected scalar pack of {attr.name}, got "
                            f"{write!r}"
                        )
                        return findings
                    _check_struct(
                        routine.namespace,
                        f"_P{attr.attnum}",
                        "<" + sql_type.struct_fmt,
                        findings,
                    )
                else:
                    m = _RE_SCL_CHAR.fullmatch(write)
                    if (
                        not m
                        or int(m.group(1)) != attr.attnum
                        or int(m.group(2)) != sql_type.attlen
                        or m.group(3) != attr.name
                    ):
                        findings.append(
                            f"expected CHAR({sql_type.attlen}) write of "
                            f"{attr.name}, got {write!r}"
                        )
                        return findings
                idx += 1
                adv = stmts[idx] if idx < len(stmts) else ""
                m = _RE_OFF_ADD.fullmatch(adv)
                if not m or int(m.group(1)) != sql_type.attlen:
                    findings.append(
                        f"off must advance by {sql_type.attlen} after "
                        f"{attr.name}, got {adv!r}"
                    )
                else:
                    idx += 1
                off = s_add(off, sql_type.attlen)
                expected_off = s_add(expected_off, sql_type.attlen)
        if off != expected_off:
            findings.append(
                f"final off = {s_str(off)} diverges from layout end "
                f"{s_str(expected_off)}"
            )

    ret = stmts[idx] if idx < len(stmts) else ""
    if ret != "return bytes(out)":
        findings.append(f"expected 'return bytes(out)', got {ret!r}")
    elif idx != len(stmts) - 1:
        findings.append("statements after the result return")
    return findings


def _split_args(text: str) -> list[str]:
    """Split a rendered argument list at top-level commas."""
    args, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(text[start:i])
            start = i + 1
    if text[start:].strip():
        args.append(text[start:])
    return args


# -- EVP ---------------------------------------------------------------------


def _collect_cols(expr) -> set[int]:
    from repro.engine import expr as E

    cols: set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, E.Col):
            cols.add(node.index)
        stack.extend(node.children())
    return cols


def check_evp(routine, expr) -> list[str]:
    """Prove the EVP routine only loads columns the predicate references."""
    findings: list[str] = []
    try:
        tree = ast.parse(routine.source)
    except SyntaxError:
        return ["source does not parse"]
    used: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "row"
            and isinstance(node.slice, ast.Constant)
        ):
            used.add(node.slice.value)
    referenced = _collect_cols(expr)
    if used != referenced:
        findings.append(
            f"row loads {sorted(used)} != predicate columns "
            f"{sorted(referenced)}"
        )
    return findings


# -- EVJ ---------------------------------------------------------------------

_RE_EVJ_HEADER = re.compile(
    r"/\* EVJ template: (\w+) join, (\d+) key\(s\) — dispatch folded,\n"
    r"   key comparison inlined \((\d+) instructions per candidate"
    r" pair\)\. \*/"
)
_RE_EVJ_COMPARE = re.compile(
    r"if \(outer\[(\d+)\] != inner\[(\d+)\]\) return false;"
)
_RE_EVJ_FINAL = re.compile(r"return (true|false);")


def check_evj(routine) -> list[str]:
    """Prove the cloned template agrees with the routine's join identity.

    The EVJ source is C text; the abstract domain here is the key index
    sequence — every key position 0..n_keys-1 must be compared exactly
    once, in order, against the *same* position on the other side, and
    the fall-through return must encode the join type (anti joins
    suppress emission on match).
    """
    findings: list[str] = []
    header = _RE_EVJ_HEADER.search(routine.source)
    if header is None:
        return ["EVJ header comment missing or malformed"]
    if header.group(1) != routine.join_type:
        findings.append(
            f"header says {header.group(1)!r} join, routine is "
            f"{routine.join_type!r}"
        )
    if int(header.group(2)) != routine.n_keys:
        findings.append(
            f"header says {header.group(2)} key(s), routine has "
            f"{routine.n_keys}"
        )
    if int(header.group(3)) != routine.cost_per_compare:
        findings.append(
            f"header says {header.group(3)} instructions, routine "
            f"charges {routine.cost_per_compare}"
        )

    compares = [
        (int(a), int(b))
        for a, b in _RE_EVJ_COMPARE.findall(routine.source)
    ]
    expected = [(k, k) for k in range(routine.n_keys)]
    if compares != expected:
        findings.append(
            f"key comparisons {compares} must be exactly {expected} "
            f"(each key once, in order, same position both sides)"
        )

    finals = _RE_EVJ_FINAL.findall(routine.source)
    expected_final = "false" if routine.join_type == "anti" else "true"
    if not finals or finals[-1] != expected_final:
        findings.append(
            f"fall-through must 'return {expected_final};' for a "
            f"{routine.join_type} join, got {finals[-1] if finals else None!r}"
        )
    return findings


# -- AGG ---------------------------------------------------------------------


def check_agg(routine, specs) -> list[str]:
    """Prove accumulator coverage and argument-column containment.

    Every state slot 0..len(specs)-1 must be updated by exactly one
    ``states[i].update(...)`` site (a dropped or doubled aggregate is a
    wrong result, not a crash), and the routine may only load row columns
    that some aggregate argument actually references.
    """
    findings: list[str] = []
    try:
        tree = ast.parse(routine.source)
    except SyntaxError:
        return ["source does not parse"]

    updates: dict[int, int] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and isinstance(node.func.value, ast.Subscript)
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "states"
            and isinstance(node.func.value.slice, ast.Constant)
        ):
            index = node.func.value.slice.value
            updates[index] = updates.get(index, 0) + 1
    expected_indexes = set(range(len(specs)))
    if set(updates) != expected_indexes:
        findings.append(
            f"updated state slots {sorted(updates)} != aggregate slots "
            f"{sorted(expected_indexes)}"
        )
    doubled = sorted(i for i, n in updates.items() if n != 1)
    if doubled:
        findings.append(
            f"state slots {doubled} updated more than once per row"
        )

    used: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "row"
            and isinstance(node.slice, ast.Constant)
        ):
            used.add(node.slice.value)
    referenced: set[int] = set()
    for spec in specs:
        if spec.arg is not None:
            referenced |= _collect_cols(spec.arg)
    if not used <= referenced:
        findings.append(
            f"row loads {sorted(used - referenced)} reference columns no "
            f"aggregate argument uses (arguments touch "
            f"{sorted(referenced)})"
        )
    return findings


# -- IDX ---------------------------------------------------------------------


def check_idx(routine, key_indexes) -> list[str]:
    """Prove the returned tuple is exactly the index's key columns, in
    key order."""
    findings: list[str] = []
    try:
        tree = ast.parse(routine.source)
    except SyntaxError:
        return ["source does not parse"]
    returns = [
        node for node in ast.walk(tree) if isinstance(node, ast.Return)
    ]
    if len(returns) != 1 or not isinstance(returns[0].value, ast.Tuple):
        return ["IDX must have exactly one tuple return"]
    emitted: list = []
    for element in returns[0].value.elts:
        if (
            isinstance(element, ast.Subscript)
            and isinstance(element.value, ast.Name)
            and element.value.id == "values"
            and isinstance(element.slice, ast.Constant)
        ):
            emitted.append(element.slice.value)
        else:
            emitted.append(ast.unparse(element))
    if emitted != list(key_indexes):
        findings.append(
            f"returned key columns {emitted} != index key columns "
            f"{list(key_indexes)}"
        )
    return findings


# -- PIPE --------------------------------------------------------------------

_RE_PIPE_SLOW = re.compile(r"v(\d+) = _r\[(\d+)\]")
_RE_PIPE_VLOCAL = re.compile(r"v(\d+)")


def check_pipeline(routine, spec) -> list[str]:
    """Prove definite assignment over the fused loop's hoisted locals.

    The pruned deform assigns ``v<attnum>`` locals on the fast path and
    copies the same attnums out of the generic slow path; every local the
    qualification or sink then *reads* must be assigned on **both**
    branches of the NULL guard — a pruning bug (an attr decoded on one
    branch only, or referenced but never decoded) is a data-dependent
    ``NameError`` or, worse, a stale value carried over from the previous
    tuple.  Bee-resident attrs must come from valid data-section slots of
    the layout the spec embeds.
    """
    layout = spec.layout
    findings: list[str] = []
    try:
        tree = ast.parse(routine.source)
    except SyntaxError:
        return ["source does not parse"]
    fn = tree.body[0]
    natts = layout.schema.natts
    # A ctid spec's loop binds the tuple identifier itself, as the
    # hoisted local of column natts: assigned on both deform branches.
    target = f"(raw, v{natts})" if spec.ctid else "raw"
    loops = [
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.For) and ast.unparse(node.target) == target
    ]
    if len(loops) != 1:
        return ["pipeline must have exactly one batch loop"]
    loop = loops[0]
    loop_bound = {natts} if spec.ctid else set()

    body = list(loop.body)
    slow_assigned: set[int] = set()
    fast_assigned: set[int] = set()
    guarded = (
        body
        and isinstance(body[0], ast.If)
        and ast.unparse(body[0].test).startswith("raw[")
    )
    if guarded:
        guard = body.pop(0)
        for stmt in guard.body:
            m = _RE_PIPE_SLOW.fullmatch(ast.unparse(stmt))
            if m:
                if m.group(1) != m.group(2):
                    findings.append(
                        f"slow path copies _r[{m.group(2)}] into "
                        f"v{m.group(1)} — attnum mismatch"
                    )
                slow_assigned.add(int(m.group(1)))
        for stmt in guard.orelse:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Store
                ):
                    m = _RE_PIPE_VLOCAL.fullmatch(node.id)
                    if m:
                        fast_assigned.add(int(m.group(1)))
        if slow_assigned != fast_assigned:
            findings.append(
                f"slow path materializes attrs {sorted(slow_assigned)} but "
                f"the fast deform decodes {sorted(fast_assigned)}"
            )

    out_of_range = sorted(
        attnum
        for attnum in slow_assigned | fast_assigned
        if attnum >= layout.schema.natts
    )
    if out_of_range:
        findings.append(
            f"deform assigns v-locals {out_of_range} beyond the layout's "
            f"{layout.schema.natts} attributes"
        )

    # Every v-local *read* after the guard must have been assigned.
    read: set[int] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                m = _RE_PIPE_VLOCAL.fullmatch(node.id)
                if m:
                    read.add(int(m.group(1)))
    unassigned = sorted(read - (slow_assigned | fast_assigned | loop_bound))
    if unassigned:
        findings.append(
            f"pipeline reads undeformed locals {sorted(unassigned)} "
            f"(deform covers {sorted(slow_assigned | fast_assigned)})"
        )

    # Bee-resident attrs: valid slots, correct attnum-to-slot wiring.
    slot_of = {
        layout.schema.attnum(name): slot
        for name, slot in layout.bee_slot.items()
    }
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        m = _RE_GCL_BEE.fullmatch(ast.unparse(node))
        if m:
            attnum, slot = int(m.group(1)), int(m.group(2))
            if slot_of.get(attnum) != slot:
                findings.append(
                    f"v{attnum} read from data-section slot {slot}; the "
                    f"layout stores it in slot {slot_of.get(attnum)!r}"
                )
    return findings
