"""GCL — the specialized GetColumnsToLongs relation-bee routine.

Generates, per relation, an unrolled tuple-deform function (the paper's
Listing 2): the attribute loop is unrolled, null checks are dropped for
NOT NULL relations, fixed offsets are folded into one ``struct`` unpack of
the fixed prefix, and tuple-bee-resident attributes read straight from the
relation's data sections through the stored beeID ("holes" in the paper's
terminology).  The generated source is kept on the routine for inspection.

The same unrolled body (:func:`repro.bees.emit.emit_deform`, asked for
every attribute) is emitted into two sinks: the *row* sink
(:func:`generate_gcl`, one tuple in, one value list out — what scans and
the DML match scan call) and the *column* sink
(:func:`generate_gcl_columns`, one page of tuples in, values appended
straight onto per-column lists — what the vector tier's chunk decode
calls, so building a columnar chunk never materializes rows).
"""

from __future__ import annotations

from repro.cost import constants as C
from repro.bees.emit import emit_deform, finish, slow_path
from repro.bees.routines.base import BeeRoutine
from repro.storage.layout import (
    HEADER_INFOMASK_BYTE,
    INFOMASK_HAS_NULLS,
    TupleLayout,
)


def _deform_all(layout: TupleLayout, depth: int, namespace: dict):
    """:func:`repro.bees.emit.emit_deform` over every attribute."""
    return emit_deform(layout, set(range(layout.schema.natts)), depth, namespace)


def gcl_cost(layout: TupleLayout) -> int:
    """Per-invocation cost of the generated GCL routine for *layout*."""
    return C.GCL_PROLOGUE + _deform_all(layout, 1, {})[2]


def generate_gcl(layout: TupleLayout, ledger, fn_name: str) -> BeeRoutine:
    """Build the GCL bee routine for *layout*, charging into *ledger*."""
    namespace: dict = {
        "_charge": ledger.charge_fn,
        # Slow path: tuples containing NULLs fall back to the generic decode.
        "_slow": slow_path(layout, ledger, fn_name),
    }
    deform, values, cost = _deform_all(layout, 1, namespace)
    cost += C.GCL_PROLOGUE
    namespace["_COST"] = cost
    body = [
        f'    """Specialized deform for relation {layout.schema.name!r}'
        ' (generated)."""',
        f"    if raw[{HEADER_INFOMASK_BYTE}] & {INFOMASK_HAS_NULLS}:",
        "        return _slow(raw, sections)",
        f"    _charge({fn_name!r}, _COST)",
        *deform,
        f"    return [{', '.join(values)}]",
    ]
    return finish(fn_name, "raw, sections", body, namespace, None, cost)


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
    deform, values, cost = _deform_all(layout, 2, namespace)
    body = [
        f'    """Specialized columnar deform for relation {schema.name!r}'
        ' (generated)."""',
        *[f"    a{n} = cols[{n}].append" for n in range(schema.natts)],
        *[f"    n{n} = nulls[{n}].append" for n in nullable],
        "    for raw in raws:",
        f"        if raw[{HEADER_INFOMASK_BYTE}] & {INFOMASK_HAS_NULLS}:",
        "            _slow((raw,), sections, cols, nulls)",
        "            continue",
        *deform,
        *[f"        a{n}({value})" for n, value in enumerate(values)],
        *[f"        n{n}(False)" for n in nullable],
    ]
    # Charges nothing itself (cost 0); its code is the row sink's body.
    routine = finish(
        fn_name, "raws, sections, cols, nulls", body, namespace, None, 0
    )
    routine.size_bytes = max(64, (C.GCL_PROLOGUE + cost) * 4)
    return routine
