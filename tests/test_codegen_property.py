"""Property-based equivalence of generated relation-bee code.

For arbitrary schemas and rows, the generated GCL routine must decode
exactly what the reference layout decoder produces, and the generated SCL
routine must emit byte-identical tuples to the reference encoder —
including tuple-bee layouts where annotated attributes live in data
sections.
"""

from hypothesis import given, settings, strategies as st

from repro.bees.routines.gcl import generate_gcl
from repro.bees.routines.scl import generate_scl
from repro.catalog import BOOL, DATE, INT4, INT8, NUMERIC, char, make_schema, varchar
from repro.cost import Ledger
from repro.storage import TupleLayout

_TYPES = st.sampled_from(
    [INT4, INT8, NUMERIC, DATE, BOOL, char(1), char(9), varchar(14), varchar(2)]
)


def _value_for(draw, sql_type, nullable):
    if nullable and draw(st.booleans()):
        return None
    if sql_type.struct_fmt == "i":
        return draw(st.integers(-2**31, 2**31 - 1))
    if sql_type.struct_fmt == "q":
        return draw(st.integers(-2**63, 2**63 - 1))
    if sql_type.struct_fmt == "d":
        return draw(st.floats(allow_nan=False, allow_infinity=False))
    if sql_type.struct_fmt == "B":
        return draw(st.booleans())
    alphabet = st.characters(min_codepoint=33, max_codepoint=126)
    if sql_type.attlen >= 0:
        return draw(st.text(alphabet=alphabet, max_size=sql_type.attlen))
    return draw(st.text(alphabet=alphabet, max_size=18))


@st.composite
def bee_scenarios(draw):
    n_cols = draw(st.integers(min_value=1, max_value=7))
    cols = []
    char_cols = []
    for i in range(n_cols):
        sql_type = draw(_TYPES)
        nullable = draw(st.booleans())
        cols.append((f"c{i}", sql_type, nullable))
        # Fixed, NOT NULL char columns are tuple-bee candidates.
        if sql_type.attlen >= 0 and not sql_type.struct_fmt and not nullable:
            char_cols.append(f"c{i}")
    schema = make_schema("prop", cols)
    bee_attrs: tuple = ()
    if char_cols and draw(st.booleans()):
        count = draw(st.integers(1, len(char_cols)))
        bee_attrs = tuple(char_cols[:count])
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        rows.append([
            _value_for(draw, sql_type, nullable)
            for _name, sql_type, nullable in cols
        ])
    return schema, bee_attrs, rows


@settings(max_examples=150, deadline=None)
@given(bee_scenarios())
def test_gcl_equals_reference_decode(scenario):
    schema, bee_attrs, rows = scenario
    layout = TupleLayout(schema, bee_attrs)
    routine = generate_gcl(layout, Ledger(), "GCL_prop")
    sections: list[tuple] = []
    keys: dict[tuple, int] = {}
    for row in rows:
        isnull = [value is None for value in row]
        if bee_attrs and any(
            row[schema.attnum(name)] is None for name in bee_attrs
        ):
            continue  # annotated attrs are NOT NULL by construction
        bee_id = 0
        if bee_attrs:
            key = layout.bee_key(row)
            bee_id = keys.setdefault(key, len(sections))
            if bee_id == len(sections):
                sections.append(key)
        raw = layout.encode(row, isnull, bee_id)
        decoded = routine.fn(raw, sections if bee_attrs else None)
        assert decoded == row


@settings(max_examples=150, deadline=None)
@given(bee_scenarios())
def test_scl_equals_reference_encode(scenario):
    schema, bee_attrs, rows = scenario
    layout = TupleLayout(schema, bee_attrs)
    routine = generate_scl(layout, Ledger(), "SCL_prop")
    for bee_id, row in enumerate(rows):
        isnull = [value is None for value in row]
        expected = layout.encode(row, isnull, bee_id)
        assert routine.fn(row, bee_id) == expected


#: ``gcl_cost`` of every TPC-H/TPC-C layout (TPC-H annotated relations
#: also in their tuple-bee variant), written down at the commit before
#: the cost became a by-product of the one deform emitter: the derivation
#: may change, these numbers may not (Fig. 6's instruction counts).
GCL_COST_PINNED = {
    "region": 68,
    "nation": 80,
    "nation_tuplebees": 72,
    "supplier": 128,
    "customer": 152,
    "part": 166,
    "part_tuplebees": 150,
    "partsupp": 92,
    "orders": 142,
    "orders_tuplebees": 126,
    "lineitem": 226,
    "lineitem_tuplebees": 194,
    "warehouse": 152,
    "district": 178,
    "tpcc_customer": 324,
    "history": 128,
    "new_order": 56,
    "oorder": 122,
    "order_line": 148,
    "item": 104,
    "stock": 128,
}


def test_gcl_cost_is_pinned_for_every_benchmark_layout():
    from repro.bees.routines.gcl import gcl_cost
    from repro.verify.corpus import _relation_layouts

    layouts = dict(_relation_layouts())
    assert set(layouts) == set(GCL_COST_PINNED)
    for label, layout in layouts.items():
        assert gcl_cost(layout) == GCL_COST_PINNED[label], label
        routine = generate_gcl(layout, Ledger(), f"GCL_{label}")
        assert routine.cost == routine.namespace["_COST"] == GCL_COST_PINNED[label]


@st.composite
def pruned_scenarios(draw):
    schema, bee_attrs, rows = draw(bee_scenarios())
    needed = draw(
        st.sets(st.integers(0, schema.natts - 1), min_size=1)
    )
    return schema, bee_attrs, rows, needed


@settings(max_examples=150, deadline=None)
@given(pruned_scenarios())
def test_pruned_deform_agrees_with_decode_row(scenario):
    """The one deform emitter, pruned to any attribute subset and
    followed by reads of exactly that subset, sees what ``decode_row``
    sees — NULL-bearing tuples through ``slow_path``, as every generated
    caller escapes to it."""
    from repro.bees.emit import decode_row, emit_deform, finish, slow_path
    from repro.cost import constants as C
    from repro.storage.layout import HEADER_INFOMASK_BYTE, INFOMASK_HAS_NULLS

    schema, bee_attrs, rows, needed = scenario
    layout = TupleLayout(schema, bee_attrs)
    ledger = Ledger()
    namespace = {"_slow": slow_path(layout, ledger, "DEFORM_prop")}
    deform, locals_, cost = emit_deform(layout, needed, 1, namespace)
    assert locals_ == [f"v{n}" for n in sorted(needed)]
    full = emit_deform(layout, set(range(schema.natts)), 1, {})[2]
    assert C.GCL_ISNULL_ZERO <= cost <= full
    body = [
        f"    if raw[{HEADER_INFOMASK_BYTE}] & {INFOMASK_HAS_NULLS}:",
        "        _r = _slow(raw, sections)",
        f"        return [{', '.join(f'_r[{n}]' for n in sorted(needed))}]",
        *deform,
        f"    return [{', '.join(locals_)}]",
    ]
    fn = finish("DEFORM_prop", "raw, sections", body, namespace, None, cost).fn
    sections: list[tuple] = []
    for row in rows:
        if any(row[schema.attnum(name)] is None for name in bee_attrs):
            continue  # annotated attrs are NOT NULL by construction
        bee_id = 0
        if bee_attrs:
            key = layout.bee_key(row)
            if key not in sections:
                sections.append(key)
            bee_id = sections.index(key)
        raw = layout.encode(row, [value is None for value in row], bee_id)
        expected = decode_row(layout, raw, sections)
        assert expected == row
        assert fn(raw, sections) == [expected[n] for n in sorted(needed)]


def test_compile_routine_has_one_caller_outside_base():
    """Every generator ends in ``emit.finish``: the structural floor
    under "one routine epilogue" (checkers and chaos recompile tampered
    sources; they are not generators and are not counted)."""
    import re
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    callers = sorted(
        str(path.relative_to(root))
        for package in ("bees", "parallel", "columnar", "engine", "sql")
        for path in (root / package).rglob("*.py")
        if path.name != "base.py"
        and re.search(r"\bcompile_routine\(", path.read_text())
    )
    assert callers == ["bees/emit.py"]
    assert (root / "bees/emit.py").read_text().count("compile_routine(") == 1
    assert not re.search(r"\bcompile_routine\(", (root / "db.py").read_text())
