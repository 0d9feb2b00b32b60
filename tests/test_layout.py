"""Tests for the physical tuple layout, including property-based checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import BOOL, DATE, INT4, INT8, NUMERIC, char, make_schema, varchar
from repro.storage import INFOMASK_HAS_BEEID, INFOMASK_HAS_NULLS, TupleLayout


class TestBasicRoundTrip:
    def test_orders_round_trip(self, orders_schema, orders_row):
        layout = TupleLayout(orders_schema)
        values, isnull = layout.decode(layout.encode(orders_row))
        assert values == orders_row
        assert not any(isnull)

    def test_mixed_round_trip(self, mixed_schema):
        layout = TupleLayout(mixed_schema)
        row = ["hi", 2**40, "abc", "xy", -7, 3.25]
        values, isnull = layout.decode(layout.encode(row))
        assert values == row

    def test_char_trailing_spaces_insignificant(self):
        schema = make_schema("t", [("c", char(8))])
        layout = TupleLayout(schema)
        values, _ = layout.decode(layout.encode(["ab"]))
        assert values == ["ab"]

    def test_bool_round_trip(self):
        schema = make_schema("t", [("b", BOOL), ("c", BOOL)])
        layout = TupleLayout(schema)
        values, _ = layout.decode(layout.encode([True, False]))
        assert values == [True, False]

    def test_empty_varchar(self):
        schema = make_schema("t", [("v", varchar(5)), ("i", INT4)])
        layout = TupleLayout(schema)
        values, _ = layout.decode(layout.encode(["", 9]))
        assert values == ["", 9]

    def test_char_overflow_rejected(self):
        schema = make_schema("t", [("c", char(3))])
        with pytest.raises(ValueError):
            TupleLayout(schema).encode(["toolong"])


class TestNulls:
    def test_null_round_trip(self, mixed_schema):
        layout = TupleLayout(mixed_schema)
        row = ["x", 1, "ab", None, None, 0.5]
        isnull = [value is None for value in row]
        values, decoded_null = layout.decode(layout.encode(row, isnull))
        assert decoded_null == isnull
        for value, null in zip(values, decoded_null):
            if null:
                assert value is None

    def test_nulls_occupy_no_space(self, mixed_schema):
        layout = TupleLayout(mixed_schema)
        full = layout.encode(["x", 1, "ab", "12345678", 5, 0.5])
        sparse = layout.encode(
            ["x", 1, "ab", None, None, 0.5], [False] * 3 + [True, True, False]
        )
        assert len(sparse) < len(full)

    def test_null_infomask_flag(self, mixed_schema):
        layout = TupleLayout(mixed_schema)
        raw = layout.encode(
            ["x", 1, "ab", None, 5, 0.5],
            [False, False, False, True, False, False],
        )
        assert raw[0] & INFOMASK_HAS_NULLS
        raw2 = layout.encode(["x", 1, "ab", "d", 5, 0.5])
        assert not raw2[0] & INFOMASK_HAS_NULLS


class TestTupleBeeLayout:
    def test_bee_attrs_not_stored(self, orders_schema, orders_row):
        plain = TupleLayout(orders_schema)
        hollowed = TupleLayout(
            orders_schema, ("o_orderstatus", "o_orderpriority")
        )
        assert len(hollowed.encode(orders_row, bee_id=3)) < len(
            plain.encode(orders_row)
        )

    def test_bee_id_round_trip(self, orders_schema, orders_row):
        layout = TupleLayout(orders_schema, ("o_orderstatus",))
        raw = layout.encode(orders_row, bee_id=77)
        assert raw[0] & INFOMASK_HAS_BEEID
        assert layout.read_bee_id(raw) == 77

    def test_decode_with_sections(self, orders_schema, orders_row):
        layout = TupleLayout(
            orders_schema, ("o_orderstatus", "o_orderpriority")
        )
        raw = layout.encode(orders_row, bee_id=0)
        values, _ = layout.decode(raw, bee_values=("O", "5-LOW"))
        assert values == orders_row

    def test_decode_without_sections_raises(self, orders_schema, orders_row):
        layout = TupleLayout(orders_schema, ("o_orderstatus",))
        raw = layout.encode(orders_row, bee_id=0)
        with pytest.raises(ValueError):
            layout.decode(raw)

    def test_bee_key_extraction(self, orders_schema, orders_row):
        layout = TupleLayout(
            orders_schema, ("o_orderstatus", "o_orderpriority")
        )
        assert layout.bee_key(orders_row) == ("O", "5-LOW")

    def test_unknown_bee_attr_rejected(self, orders_schema):
        with pytest.raises(ValueError):
            TupleLayout(orders_schema, ("nope",))

    def test_read_bee_id_on_plain_tuple_raises(self, orders_schema, orders_row):
        layout = TupleLayout(orders_schema)
        with pytest.raises(ValueError):
            layout.read_bee_id(layout.encode(orders_row))


class TestStoredOffsets:
    def test_stored_offsets_shift_when_hollowed(self, orders_schema):
        layout = TupleLayout(orders_schema, ("o_orderstatus",))
        # The remaining stored attributes re-pack contiguously.
        offsets = [
            layout.stored_offset(i) for i in range(len(layout.stored_attrs))
        ]
        assert offsets[0] == 0
        assert all(
            b >= a for a, b in zip(offsets, offsets[1:]) if b >= 0
        )

    def test_header_is_8_aligned(self, orders_schema):
        for bee_attrs in ((), ("o_orderstatus",)):
            layout = TupleLayout(orders_schema, bee_attrs)
            assert layout.header_size(False) % 8 == 0
            assert layout.header_size(True) % 8 == 0

    def test_cached_offsets_read_what_the_realigning_walk_reads(self):
        # A NULL-free tuple reads its pre-varlena attributes at their
        # cached offsets; the same tuple with a NULL realigns every one.
        schema = make_schema("t", [
            ("b", BOOL), ("i", INT4), ("d", NUMERIC), ("c", char(3)),
            ("q", INT8), ("v", varchar(9)), ("j", INT4, True), ("e", NUMERIC),
        ])
        layout = TupleLayout(schema)
        row = [True, -3, 2.5, "ab", 2**40, "hey", 7, -1.0]
        assert layout.decode(layout.encode(row)) == (row, [False] * 8)
        isnull = [False] * 6 + [True, False]
        values, nulls = layout.decode(layout.encode(row, isnull))
        assert nulls == isnull
        assert values == row[:6] + [None, -1.0]

    def test_pickles_with_annotated_scalars(self, orders_schema, orders_row):
        # A pool worker gets the layout by pickle; its derived struct
        # methods are rebuilt, not pickled.
        import pickle

        schema = make_schema("t", [("a", INT4), ("g", INT4), ("s", char(2))])
        annotated = TupleLayout(schema, ("g", "s"))
        clone = pickle.loads(pickle.dumps(annotated))
        assert repr(clone) == repr(annotated)
        raw = clone.encode([5, 6, "x"], bee_id=3)
        assert clone.decode(raw, (6, "x")) == annotated.decode(raw, (6, "x"))
        plain = TupleLayout(orders_schema)
        raw = plain.encode(orders_row)
        assert pickle.loads(pickle.dumps(plain)).decode(raw) == plain.decode(raw)


# -- property-based: arbitrary schemas and values round-trip ------------------

_TYPES = st.sampled_from(
    [INT4, INT8, NUMERIC, DATE, BOOL, char(1), char(7), varchar(12), varchar(3)]
)


@st.composite
def schema_and_rows(draw):
    n_cols = draw(st.integers(min_value=1, max_value=8))
    cols = []
    for i in range(n_cols):
        sql_type = draw(_TYPES)
        nullable = draw(st.booleans())
        cols.append((f"c{i}", sql_type, nullable))
    schema = make_schema("prop", cols)
    n_rows = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for _ in range(n_rows):
        row = []
        for name, sql_type, nullable in cols:
            if nullable and draw(st.booleans()):
                row.append(None)
            elif sql_type.struct_fmt == "i":
                row.append(draw(st.integers(-2**31, 2**31 - 1)))
            elif sql_type.struct_fmt == "q":
                row.append(draw(st.integers(-2**63, 2**63 - 1)))
            elif sql_type.struct_fmt == "d":
                row.append(
                    draw(st.floats(allow_nan=False, allow_infinity=False))
                )
            elif sql_type.struct_fmt == "B":
                row.append(draw(st.booleans()))
            elif sql_type.attlen >= 0:
                text = draw(
                    st.text(
                        alphabet=st.characters(
                            min_codepoint=33, max_codepoint=126
                        ),
                        max_size=sql_type.attlen,
                    )
                )
                row.append(text)
            else:
                row.append(
                    draw(
                        st.text(
                            alphabet=st.characters(
                                min_codepoint=32, max_codepoint=126
                            ),
                            max_size=20,
                        )
                    )
                )
        rows.append(row)
    return schema, rows


@settings(max_examples=120, deadline=None)
@given(schema_and_rows())
def test_layout_round_trip_property(data):
    """encode -> decode is the identity on any schema and row."""
    schema, rows = data
    layout = TupleLayout(schema)
    for row in rows:
        isnull = [value is None for value in row]
        values, decoded_null = layout.decode(layout.encode(row, isnull))
        assert decoded_null == isnull
        for original, value, null in zip(row, values, decoded_null):
            if null:
                assert value is None
            else:
                assert value == original
