"""Tests for GCL/SCL/EVP/EVJ code generation — correctness and costs."""

import pytest

from repro.bees.routines.evj import GENERIC_JOIN, instantiate_evj
from repro.bees.routines.evp import generate_evp
from repro.bees.routines.gcl import gcl_cost, generate_gcl
from repro.bees.routines.scl import generate_scl, scl_cost
from repro.catalog import BOOL, INT4, INT8, char, make_schema, varchar
from repro.cost import Ledger
from repro.cost import constants as C
from repro.engine import expr as E
from repro.storage import TupleLayout


@pytest.fixture
def ledger():
    return Ledger()


class TestGCL:
    def test_matches_reference_decode(self, orders_schema, orders_row, ledger):
        layout = TupleLayout(orders_schema)
        routine = generate_gcl(layout, ledger, "GCL_t")
        raw = layout.encode(orders_row)
        assert routine.fn(raw, None) == orders_row

    def test_tuple_bee_holes(self, orders_schema, orders_row, ledger):
        layout = TupleLayout(
            orders_schema, ("o_orderstatus", "o_orderpriority")
        )
        routine = generate_gcl(layout, ledger, "GCL_t")
        raw = layout.encode(orders_row, bee_id=1)
        sections = [("X", "other"), ("O", "5-LOW")]
        assert routine.fn(raw, sections) == orders_row

    def test_null_slow_path(self, mixed_schema, ledger):
        layout = TupleLayout(mixed_schema)
        routine = generate_gcl(layout, ledger, "GCL_t")
        row = ["v", 1, "ab", None, None, 2.5]
        raw = layout.encode(row, [value is None for value in row])
        assert routine.fn(raw, None) == row

    def test_charges_cost(self, orders_schema, orders_row, ledger):
        layout = TupleLayout(orders_schema)
        routine = generate_gcl(layout, ledger, "GCL_t")
        raw = layout.encode(orders_row)
        before = ledger.total
        routine.fn(raw, None)
        assert ledger.total - before == routine.cost

    def test_cost_calibration_orders(self, orders_schema):
        """Paper Section II: specialized GCL ~146 instructions on orders."""
        cost = gcl_cost(TupleLayout(orders_schema))
        assert 120 <= cost <= 170

    def test_cost_cheaper_with_tuple_bees(self, orders_schema):
        plain = gcl_cost(TupleLayout(orders_schema))
        hollow = gcl_cost(
            TupleLayout(orders_schema, ("o_orderstatus", "o_orderpriority"))
        )
        assert hollow < plain

    def test_source_is_listing2_shaped(self, orders_schema, ledger):
        layout = TupleLayout(
            orders_schema, ("o_orderstatus", "o_orderpriority")
        )
        routine = generate_gcl(layout, ledger, "GCL_orders")
        assert "def GCL_orders(raw, sections):" in routine.source
        assert "_bv = sections[" in routine.source      # beeID data section
        assert "unpack_from" in routine.source          # folded fixed prefix

    def test_leading_varlena_schema(self, ledger):
        schema = make_schema("t", [("v", varchar(9)), ("i", INT4)])
        layout = TupleLayout(schema)
        routine = generate_gcl(layout, ledger, "GCL_t")
        raw = layout.encode(["abc", 7])
        assert routine.fn(raw, None) == ["abc", 7]

    def test_single_column(self, ledger):
        schema = make_schema("t", [("i", INT8)])
        layout = TupleLayout(schema)
        routine = generate_gcl(layout, ledger, "GCL_t")
        assert routine.fn(layout.encode([-5]), None) == [-5]

    def test_bool_column(self, ledger):
        schema = make_schema("t", [("b", BOOL), ("v", varchar(4)), ("c", BOOL)])
        layout = TupleLayout(schema)
        routine = generate_gcl(layout, ledger, "GCL_t")
        assert routine.fn(layout.encode([True, "x", False]), None) == [
            True, "x", False,
        ]

    def test_all_attrs_bee_resident(self, ledger):
        schema = make_schema("t", [("a", char(1)), ("b", char(2))])
        layout = TupleLayout(schema, ("a", "b"))
        routine = generate_gcl(layout, ledger, "GCL_t")
        raw = layout.encode(["x", "yy"], bee_id=0)
        assert routine.fn(raw, [("x", "yy")]) == ["x", "yy"]


class TestSCL:
    def test_matches_reference_encode(self, orders_schema, orders_row, ledger):
        layout = TupleLayout(orders_schema)
        routine = generate_scl(layout, ledger, "SCL_t")
        assert routine.fn(orders_row, 0) == layout.encode(orders_row)

    def test_tuple_bee_encode(self, orders_schema, orders_row, ledger):
        layout = TupleLayout(
            orders_schema, ("o_orderstatus", "o_orderpriority")
        )
        routine = generate_scl(layout, ledger, "SCL_t")
        assert routine.fn(orders_row, 9) == layout.encode(
            orders_row, bee_id=9
        )

    def test_null_slow_path(self, mixed_schema, ledger):
        layout = TupleLayout(mixed_schema)
        routine = generate_scl(layout, ledger, "SCL_t")
        row = ["v", 1, "ab", None, None, 2.5]
        expected = layout.encode(row, [value is None for value in row])
        assert routine.fn(row, 0) == expected

    def test_cost_calibration(self, orders_schema):
        cost = scl_cost(TupleLayout(orders_schema))
        assert 0 < cost < 200

    def test_round_trip_through_gcl(self, orders_schema, orders_row, ledger):
        layout = TupleLayout(orders_schema)
        scl = generate_scl(layout, ledger, "SCL_t")
        gcl = generate_gcl(layout, ledger, "GCL_t")
        assert gcl.fn(scl.fn(orders_row, 0), None) == orders_row


class TestEVP:
    def _routine(self, expression, columns, not_null=False):
        E.bind(expression, columns)
        return generate_evp(expression, Ledger(), "EVP_t", not_null)

    def test_simple_predicate(self):
        routine = self._routine(
            E.Cmp(">", E.Col("x"), E.Const(10)), ["x"], not_null=True
        )
        assert routine.fn([11]) is True
        assert routine.fn([10]) is False

    def test_guarded_null_handling(self):
        routine = self._routine(E.Cmp(">", E.Col("x"), E.Const(10)), ["x"])
        assert routine.fn([None]) is None

    def test_guarded_and(self):
        expression = E.And(
            E.Cmp(">", E.Col("x"), E.Const(0)),
            E.Cmp("<", E.Col("y"), E.Const(10)),
        )
        routine = self._routine(expression, ["x", "y"])
        assert routine.fn([1, 5]) is True
        assert routine.fn([-1, 5]) is False
        assert routine.fn([None, 5]) is None
        assert routine.fn([None, 50]) is False   # False dominates unknown

    def test_like_in_between_case(self):
        expression = E.And(
            E.Like(E.Col("s"), "PROMO%"),
            E.InList(E.Col("m"), ["AIR", "MAIL"]),
            E.Between(E.Col("q"), 1, 10),
            E.Cmp(
                "=",
                E.Case(
                    [(E.Cmp(">", E.Col("q"), E.Const(5)), E.Const("hi"))],
                    E.Const("lo"),
                ),
                E.Const("hi"),
            ),
        )
        for not_null in (False, True):
            routine = self._routine(
                E.bind(expression, ["s", "m", "q"]), ["s", "m", "q"], not_null
            )
            assert routine.fn(["PROMO X", "AIR", 7]) is True
            assert routine.fn(["PROMO X", "AIR", 3]) is False
            assert routine.fn(["BASIC", "AIR", 7]) is False

    def test_unbound_rejected(self):
        with pytest.raises(ValueError):
            generate_evp(E.Col("x"), Ledger(), "EVP_t")

    def test_charges_specialized_cost(self):
        ledger = Ledger()
        expression = E.bind(E.Cmp("=", E.Col("x"), E.Const(1)), ["x"])
        routine = generate_evp(expression, ledger, "EVP_t", True)
        before = ledger.total
        routine.fn([1])
        charged = ledger.total - before
        assert charged == routine.cost
        assert charged < expression.generic_cost

    def test_constants_patched_into_data_section(self):
        # A proto-bee: the literal fills a hole of the namespace, the
        # source names neither it nor the routine.
        expression = E.bind(E.Cmp("=", E.Col("x"), E.Const(42)), ["x"])
        routine = generate_evp(expression, Ledger(), "EVP_t", True)
        assert "42" not in routine.source and "EVP_t" not in routine.source
        assert routine.namespace["_K0"] == 42
        assert routine.namespace["_NAME"] == "EVP_t"
        assert routine.fn([42]) is True and routine.fn([41]) is False


class TestEVJ:
    def test_templates_per_join_type(self):
        for join_type in ("inner", "left", "semi", "anti"):
            routine = instantiate_evj(join_type, 2, f"EVJ_{join_type}")
            assert routine.join_type == join_type
            assert routine.cost_per_compare == C.EVJ_DISPATCH + 2 * C.EVJ_COMPARE
            assert join_type in routine.source

    def test_cheaper_than_generic(self):
        for n_keys in (1, 2, 3):
            specialized = instantiate_evj("inner", n_keys, "EVJ_t")
            assert (
                specialized.cost_per_compare < GENERIC_JOIN.per_compare(n_keys)
            )

    def test_unknown_join_type(self):
        with pytest.raises(ValueError):
            instantiate_evj("full", 1, "EVJ_t")

    def test_negative_keys_rejected(self):
        with pytest.raises(ValueError):
            instantiate_evj("inner", -1, "EVJ_t")
