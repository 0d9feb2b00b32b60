"""Property-based equivalence: EVP-generated code == generic interpreter.

The guarded EVP variant must agree with the tree-walking interpreter on
every expression and row, including NULLs; the not-null variant must agree
on NULL-free rows.  Random expression trees over a three-column row
exercise every node type the query builders use.  With division in the
trees, the guarded variant must also raise on exactly the rows the
interpreter raises on.
"""

from hypothesis import example, given, settings, strategies as st

from repro.bees.routines.evp import generate_evp
from repro.cost import Ledger
from repro.engine import expr as E

COLUMNS = ["a", "b", "s"]   # a, b numeric; s string


_OPS = ("+", "-", "*")


def _int_expr(draw, depth, ops=_OPS):
    choice = draw(st.integers(0, 3)) if depth > 0 else draw(st.integers(0, 1))
    if choice == 0:
        return E.Const(draw(st.integers(-5, 15)))
    if choice == 1:
        return E.Col(draw(st.sampled_from(["a", "b"])))
    left = _int_expr(draw, depth - 1, ops)
    right = _int_expr(draw, depth - 1, ops)
    if choice == 2:
        return E.Arith(draw(st.sampled_from(ops)), left, right)
    return E.Case(
        [(_bool_expr(draw, depth - 1, ops), left)], right
    )


def _str_expr(draw):
    if draw(st.booleans()):
        return E.Col("s")
    return E.Const(draw(st.sampled_from(["foo", "bar", "PROMO X", ""])))


def _bool_expr(draw, depth, ops=_OPS):
    choice = draw(st.integers(0, 7)) if depth > 0 else 0
    if choice in (0, 1):
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        # Operands one level deep above the leaves: arithmetic and CASE
        # under a comparison.
        level = min(depth, 1)
        return E.Cmp(
            op, _int_expr(draw, level, ops), _int_expr(draw, level, ops)
        )
    if choice == 2:
        args = [_bool_expr(draw, depth - 1, ops) for _ in range(draw(st.integers(1, 3)))]
        return E.And(*args)
    if choice == 3:
        args = [_bool_expr(draw, depth - 1, ops) for _ in range(draw(st.integers(1, 3)))]
        return E.Or(*args)
    if choice == 4:
        return E.Not(_bool_expr(draw, depth - 1, ops))
    if choice == 5:
        return E.Like(
            _str_expr(draw),
            draw(st.sampled_from(["%o%", "PROMO%", "f_o", "bar", "%"])),
            negate=draw(st.booleans()),
        )
    if choice == 6:
        return E.InList(
            _int_expr(draw, 0),
            draw(st.lists(st.integers(-5, 15), min_size=1, max_size=4)),
        )
    return E.Between(
        _int_expr(draw, 0), draw(st.integers(-5, 5)), draw(st.integers(5, 15))
    )


@st.composite
def bool_exprs(draw):
    return _bool_expr(draw, depth=2)


@st.composite
def dividing_bool_exprs(draw):
    return _bool_expr(draw, depth=3, ops=("-", "/"))


@st.composite
def rows(draw):
    nullable = draw(st.booleans())
    a = None if nullable and draw(st.booleans()) else draw(st.integers(-5, 15))
    b = None if nullable and draw(st.booleans()) else draw(st.integers(-5, 15))
    s = (
        None
        if nullable and draw(st.booleans())
        else draw(st.sampled_from(["foo", "bar", "PROMO X", "fzo", ""]))
    )
    return [a, b, s]


@settings(max_examples=250, deadline=None)
@given(bool_exprs(), rows())
def test_guarded_evp_matches_interpreter(expression, row):
    E.bind(expression, COLUMNS)
    routine = generate_evp(expression, Ledger(), "EVP_prop", False)
    assert routine.fn(row) == expression.evaluate(row)


@settings(max_examples=250, deadline=None)
@given(bool_exprs(), rows())
def test_not_null_evp_matches_interpreter_on_full_rows(expression, row):
    if any(value is None for value in row):
        row = [0 if row[0] is None else row[0],
               0 if row[1] is None else row[1],
               "" if row[2] is None else row[2]]
    E.bind(expression, COLUMNS)
    routine = generate_evp(expression, Ledger(), "EVP_prop", True)
    assert routine.fn(row) == expression.evaluate(row)


@st.composite
def small_rows(draw):
    """Rows whose numbers are mostly zero or near it: divisors of 0."""
    value = st.one_of(st.none(), st.integers(-1, 2))
    return [draw(value), draw(value), draw(st.sampled_from(["foo", None]))]


def _outcome(fn, row):
    try:
        return "value", fn(row)
    except ZeroDivisionError:
        return "raises", None


_A, _B = E.Col("a"), E.Col("b")
_QUOTIENT = E.Cmp(">", E.Arith("/", _A, _B), E.Const(0))


@settings(max_examples=400, deadline=None)
@given(dividing_bool_exprs(), small_rows())
@example(E.And(E.Cmp(">", _A, E.Const(1)), _QUOTIENT), [0, 0, "foo"])
@example(E.Or(E.IsNull(_B), E.Cmp("<", _A, E.Const(1)), _QUOTIENT), [0, 0, None])
@example(
    E.Cmp("=", E.Case([(E.Cmp("=", _B, E.Const(0)), E.Const(0))],
                      E.Arith("/", _A, _B)), E.Const(0)),
    [1, 0, None],
)
@example(E.Cmp("=", _B, E.Arith("/", _A, E.Const(0))), [1, None, None])
def test_guarded_evp_raises_only_where_the_interpreter_does(expression, row):
    """An AND stops at its first False, an OR at its first True, a CASE
    at its first true arm and a strict node at its first NULL argument,
    in the routine as in the interpreter: a division by zero the
    interpreter never reaches is never evaluated."""
    E.bind(expression, COLUMNS)
    routine = generate_evp(expression, Ledger(), "EVP_prop", False)
    assert _outcome(routine.fn, row) == _outcome(expression.evaluate, row)
