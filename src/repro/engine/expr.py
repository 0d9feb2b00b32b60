"""Expression trees with generic (interpreted) evaluation.

This is the engine's ``FuncExprState`` analog: a query predicate or scalar
expression is a tree of nodes that the stock engine evaluates by recursive
dispatch, re-branching on node kind and operator at every call — the
generality the EVP query bee folds away.  Each node knows two virtual
instruction costs, both precomputed when the expression is bound:

* ``generic_cost`` — the interpreted evaluation (dispatch + operator work),
* ``evp_cost`` — the same computation in a specialized EVP bee routine
  (constants inlined, dispatch removed).

NULL is represented by Python ``None`` and comparisons follow SQL
three-valued logic: any comparison against NULL yields unknown (``None``),
AND/OR combine with Kleene semantics, and a filter accepts only ``True``.
"""

from __future__ import annotations

import datetime
import re

from repro.cost import constants as C
from repro.resilience.errors import CallerError

_LIKE_SPECIAL = re.compile(r"([.^$*+?{}\[\]\\|()])")


class Expr:
    """Base expression node. Subclasses implement ``evaluate`` and costs."""

    generic_cost: int = 0
    evp_cost: int = 0

    def evaluate(self, row: list):
        """Evaluate against *row* (a flat values list); None means NULL."""
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        """Child expressions, for tree walks (binding, codegen)."""
        return ()

    def _finish(self, own_generic: int, own_evp: int) -> None:
        """Set costs = own work + children's work (called by __init__)."""
        self.generic_cost = C.EXPR_NODE_DISPATCH + own_generic + sum(
            child.generic_cost for child in self.children()
        )
        self.evp_cost = C.EVP_NODE + own_evp + sum(
            child.evp_cost for child in self.children()
        )


class Const(Expr):
    """A literal constant (inlined into EVP bee code)."""

    def __init__(self, value) -> None:
        self.value = value
        self._finish(C.EXPR_CONST, 0)

    def evaluate(self, row: list):
        return self.value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Col(Expr):
    """A column reference, by name until bound, then by row index."""

    def __init__(self, name: str, index: int = -1) -> None:
        self.name = name
        self.index = index
        self._finish(C.EXPR_COLUMN, 2)

    def evaluate(self, row: list):
        return row[self.index]

    def __repr__(self) -> str:
        return f"Col({self.name}@{self.index})"


_CMP_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_CMP_PY = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class Cmp(Expr):
    """Comparison ``left op right`` with SQL NULL propagation."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _CMP_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self._fn = _CMP_OPS[op]
        self._finish(C.EXPR_COMPARISON, 1)

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, row: list):
        left = self.left.evaluate(row)
        if left is None:
            return None
        right = self.right.evaluate(row)
        if right is None:
            return None
        return self._fn(left, right)

    def __reduce__(self):
        # _fn is a lambda from _CMP_OPS; reconstruct through __init__ so
        # bound expression trees can cross a process boundary.
        return (Cmp, (self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"Cmp({self.left!r} {self.op} {self.right!r})"


_ARITH_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class Arith(Expr):
    """Arithmetic over NUMERIC/int values (charged as an fmgr call)."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self._fn = _ARITH_OPS[op]
        self._finish(C.NUMERIC_OP, C.NUMERIC_OP - 12)

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, row: list):
        left = self.left.evaluate(row)
        if left is None:
            return None
        right = self.right.evaluate(row)
        if right is None:
            return None
        return self._fn(left, right)

    def __reduce__(self):
        # _fn is a lambda from _ARITH_OPS; reconstruct through __init__ so
        # bound expression trees can cross a process boundary.
        return (Arith, (self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"Arith({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    """N-ary AND with Kleene three-valued semantics."""

    def __init__(self, *args: Expr) -> None:
        if not args:
            raise ValueError("And() needs at least one argument")
        self.args = args
        self._finish(C.EXPR_BOOL_PER_ARG * len(args), len(args))

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def evaluate(self, row: list):
        saw_null = False
        for arg in self.args:
            value = arg.evaluate(row)
            if value is False:
                return False
            if value is None:
                saw_null = True
        return None if saw_null else True

    def __repr__(self) -> str:
        return f"And({', '.join(map(repr, self.args))})"


class Or(Expr):
    """N-ary OR with Kleene three-valued semantics."""

    def __init__(self, *args: Expr) -> None:
        if not args:
            raise ValueError("Or() needs at least one argument")
        self.args = args
        self._finish(C.EXPR_BOOL_PER_ARG * len(args), len(args))

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def evaluate(self, row: list):
        saw_null = False
        for arg in self.args:
            value = arg.evaluate(row)
            if value is True:
                return True
            if value is None:
                saw_null = True
        return None if saw_null else False

    def __repr__(self) -> str:
        return f"Or({', '.join(map(repr, self.args))})"


class Not(Expr):
    """Logical negation (NULL stays NULL)."""

    def __init__(self, arg: Expr) -> None:
        self.arg = arg
        self._finish(C.EXPR_BOOL_PER_ARG, 1)

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def evaluate(self, row: list):
        value = self.arg.evaluate(row)
        if value is None:
            return None
        return not value


def like_to_regex(pattern: str) -> re.Pattern:
    """Compile a SQL LIKE pattern (%, _) into an anchored regex."""
    escaped = _LIKE_SPECIAL.sub(r"\\\1", pattern)
    regex = escaped.replace("%", ".*").replace("_", ".")
    return re.compile(f"^{regex}$", re.DOTALL)


class Like(Expr):
    """SQL LIKE / NOT LIKE against a constant pattern."""

    def __init__(self, arg: Expr, pattern: str, negate: bool = False) -> None:
        self.arg = arg
        self.pattern = pattern
        self.negate = negate
        self._regex = like_to_regex(pattern)
        scan = C.EXPR_LIKE_BASE + C.EXPR_LIKE_PER_CHAR * len(pattern)
        self._finish(scan, scan // 2)

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def evaluate(self, row: list):
        value = self.arg.evaluate(row)
        if value is None:
            return None
        matched = self._regex.match(value) is not None
        return (not matched) if self.negate else matched

    def __repr__(self) -> str:
        kind = "NOT LIKE" if self.negate else "LIKE"
        return f"Like({self.arg!r} {kind} {self.pattern!r})"


class InList(Expr):
    """``arg IN (constants)`` — evaluated against a frozenset."""

    def __init__(self, arg: Expr, values) -> None:
        self.arg = arg
        self.values = frozenset(values)
        self._finish(C.EXPR_IN_PER_ITEM * max(1, len(self.values)), 3)

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def evaluate(self, row: list):
        value = self.arg.evaluate(row)
        if value is None:
            return None
        return value in self.values

    def __repr__(self) -> str:
        return f"InList({self.arg!r} IN {sorted(self.values)!r})"


class Between(Expr):
    """``low <= arg <= high`` over constants (sugar kept as one node)."""

    def __init__(self, arg: Expr, low, high) -> None:
        self.arg = arg
        self.low = low
        self.high = high
        self._finish(2 * C.EXPR_COMPARISON, 2)

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def evaluate(self, row: list):
        value = self.arg.evaluate(row)
        if value is None:
            return None
        return self.low <= value <= self.high

    def __repr__(self) -> str:
        return f"Between({self.low!r} <= {self.arg!r} <= {self.high!r})"


class Case(Expr):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    def __init__(self, whens: list[tuple[Expr, Expr]], default: Expr) -> None:
        if not whens:
            raise ValueError("Case needs at least one WHEN arm")
        self.whens = whens
        self.default = default
        self._finish(C.EXPR_CASE_PER_ARM * len(whens), len(whens))

    def children(self) -> tuple[Expr, ...]:
        flat: list[Expr] = []
        for cond, value in self.whens:
            flat.append(cond)
            flat.append(value)
        flat.append(self.default)
        return tuple(flat)

    def evaluate(self, row: list):
        for cond, value in self.whens:
            if cond.evaluate(row) is True:
                return value.evaluate(row)
        return self.default.evaluate(row)


class IsNull(Expr):
    """``arg IS NULL`` (or IS NOT NULL with negate=True)."""

    def __init__(self, arg: Expr, negate: bool = False) -> None:
        self.arg = arg
        self.negate = negate
        self._finish(4, 1)

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def evaluate(self, row: list):
        is_null = self.arg.evaluate(row) is None
        return (not is_null) if self.negate else is_null


_EPOCH = datetime.date(1970, 1, 1)


def _extract_year(days: int) -> int:
    return (_EPOCH + datetime.timedelta(days=days)).year


def _extract_month(days: int) -> int:
    return (_EPOCH + datetime.timedelta(days=days)).month


_FUNCS = {
    "extract_year": _extract_year,
    "extract_month": _extract_month,
    "substr": lambda s, start, length: s[start - 1 : start - 1 + length],
    "length": len,
    "abs": abs,
}


class Func(Expr):
    """A catalog-dispatched function call (extract, substr, ...)."""

    def __init__(self, name: str, *args: Expr) -> None:
        if name not in _FUNCS:
            raise ValueError(f"unknown function {name!r}")
        self.name = name
        self.args = args
        self._fn = _FUNCS[name]
        self._finish(C.EXPR_FUNC, C.EXPR_FUNC // 2)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def evaluate(self, row: list):
        values = []
        for arg in self.args:
            value = arg.evaluate(row)
            if value is None:
                return None
            values.append(value)
        return self._fn(*values)

    def __reduce__(self):
        # _fn may be a lambda from _FUNCS; reconstruct through __init__ so
        # bound expression trees can cross a process boundary.
        return (Func, (self.name, *self.args))

    def __repr__(self) -> str:
        return f"Func({self.name}, {', '.join(map(repr, self.args))})"


class Opaque(Expr):
    """A caller's Python predicate over a row's first *width* columns.

    ``db.update_where`` / ``db.delete_where`` wrap a callable in one so
    it can sit in a plan as a ``Filter`` qualification.  The engine
    cannot see inside it: no fuser or generator accepts it (``Filter``
    interprets it even with EVP on) and it is uncharged (both costs stay
    zero — a user's callable has no modeled price).  What it raises is
    the caller's error, wrapped in :class:`CallerError` so no layer in
    between mistakes it for a bee fault.
    """

    def __init__(self, fn, width: int) -> None:
        self.fn = fn
        self.width = width

    def evaluate(self, row: list):
        try:
            return bool(self.fn(row[: self.width]))
        except Exception as exc:
            raise CallerError() from exc

    def __repr__(self) -> str:
        return f"Opaque({getattr(self.fn, '__name__', 'callable')})"


# ---------------------------------------------------------------------------
# Binding: resolve column names to row indexes against a node's output desc.
# ---------------------------------------------------------------------------


class BindError(KeyError):
    """Raised when a column name cannot be resolved during binding."""


def bind(expr: Expr, columns: list[str]) -> Expr:
    """Resolve every :class:`Col` in *expr* against *columns* (in place).

    Returns *expr* for chaining.  Raises :class:`BindError` on unknown
    names so plan-construction mistakes surface at build time, not during
    execution.
    """
    if isinstance(expr, Col):
        try:
            expr.index = columns.index(expr.name)
        except ValueError:
            raise BindError(
                f"column {expr.name!r} not in row descriptor {columns}"
            ) from None
    for child in expr.children():
        bind(child, columns)
    return expr


def is_bound(expr: Expr) -> bool:
    """True when every column reference has a resolved index."""
    if isinstance(expr, Col) and expr.index < 0:
        return False
    return all(is_bound(child) for child in expr.children())


def static_nullable(expr: Expr, input_nullable: list[bool]) -> bool:
    """Conservative may-be-NULL analysis for a bound expression.

    *input_nullable* is the child node's per-column nullability vector
    (positionally aligned with its ``columns``).  The analysis mirrors
    evaluation: every operator here is strict except IS NULL (never
    NULL) and CASE (NULL only if some arm or the default can be).
    Unresolvable references degrade to nullable rather than raising, so
    hand-built plans missing metadata stay conservative, not wrong.
    """
    if isinstance(expr, Const):
        return expr.value is None
    if isinstance(expr, Col):
        if 0 <= expr.index < len(input_nullable):
            return input_nullable[expr.index]
        return True
    if isinstance(expr, IsNull):
        return False
    if isinstance(expr, Case):
        arms = [value for _cond, value in expr.whens]
        arms.append(expr.default)
        return any(static_nullable(arm, input_nullable) for arm in arms)
    return any(
        static_nullable(child, input_nullable) for child in expr.children()
    )
