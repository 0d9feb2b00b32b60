"""Output contracts and expression type flow.

The abstract domain is deliberately small: every SQL type in the
catalog maps to one of five *kinds* — ``int``, ``float``, ``bool``,
``date``, ``string`` — plus ``any`` for NULL literals and values the
analysis cannot pin down (``any`` compares with everything and keeps
the checker from cascading one unknown into a storm of findings).

Two kinds are *comparable* when they are equal, either is ``any``, or
the pair is a **declared coercion** — a mixing the engine performs on
purpose and the checker therefore accepts:

* ``int`` ↔ ``float`` — numeric widening (NUMERIC is binary float8);
* ``int`` ↔ ``date`` — the parser lowers ``DATE 'yyyy-mm-dd'``
  literals to epoch day counts at parse time, so a date comparison
  reaching the executor *is* an int comparison;
* ``int`` ↔ ``bool`` — bools are stored and compared as small ints.

Everything else (string vs. numeric, float vs. date, ...) is an
undeclared implicit coercion: Python would happily evaluate some of
them with the wrong answer, which is exactly the bug class this pass
rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.schema import RelationSchema
from repro.catalog.types import SQLType
from repro.engine import expr as E
from repro.verify.report import Finding

KINDS = ("int", "float", "bool", "date", "string", "any")

_KIND_BY_BASE = {
    "int4": "int",
    "int8": "int",
    "float8": "float",
    "numeric": "float",
    "bool": "bool",
    "date": "date",
    "text": "string",
    "char": "string",
    "varchar": "string",
}

_DECLARED_COERCIONS = frozenset(
    {
        frozenset(("int", "float")),
        frozenset(("int", "date")),
        frozenset(("int", "bool")),
    }
)

_NUMERIC = ("int", "float")


def kind_of_sql_type(sql_type: SQLType) -> str:
    """The abstract kind of a catalog type (``char(12)`` -> string)."""
    base = sql_type.name.split("(", 1)[0]
    return _KIND_BY_BASE.get(base, "any")


def kind_of_value(value: object) -> str:
    """The abstract kind of a Python constant (bool before int!)."""
    if value is None:
        return "any"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "string"
    return "any"


def comparable(a: str, b: str) -> bool:
    """True when comparing kinds *a* and *b* is well-typed or declared."""
    if a == b or a == "any" or b == "any":
        return True
    return frozenset((a, b)) in _DECLARED_COERCIONS


@dataclass(frozen=True)
class ColumnContract:
    """One column of a plan node's inferred output contract."""

    name: str
    kind: str           # one of KINDS
    nullable: bool
    width: int = -1     # fixed byte width (attlen), -1 when derived/varlena
    type_name: str = "" # catalog type name when schema-backed

    def describe(self) -> str:
        null = "" if self.nullable else " not null"
        return f"{self.name}:{self.type_name or self.kind}{null}"


@dataclass(frozen=True)
class ValueType:
    """The abstract type of one expression: kind + may-be-NULL."""

    kind: str
    nullable: bool


_ANY = ValueType("any", True)

_KIND_WIDTH = {"int": 8, "float": 8, "bool": 1, "date": 4}


def contracts_from_schema(schema: RelationSchema) -> list[ColumnContract]:
    """The catalog-backed contract of a base-relation scan."""
    return [
        ColumnContract(
            name=attr.name,
            kind=kind_of_sql_type(attr.sql_type),
            nullable=attr.nullable,
            width=attr.attlen,
            type_name=attr.sql_type.name,
        )
        for attr in schema.attributes
    ]


class TypeChecker:
    """Accumulates typeflow findings while typing expressions.

    One checker instance covers one *subject* (a plan or relation label);
    the node-walk layer in :mod:`repro.wagglecheck.typeflow` drives it.
    """

    def __init__(self, subject: str) -> None:
        self.subject = subject
        self.findings: list[Finding] = []

    def fail(self, message: str) -> None:
        self.findings.append(Finding("typeflow", self.subject, message))

    # -- expression typing --------------------------------------------------

    def type_expr(
        self, expr: E.Expr, inputs: list[ColumnContract]
    ) -> ValueType:
        """Infer the abstract type of *expr* over the *inputs* contract,
        recording a finding for every ill-typed subexpression."""
        if isinstance(expr, E.Const):
            return ValueType(kind_of_value(expr.value), expr.value is None)
        if isinstance(expr, E.Col):
            if 0 <= expr.index < len(inputs):
                contract = inputs[expr.index]
                return ValueType(contract.kind, contract.nullable)
            self.fail(
                f"column reference {expr.name!r} is unbound or out of "
                f"range (index {expr.index} over {len(inputs)} columns)"
            )
            return _ANY
        if isinstance(expr, E.Cmp):
            left = self.type_expr(expr.left, inputs)
            right = self.type_expr(expr.right, inputs)
            if not comparable(left.kind, right.kind):
                self.fail(
                    f"ill-typed comparison {expr!r}: "
                    f"{left.kind} {expr.op} {right.kind}"
                )
            return ValueType("bool", left.nullable or right.nullable)
        if isinstance(expr, E.Arith):
            left = self.type_expr(expr.left, inputs)
            right = self.type_expr(expr.right, inputs)
            kinds = (left.kind, right.kind)
            for kind in kinds:
                if kind == "string":
                    self.fail(
                        f"arithmetic over non-numeric operand in {expr!r}: "
                        f"{left.kind} {expr.op} {right.kind}"
                    )
                    return ValueType("any", left.nullable or right.nullable)
            if "date" in kinds:
                # Day arithmetic: date +/- int -> date, date - date -> int.
                if expr.op not in ("+", "-"):
                    self.fail(
                        f"unsupported date arithmetic {expr!r}: "
                        f"{left.kind} {expr.op} {right.kind}"
                    )
                    return ValueType("any", left.nullable or right.nullable)
                result = "int" if kinds == ("date", "date") else "date"
                return ValueType(result, left.nullable or right.nullable)
            nullable = left.nullable or right.nullable
            if "any" in kinds:
                return ValueType("any", nullable)
            if expr.op == "/" or "float" in kinds:
                return ValueType("float", nullable)
            return ValueType("int", nullable)
        if isinstance(expr, (E.And, E.Or)):
            nullable = False
            for arg in expr.args:
                arg_type = self.type_expr(arg, inputs)
                if arg_type.kind not in ("bool", "any"):
                    self.fail(
                        f"non-boolean operand ({arg_type.kind}) in "
                        f"{type(expr).__name__}: {arg!r}"
                    )
                nullable = nullable or arg_type.nullable
            return ValueType("bool", nullable)
        if isinstance(expr, E.Not):
            arg = self.type_expr(expr.arg, inputs)
            if arg.kind not in ("bool", "any"):
                self.fail(f"NOT over non-boolean ({arg.kind}): {expr.arg!r}")
            return ValueType("bool", arg.nullable)
        if isinstance(expr, E.Like):
            arg = self.type_expr(expr.arg, inputs)
            if arg.kind not in ("string", "any"):
                self.fail(f"LIKE over non-string ({arg.kind}): {expr!r}")
            return ValueType("bool", arg.nullable)
        if isinstance(expr, E.InList):
            arg = self.type_expr(expr.arg, inputs)
            for value in expr.values:
                value_kind = kind_of_value(value)
                if not comparable(arg.kind, value_kind):
                    self.fail(
                        f"ill-typed IN-list membership: {arg.kind} "
                        f"vs {value_kind} constant {value!r}"
                    )
            return ValueType("bool", arg.nullable)
        if isinstance(expr, E.Between):
            arg = self.type_expr(expr.arg, inputs)
            for bound in (expr.low, expr.high):
                bound_kind = kind_of_value(bound)
                if not comparable(arg.kind, bound_kind):
                    self.fail(
                        f"ill-typed BETWEEN bound: {arg.kind} "
                        f"vs {bound_kind} constant {bound!r}"
                    )
            return ValueType("bool", arg.nullable)
        if isinstance(expr, E.Case):
            nullable = False
            kinds: set[str] = set()
            for cond, value in expr.whens:
                cond_type = self.type_expr(cond, inputs)
                if cond_type.kind not in ("bool", "any"):
                    self.fail(
                        f"non-boolean CASE condition ({cond_type.kind}): "
                        f"{cond!r}"
                    )
                arm = self.type_expr(value, inputs)
                kinds.add(arm.kind)
                nullable = nullable or arm.nullable
            default = self.type_expr(expr.default, inputs)
            kinds.add(default.kind)
            nullable = nullable or default.nullable
            kinds.discard("any")
            if len(kinds) > 1 and not kinds <= set(_NUMERIC):
                self.fail(
                    f"CASE arms disagree on result kind: {sorted(kinds)}"
                )
                return ValueType("any", nullable)
            if not kinds:
                return ValueType("any", nullable)
            if kinds <= set(_NUMERIC) and len(kinds) > 1:
                return ValueType("float", nullable)
            return ValueType(next(iter(kinds)), nullable)
        if isinstance(expr, E.IsNull):
            self.type_expr(expr.arg, inputs)
            return ValueType("bool", False)
        if isinstance(expr, E.Func):
            return self._type_func(expr, inputs)
        # Unknown expression node: conservative.
        for child in expr.children():
            self.type_expr(child, inputs)
        return _ANY

    def _type_func(
        self, expr: E.Func, inputs: list[ColumnContract]
    ) -> ValueType:
        args = [self.type_expr(arg, inputs) for arg in expr.args]
        nullable = any(arg.nullable for arg in args)

        def expect(position: int, *kinds: str) -> None:
            if position < len(args) and args[position].kind not in (
                kinds + ("any",)
            ):
                self.fail(
                    f"{expr.name}() argument {position + 1} has kind "
                    f"{args[position].kind}, expected {'/'.join(kinds)}"
                )

        def arity(n: int) -> bool:
            if len(args) != n:
                self.fail(
                    f"{expr.name}() takes {n} argument(s), got {len(args)}"
                )
                return False
            return True

        if expr.name in ("extract_year", "extract_month"):
            if arity(1):
                expect(0, "date", "int")
            return ValueType("int", nullable)
        if expr.name == "substr":
            if arity(3):
                expect(0, "string")
                expect(1, "int")
                expect(2, "int")
            return ValueType("string", nullable)
        if expr.name == "length":
            if arity(1):
                expect(0, "string")
            return ValueType("int", nullable)
        if expr.name == "abs":
            if arity(1):
                expect(0, "int", "float")
                return ValueType(
                    args[0].kind if args[0].kind in _NUMERIC else "any",
                    nullable,
                )
            return ValueType("any", nullable)
        return ValueType("any", nullable)

    # -- contract helpers ---------------------------------------------------

    def contract_of_expr(
        self, expr: E.Expr, name: str, inputs: list[ColumnContract]
    ) -> ColumnContract:
        """The output contract of one projected expression."""
        value_type = self.type_expr(expr, inputs)
        if isinstance(expr, E.Col) and 0 <= expr.index < len(inputs):
            # Pass-through column: keep catalog width and type name.
            source = inputs[expr.index]
            return ColumnContract(
                name=name,
                kind=source.kind,
                nullable=source.nullable,
                width=source.width,
                type_name=source.type_name,
            )
        return ColumnContract(
            name=name,
            kind=value_type.kind,
            nullable=value_type.nullable,
            width=_KIND_WIDTH.get(value_type.kind, -1),
        )

    def check_recorded_nullability(
        self, node: object, label: str, inferred: list[ColumnContract]
    ) -> None:
        """Cross-check a node's recorded ``nullable`` vector against the
        inferred contract: a column the contract proves may-be-NULL but
        the node records as NOT NULL is a *nullability erasure* — codegen
        trusting the record would drop NULL handling."""
        recorded = getattr(node, "nullable", None)
        if not isinstance(recorded, list) or len(recorded) != len(inferred):
            return  # lazily-bound scans record nothing until first use
        for contract, claimed in zip(inferred, recorded):
            if contract.nullable and not claimed:
                self.fail(
                    f"nullability erasure at {label}: column "
                    f"{contract.name!r} may be NULL but the node records "
                    "it as NOT NULL"
                )
