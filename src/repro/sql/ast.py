"""Abstract syntax for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field


# -- scalar expression AST (distinct from engine exprs; planner lowers it) ----


@dataclass
class Literal:
    """A constant.  *slot* is the literal's position among the ones the
    shape lifter (:func:`repro.sql.lexer.lift`) lifts out of the
    statement, ``None`` for one it leaves in the text (``NULL``,
    ``DATE '…'``); *negate* records an odd number of unary minuses
    folded into *value*.  The slot takes part in equality, so whether
    two aggregate calls are "the same aggregate" — and with it the plan
    — never depends on two literals happening to be equal.
    """

    value: object
    slot: int | None = None
    negate: bool = False


@dataclass
class ColumnRef:
    name: str                 # possibly qualified: "t.col" stays one string


@dataclass
class Binary:
    op: str                   # comparison or arithmetic operator
    left: object
    right: object


@dataclass
class BoolOp:
    op: str                   # 'and' | 'or'
    args: list


@dataclass
class NotOp:
    arg: object


@dataclass
class LikeOp:
    arg: object
    pattern: str
    negate: bool = False


@dataclass
class InOp:
    arg: object
    values: list
    negate: bool = False


@dataclass
class BetweenOp:
    arg: object
    low: object
    high: object
    negate: bool = False


@dataclass
class IsNullOp:
    arg: object
    negate: bool = False


@dataclass
class CaseOp:
    whens: list               # [(cond, value), ...]
    default: object


@dataclass
class FuncCall:
    name: str                 # scalar function (substr, extract_year, ...)
    args: list


@dataclass
class AggCall:
    func: str                 # count/sum/avg/min/max
    arg: object | None        # None for count(*)
    distinct: bool = False


# -- statements ----------------------------------------------------------------


@dataclass
class SelectItem:
    expr: object
    alias: str | None = None


@dataclass
class JoinClause:
    table: str
    alias: str | None
    join_type: str            # 'inner' | 'left'
    condition: object         # ON expression


@dataclass
class SelectStmt:
    items: list[SelectItem]
    table: str | None
    table_alias: str | None = None
    joins: list[JoinClause] = field(default_factory=list)
    where: object | None = None
    group_by: list = field(default_factory=list)
    having: object | None = None
    order_by: list = field(default_factory=list)   # [(expr, desc), ...]
    limit: int | None = None
    distinct: bool = False


@dataclass
class ColumnDef:
    name: str
    type_name: str
    type_arg: int | None
    nullable: bool


@dataclass
class CreateTableStmt:
    name: str
    columns: list[ColumnDef]
    primary_key: tuple[str, ...] = ()
    annotate: tuple[str, ...] = ()


@dataclass
class InsertStmt:
    table: str
    rows: list[list]
    #: ``(row, column, slot, negate)`` of each value a lifted literal
    #: supplied (see :class:`Literal`).
    slots: list[tuple] = field(default_factory=list)


@dataclass
class DropTableStmt:
    name: str


@dataclass
class SubqueryOp:
    """``expr IN (SELECT ...)`` / ``EXISTS (SELECT ...)`` / scalar subquery."""

    kind: str                 # 'in' | 'exists' | 'scalar'
    select: "SelectStmt"
    arg: object | None = None # the left operand for IN
    negate: bool = False


@dataclass
class UpdateStmt:
    table: str
    assignments: list         # [(column_name, expr), ...]
    where: object | None = None


@dataclass
class DeleteStmt:
    table: str
    where: object | None = None


@dataclass
class ExplainStmt:
    statement: "SelectStmt | UpdateStmt | DeleteStmt"


@dataclass
class VacuumStmt:
    table: str


# -- unions the parser and planner annotate with ------------------------------

Expression = (
    Literal | ColumnRef | Binary | BoolOp | NotOp | LikeOp | InOp
    | BetweenOp | IsNullOp | CaseOp | FuncCall | AggCall | SubqueryOp
)

Statement = (
    SelectStmt | CreateTableStmt | InsertStmt | DropTableStmt
    | UpdateStmt | DeleteStmt | ExplainStmt | VacuumStmt
)
