"""Naive planner: lower SQL AST onto executor plan trees.

Single-table and join queries become SeqScan / HashJoin pipelines with
Filter, HashAgg, Project, Sort, and Limit layered on per clause — always
the same plan shape for stock and bee-enabled databases, mirroring the
paper's pinned-plan methodology.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.catalog import (
    BOOL,
    DATE,
    FLOAT8,
    INT4,
    INT8,
    NUMERIC,
    TEXT,
    RelationSchema,
    char,
    make_schema,
    varchar,
)
from repro.engine import expr as E
from repro.engine.agg import HashAgg
from repro.engine.aggregates import AggSpec
from repro.engine.joins import HashJoin
from repro.engine.nodes import (
    Filter,
    Limit,
    PlanNode,
    Project,
    Rename,
    SeqScan,
    Sort,
)
from repro.sql import ast


class PlanningError(ValueError):
    """Raised when a statement cannot be lowered onto the executor."""


# -- name resolution -------------------------------------------------------------


def resolve_column(name: str, columns: list[str]) -> str:
    """Resolve a possibly-qualified column name against *columns*."""
    if name in columns:
        return name
    if "." not in name:
        matches = [c for c in columns if c.rsplit(".", 1)[-1] == name]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise PlanningError(f"ambiguous column {name!r}: {matches}")
    else:
        bare = name.rsplit(".", 1)[-1]
        if bare in columns:
            return bare
    raise PlanningError(f"unknown column {name!r} (have {columns})")


_SCALAR_FUNCS = {"substr", "length", "abs", "extract_year", "extract_month"}

#: One hole of a statement shape in the plan built for it:
#: ``(setter, slot, negate)`` — calling *setter* with the slot's lifted
#: value (negated first when *negate*) re-binds the plan constant.
Bind = tuple[Callable[[Any], None], int, bool]


def _hole(
    binds: list[Bind] | None, target: Any, attr: str, literal: ast.Literal
) -> None:
    """Record that ``target.attr`` holds lifted *literal*'s value."""
    if binds is not None and literal.slot is not None:
        binds.append(
            (partial(setattr, target, attr), literal.slot, literal.negate)
        )


def lower_expr(
    node, columns: list[str], binds: list[Bind] | None = None
) -> E.Expr:
    """Lower a SQL AST expression to a bound-ready engine expression.

    With *binds* every constant that came from a lifted literal is
    recorded there as a hole of the statement's shape."""
    if isinstance(node, ast.Literal):
        const = E.Const(node.value)
        _hole(binds, const, "value", node)
        return const
    if isinstance(node, ast.ColumnRef):
        return E.Col(resolve_column(node.name, columns))
    if isinstance(node, ast.Binary):
        left = lower_expr(node.left, columns, binds)
        right = lower_expr(node.right, columns, binds)
        if node.op in ("+", "-", "*", "/"):
            return E.Arith(node.op, left, right)
        return E.Cmp(node.op, left, right)
    if isinstance(node, ast.BoolOp):
        args = [lower_expr(a, columns, binds) for a in node.args]
        return E.And(*args) if node.op == "and" else E.Or(*args)
    if isinstance(node, ast.NotOp):
        return E.Not(lower_expr(node.arg, columns, binds))
    if isinstance(node, ast.LikeOp):
        return E.Like(
            lower_expr(node.arg, columns, binds), node.pattern, node.negate
        )
    if isinstance(node, ast.InOp):
        expr = E.InList(lower_expr(node.arg, columns, binds), node.values)
        return E.Not(expr) if node.negate else expr
    if isinstance(node, ast.BetweenOp):
        low = node.low
        high = node.high
        if not isinstance(low, ast.Literal) or not isinstance(high, ast.Literal):
            expr: E.Expr = E.And(
                E.Cmp(
                    ">=",
                    lower_expr(node.arg, columns, binds),
                    lower_expr(low, columns, binds),
                ),
                E.Cmp(
                    "<=",
                    lower_expr(node.arg, columns, binds),
                    lower_expr(high, columns, binds),
                ),
            )
        else:
            expr = E.Between(
                lower_expr(node.arg, columns, binds), low.value, high.value
            )
            _hole(binds, expr, "low", low)
            _hole(binds, expr, "high", high)
        return E.Not(expr) if node.negate else expr
    if isinstance(node, ast.IsNullOp):
        return E.IsNull(lower_expr(node.arg, columns, binds), node.negate)
    if isinstance(node, ast.CaseOp):
        whens = [
            (
                lower_expr(cond, columns, binds),
                lower_expr(value, columns, binds),
            )
            for cond, value in node.whens
        ]
        return E.Case(whens, lower_expr(node.default, columns, binds))
    if isinstance(node, ast.FuncCall):
        if node.name not in _SCALAR_FUNCS:
            raise PlanningError(f"unknown function {node.name!r}")
        return E.Func(
            node.name, *[lower_expr(a, columns, binds) for a in node.args]
        )
    if isinstance(node, ast.AggCall):
        raise PlanningError(
            "aggregate used where a scalar expression is required"
        )
    raise PlanningError(f"cannot lower {type(node).__name__}")


# -- aggregate plumbing ------------------------------------------------------------


def _collect_aggs(node, found: list) -> None:
    if isinstance(node, ast.AggCall):
        if node not in found:
            found.append(node)
        return
    for child in _children_of(node):
        _collect_aggs(child, found)


def _children_of(node: ast.Expression) -> list[ast.Expression]:
    if isinstance(node, ast.Binary):
        return [node.left, node.right]
    if isinstance(node, ast.BoolOp):
        return node.args
    if isinstance(node, (ast.NotOp, ast.LikeOp, ast.IsNullOp)):
        return [node.arg]
    if isinstance(node, ast.InOp):
        return [node.arg]
    if isinstance(node, ast.BetweenOp):
        return [node.arg, node.low, node.high]
    if isinstance(node, ast.CaseOp):
        flat = []
        for cond, value in node.whens:
            flat.extend([cond, value])
        flat.append(node.default)
        return flat
    if isinstance(node, ast.FuncCall):
        return node.args
    return []


def _substitute_aggs(
    node: ast.Expression, mapping: list[tuple[ast.AggCall, str]]
) -> ast.Expression:
    """Replace AggCall nodes with ColumnRefs to the agg output columns.

    *mapping* is a list of ``(agg_ast, output_name)`` pairs matched
    structurally, so the same aggregate written twice (e.g. in SELECT and
    HAVING) resolves to one output column — unless it contains a lifted
    literal: ``Literal.slot`` takes part in equality, so ``SUM(a * 2)``
    written twice is two aggregates, as ``SUM(a * 2)`` and ``SUM(a * 3)``
    are.  Both statements are one shape and share a query bee; were the
    plan to depend on the literals being equal, a cache hit would charge
    two aggregates where the ad hoc run charges one.
    """
    if isinstance(node, ast.AggCall):
        for agg, name in mapping:
            if agg == node:
                return ast.ColumnRef(name)
        raise PlanningError(f"aggregate {node.func!r} was not collected")
    if isinstance(node, ast.Binary):
        return ast.Binary(
            node.op,
            _substitute_aggs(node.left, mapping),
            _substitute_aggs(node.right, mapping),
        )
    if isinstance(node, ast.BoolOp):
        return ast.BoolOp(
            node.op, [_substitute_aggs(a, mapping) for a in node.args]
        )
    if isinstance(node, ast.NotOp):
        return ast.NotOp(_substitute_aggs(node.arg, mapping))
    if isinstance(node, ast.CaseOp):
        return ast.CaseOp(
            [
                (_substitute_aggs(c, mapping), _substitute_aggs(v, mapping))
                for c, v in node.whens
            ],
            _substitute_aggs(node.default, mapping),
        )
    if isinstance(node, ast.FuncCall):
        return ast.FuncCall(
            node.name, [_substitute_aggs(a, mapping) for a in node.args]
        )
    return node


# -- subquery decorrelation ------------------------------------------------------------


def _resolve_initplans(
    db: Any, node: ast.Expression, top_level: bool = False
) -> ast.Expression:
    """Execute uncorrelated scalar/EXISTS subqueries (InitPlans) and splice
    their results in as literals.  IN-subqueries are legal only as
    top-level AND conjuncts (returned untouched for the semi/anti-join
    rewrite); anywhere else they raise :class:`PlanningError`."""
    if isinstance(node, ast.SubqueryOp):
        if node.kind == "scalar":
            rows = db.execute(plan_select(db, node.select), emit=False)
            if len(rows) > 1 or (rows and len(rows[0]) != 1):
                raise PlanningError(
                    "scalar subquery must return at most one row, one column"
                )
            return ast.Literal(rows[0][0] if rows else None)
        if node.kind == "exists":
            probe = ast.SelectStmt(
                items=node.select.items,
                table=node.select.table,
                table_alias=node.select.table_alias,
                joins=node.select.joins,
                where=node.select.where,
                group_by=node.select.group_by,
                having=node.select.having,
                order_by=[],
                limit=1,
            )
            rows = db.execute(plan_select(db, probe), emit=False)
            found = bool(rows)
            return ast.Literal((not found) if node.negate else found)
        if node.kind == "in" and top_level:
            return node
        raise PlanningError(
            "IN (SELECT ...) is only supported as a top-level AND conjunct"
        )
    if isinstance(node, ast.Binary):
        return ast.Binary(
            node.op,
            _resolve_initplans(db, node.left),
            _resolve_initplans(db, node.right),
        )
    if isinstance(node, ast.BoolOp):
        if node.op == "and" and top_level:
            return ast.BoolOp(
                "and",
                [_resolve_initplans(db, a, top_level=True) for a in node.args],
            )
        return ast.BoolOp(
            node.op, [_resolve_initplans(db, a) for a in node.args]
        )
    if isinstance(node, ast.NotOp):
        return ast.NotOp(_resolve_initplans(db, node.arg))
    if isinstance(node, (ast.LikeOp, ast.IsNullOp, ast.InOp)):
        rebuilt = type(node)(**vars(node))
        rebuilt.arg = _resolve_initplans(db, node.arg)
        return rebuilt
    if isinstance(node, ast.BetweenOp):
        return ast.BetweenOp(
            _resolve_initplans(db, node.arg),
            _resolve_initplans(db, node.low),
            _resolve_initplans(db, node.high),
            node.negate,
        )
    if isinstance(node, ast.CaseOp):
        return ast.CaseOp(
            [
                (_resolve_initplans(db, c), _resolve_initplans(db, v))
                for c, v in node.whens
            ],
            _resolve_initplans(db, node.default),
        )
    if isinstance(node, ast.FuncCall):
        return ast.FuncCall(
            node.name, [_resolve_initplans(db, a) for a in node.args]
        )
    return node


# -- plan construction ---------------------------------------------------------------


def _scan(db, table: str, alias: str | None) -> PlanNode:
    node = SeqScan(table)
    node.bind_schema(db.relation(table).schema)
    if alias:
        return Rename(node, alias)
    return node


def _split_join_condition(
    condition: ast.Expression,
    left_cols: list[str],
    right_cols: list[str],
) -> tuple[list[str], list[str], ast.Expression | None]:
    """Partition ON conjuncts into equi-key pairs and a residual qual."""
    conjuncts = (
        condition.args if isinstance(condition, ast.BoolOp)
        and condition.op == "and" else [condition]
    )
    left_keys: list[str] = []
    right_keys: list[str] = []
    residual = []
    for conjunct in conjuncts:
        if (
            isinstance(conjunct, ast.Binary)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            a, b = conjunct.left.name, conjunct.right.name
            placed = False
            for first, second in ((a, b), (b, a)):
                try:
                    left_key = resolve_column(first, left_cols)
                    right_key = resolve_column(second, right_cols)
                except PlanningError:
                    continue
                left_keys.append(left_key)
                right_keys.append(right_key)
                placed = True
                break
            if placed:
                continue
        residual.append(conjunct)
    if not left_keys:
        raise PlanningError(
            "JOIN requires at least one equality between the two tables"
        )
    residual_ast = (
        None
        if not residual
        else (residual[0] if len(residual) == 1 else ast.BoolOp("and", residual))
    )
    return left_keys, right_keys, residual_ast


def _output_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name.rsplit(".", 1)[-1]
    if isinstance(item.expr, ast.AggCall):
        return item.expr.func
    return f"col{index}"


def plan_select(
    db, stmt: ast.SelectStmt, binds: list[Bind] | None = None
) -> PlanNode:
    """Build the executor plan for a SELECT statement (*binds* as for
    :func:`lower_expr`)."""
    if stmt.table is None:
        raise PlanningError("SELECT without FROM is not supported")
    plan: PlanNode = _scan(db, stmt.table, stmt.table_alias)
    for join in stmt.joins:
        right = _scan(db, join.table, join.alias)
        left_keys, right_keys, residual = _split_join_condition(
            join.condition, plan.columns, right.columns
        )
        extra = (
            lower_expr(residual, plan.columns + right.columns, binds)
            if residual is not None
            else None
        )
        plan = HashJoin(
            plan, right, left_keys, right_keys,
            join_type=join.join_type, extra_qual=extra,
        )
    where = stmt.where
    in_subqueries: list[ast.SubqueryOp] = []
    if where is not None:
        where = _resolve_initplans(db, where, top_level=True)
        conjuncts = (
            where.args
            if isinstance(where, ast.BoolOp) and where.op == "and"
            else [where]
        )
        plain = []
        for conjunct in conjuncts:
            if isinstance(conjunct, ast.SubqueryOp):
                in_subqueries.append(conjunct)
            else:
                plain.append(conjunct)
        if not plain:
            where = None
        elif len(plain) == 1:
            where = plain[0]
        else:
            where = ast.BoolOp("and", plain)
    for sub in in_subqueries:
        if not isinstance(sub.arg, ast.ColumnRef):
            raise PlanningError(
                "IN (SELECT ...) requires a plain column on the left"
            )
        subplan = plan_select(db, sub.select)
        if len(subplan.columns) != 1:
            raise PlanningError("IN subquery must return exactly one column")
        plan = HashJoin(
            plan,
            subplan,
            [resolve_column(sub.arg.name, plan.columns)],
            [subplan.columns[0]],
            join_type="anti" if sub.negate else "semi",
        )
    if where is not None:
        plan = Filter(plan, lower_expr(where, plan.columns, binds))

    aggs: list[ast.AggCall] = []
    for item in stmt.items:
        _collect_aggs(item.expr, aggs)
    if stmt.having is not None:
        _collect_aggs(stmt.having, aggs)

    items = list(stmt.items)
    if aggs or stmt.group_by:
        mapping: list = []
        specs = []
        for i, agg in enumerate(aggs):
            name = f"__agg{i}"
            mapping.append((agg, name))
            arg = (
                lower_expr(agg.arg, plan.columns, binds)
                if agg.arg is not None
                else None
            )
            specs.append(
                AggSpec(agg.func, arg, distinct=agg.distinct, name=name)
            )
        group = []
        for i, group_expr in enumerate(stmt.group_by):
            lowered = lower_expr(group_expr, plan.columns, binds)
            if isinstance(group_expr, ast.ColumnRef):
                name = resolve_column(group_expr.name, plan.columns)
            else:
                name = f"__group{i}"
            group.append((lowered, name))
        plan = HashAgg(plan, group, specs)
        items = [
            ast.SelectItem(_substitute_aggs(item.expr, mapping), item.alias)
            for item in items
        ]
        if stmt.having is not None:
            having = _substitute_aggs(stmt.having, mapping)
            plan = Filter(plan, lower_expr(having, plan.columns, binds))

    # Projection, with ORDER BY placed before or after it depending on
    # whether the sort keys survive projection (SQL allows ordering by
    # non-projected source columns).
    star = (
        len(items) == 1
        and isinstance(items[0].expr, ast.ColumnRef)
        and items[0].expr.name == "*"
    )
    if star:
        if stmt.order_by:
            keys = [
                (lower_expr(expr, plan.columns, binds), desc)
                for expr, desc in stmt.order_by
            ]
            plan = Sort(plan, keys)
    else:
        names: list[str] = []
        for i, item in enumerate(items):
            name = _output_name(item, i)
            while name in names:
                name = f"{name}_{i}"
            names.append(name)
        alias_exprs = {
            name: item.expr for name, item in zip(names, items)
        }

        sort_after = True
        order_keys = []
        if stmt.order_by:
            # Holes of keys lowered before the attempt failed belong to
            # discarded constants: keep them only if it succeeds.
            key_binds: list[Bind] | None = None if binds is None else []
            try:
                order_keys = [
                    (lower_expr(expr, names, key_binds), desc)
                    for expr, desc in stmt.order_by
                ]
                if binds is not None:
                    binds += key_binds
            except PlanningError:
                sort_after = False
                # Sort pre-projection; output aliases are substituted by
                # their defining expressions.
                resolved = []
                for expr, desc in stmt.order_by:
                    if (
                        isinstance(expr, ast.ColumnRef)
                        and expr.name in alias_exprs
                    ):
                        expr = alias_exprs[expr.name]
                    resolved.append(
                        (lower_expr(expr, plan.columns, binds), desc)
                    )
                plan = Sort(plan, resolved)

        exprs = [
            lower_expr(item.expr, plan.columns, binds) for item in items
        ]
        plan = Project(plan, exprs, names)
        if stmt.order_by and sort_after:
            plan = Sort(plan, order_keys)

    if stmt.distinct:
        plan = HashAgg(
            plan,
            [(E.Col(name), name) for name in plan.columns],
            [],
        )
    if stmt.limit is not None:
        plan = Limit(plan, stmt.limit)
    return plan


# -- DDL lowering -------------------------------------------------------------------


_TYPE_MAP = {
    "int": INT4, "integer": INT4, "int4": INT4,
    "bigint": INT8, "int8": INT8,
    "float": FLOAT8, "float8": FLOAT8, "double": FLOAT8, "real": FLOAT8,
    "numeric": NUMERIC, "decimal": NUMERIC,
    "date": DATE,
    "bool": BOOL, "boolean": BOOL,
    "text": TEXT,
}


def schema_from_create(stmt: ast.CreateTableStmt) -> RelationSchema:
    """Translate a CREATE TABLE statement into a RelationSchema."""
    columns = []
    for column in stmt.columns:
        type_name = column.type_name
        if type_name == "char":
            if column.type_arg is None:
                raise PlanningError("char requires a width: char(n)")
            sql_type = char(column.type_arg)
        elif type_name == "varchar":
            if column.type_arg is None:
                raise PlanningError("varchar requires a width: varchar(n)")
            sql_type = varchar(column.type_arg)
        elif type_name in _TYPE_MAP:
            sql_type = _TYPE_MAP[type_name]
        else:
            raise PlanningError(f"unknown type {type_name!r}")
        columns.append((column.name, sql_type, column.nullable))
    return make_schema(stmt.name, columns, stmt.primary_key)
