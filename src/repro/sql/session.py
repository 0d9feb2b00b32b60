"""SQL entry point: parse, plan, execute against a Database."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.engine.nodes import ExecContext
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.planner import lower_expr, plan_select, schema_from_create

if TYPE_CHECKING:
    from repro.bees.settings import BeeSettings
    from repro.db import Database


class SQLResult:
    """Result of one SQL statement: rows (for SELECT) plus a status tag."""

    def __init__(self, status: str, rows: list[tuple] | None = None,
                 columns: list[str] | None = None) -> None:
        self.status = status
        self.rows = rows if rows is not None else []
        self.columns = columns or []

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"SQLResult({self.status}, {len(self.rows)} rows)"


def execute_sql(db: "Database", sql: str) -> SQLResult:
    """Parse and execute one SQL statement against *db*."""
    return execute_statement(db, parse(sql))


def execute_statement(
    db: "Database",
    stmt: ast.Statement,
    settings: "BeeSettings | None" = None,
    timeout: float | None = None,
) -> SQLResult:
    """Execute one parsed statement against *db* — the one dispatcher
    behind both ``db.sql`` and the server.

    SELECT returns rows; CREATE TABLE (with the paper's ``ANNOTATE``
    clause), INSERT, UPDATE, DELETE, DROP TABLE and VACUUM return
    status-only results; EXPLAIN returns the plan as rows.  *settings*
    and *timeout* go straight into ``db.execute`` for a SELECT: the
    concurrent server threads them per statement instead of swapping
    ``db.settings`` / ``db._deadline`` (single-session fields it must
    not touch); ``db.sql`` leaves both ``None`` and swaps.
    """
    if isinstance(stmt, ast.SelectStmt):
        plan = plan_select(db, stmt)
        rows = db.execute(plan, settings=settings, timeout=timeout)
        return SQLResult(f"SELECT {len(rows)}", rows, list(plan.columns))
    if isinstance(stmt, ast.CreateTableStmt):
        schema = schema_from_create(stmt)
        db.create_table(schema, annotate=stmt.annotate)
        return SQLResult("CREATE TABLE")
    if isinstance(stmt, ast.InsertStmt):
        for row in stmt.rows:
            db.insert(stmt.table, row)
        return SQLResult(f"INSERT {len(stmt.rows)}")
    if isinstance(stmt, ast.DropTableStmt):
        db.drop_table(stmt.name)
        return SQLResult("DROP TABLE")
    if isinstance(stmt, ast.DeleteStmt):
        predicate = _row_predicate(db, stmt.table, stmt.where)
        count = db.delete_where(stmt.table, predicate)
        return SQLResult(f"DELETE {count}")
    if isinstance(stmt, ast.UpdateStmt):
        schema = db.relation(stmt.table).schema
        assignments = [
            (schema.attnum(column), _bound_expr(db, stmt.table, expr))
            for column, expr in stmt.assignments
        ]
        predicate = _row_predicate(db, stmt.table, stmt.where)

        def updater(values: list) -> list:
            new_values = list(values)
            for attnum, expr in assignments:
                new_values[attnum] = expr.evaluate(values)
            return new_values

        count = db.update_where(stmt.table, predicate, updater)
        return SQLResult(f"UPDATE {count}")
    if isinstance(stmt, ast.VacuumStmt):
        report = db.vacuum(stmt.table)
        return SQLResult(
            f"VACUUM {report['pages_before']} -> {report['pages_after']} pages"
        )
    if isinstance(stmt, ast.ExplainStmt):
        from repro.engine.executor import explain

        plan = plan_select(db, stmt.select)
        lines = explain(plan).splitlines()
        return SQLResult("EXPLAIN", [(line,) for line in lines], ["plan"])
    raise TypeError(f"unhandled statement {type(stmt).__name__}")


def _bound_expr(db: "Database", table: str, expr_ast: ast.Expression) -> Any:
    """Lower and bind an expression against a relation's schema columns."""
    from repro.engine.expr import bind

    columns = db.relation(table).schema.column_names()
    return bind(lower_expr(expr_ast, columns), columns)


def _row_predicate(
    db: "Database", table: str, where: ast.Expression | None
) -> Callable[[list], bool]:
    """A values-list callable for UPDATE/DELETE WHERE clauses.

    Charges what ``Filter`` charges for the qual: the EVP query bee
    (``settings.evp``) charges itself, generic interpretation charges
    ``qual.generic_cost`` per row.  A specialized predicate carries its
    generic twin as ``predicate.generic`` — what the match scan redoes
    the statement with when a bee faults (``dml.match_rows``).
    """
    if where is None:
        return lambda _values: True
    qual = _bound_expr(db, table, where)
    charge, cost, evaluate = db.ledger.charge, qual.generic_cost, qual.evaluate

    def generic(values: list) -> bool:
        charge(cost)
        return evaluate(values) is True

    ctx = ExecContext(db)
    if not ctx.settings.evp:
        return generic
    if ctx.shield is None:
        fn = ctx.bees.get_evp(qual).fn
    else:
        # checked: a non-boolean verdict raises the retry signal.
        entry = ctx.shield.predicate(ctx, qual, False, checked=True)
        if entry is None:      # quarantined, or generation faulted
            return generic
        fn = entry[0]

    def specialized(values: list) -> bool:
        return fn(values) is True

    specialized.generic = generic  # type: ignore[attr-defined]
    return specialized
