"""SQL entry point: parse, plan, execute against a Database."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.bees.drivers import stack_tiers
from repro.engine.dml import match_plan
from repro.engine.executor import explain
from repro.engine.expr import bind
from repro.engine.nodes import PlanNode
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
    and *timeout* go straight into ``db.execute`` for every plan a
    statement runs — a SELECT's, and the match plan of an UPDATE or
    DELETE (the deadline is not consulted once rows are being written):
    the concurrent server threads them per statement instead of swapping
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
        count = db.delete_where(
            stmt.table, _where(db, stmt), settings=settings, timeout=timeout
        )
        return SQLResult(f"DELETE {count}")
    if isinstance(stmt, ast.UpdateStmt):
        schema = db.relation(stmt.table).schema
        columns = schema.column_names()
        assignments = [
            (schema.attnum(column), bind(lower_expr(expr, columns), columns))
            for column, expr in stmt.assignments
        ]

        def updater(values: list) -> list:
            new_values = list(values)
            for attnum, expr in assignments:
                new_values[attnum] = expr.evaluate(values)
            return new_values

        count = db.update_where(
            stmt.table, _where(db, stmt), updater,
            settings=settings, timeout=timeout,
        )
        return SQLResult(f"UPDATE {count}")
    if isinstance(stmt, ast.VacuumStmt):
        report = db.vacuum(stmt.table)
        return SQLResult(
            f"VACUUM {report['pages_before']} -> {report['pages_after']} pages"
        )
    if isinstance(stmt, ast.ExplainStmt):
        target = stmt.statement
        if isinstance(target, ast.SelectStmt):
            plan = plan_select(db, target)
        else:
            # A write's match plan, as the tier stack will run it: the
            # answer to "which tier runs this UPDATE".
            plan = stack_tiers(
                plan_match(db, target), db,
                settings if settings is not None else db.settings, None,
            )
        lines = explain(plan).splitlines()
        return SQLResult("EXPLAIN", [(line,) for line in lines], ["plan"])
    raise TypeError(f"unhandled statement {type(stmt).__name__}")


def plan_match(
    db: "Database", stmt: "ast.UpdateStmt | ast.DeleteStmt"
) -> PlanNode:
    """The match plan of a parsed UPDATE/DELETE — what the statement
    runs to find its rows (EXPLAIN prints it; the oracle's N-way lane
    runs it under every tier without applying the write)."""
    return match_plan(db, stmt.table, _where(db, stmt))


def _where(db: "Database", stmt: "ast.UpdateStmt | ast.DeleteStmt") -> Any:
    """An UPDATE/DELETE's WHERE clause lowered over its relation's
    columns (``None`` when absent) — the qual of its match plan."""
    if stmt.where is None:
        return None
    return lower_expr(stmt.where, db.relation(stmt.table).schema.column_names())
