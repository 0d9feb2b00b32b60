"""SQL entry point: the statement front door.

``db.sql()`` and ``HiveServer.execute`` both run a statement through
:class:`Statement`:

1. **lift** — one regex pass (:func:`repro.sql.lexer.lift`) pulls the
   literals out of the text; what is left, the literals' kinds and the
   :class:`BeeSettings` in force are the statement's *shape key*;
2. **hit** — the shape's query bee (:class:`repro.bees.maker.QueryBee`)
   is checked out of ``BeeCache.query_bees``, *bound* to this
   statement's literals and run: no parse, no planning, no tier
   stacking, no routine instantiation;
3. **miss** — today's path (parse → plan → run) plus recording the
   query bee it built, so there is one execution path, not two.

EXPLAIN, DDL and VACUUM, statements with a subquery (the planner runs it
and splices the *result* in as a literal, so such a plan depends on the
data), statements with a literal no plan constant stands for, and a miss
during which beeshield recorded a fault are *declined*: they run exactly
as before and are counted.  :func:`execute_statement` is that path —
``execute_statement(db, parse(sql))`` never consults the cache, and is
the reference the differential oracle compares a cache-served statement
against.
"""

from __future__ import annotations

from dataclasses import fields
from functools import partial
from typing import TYPE_CHECKING, Iterator

from repro.bees.drivers import stack_tiers
from repro.bees.maker import QueryBee
from repro.engine import dml
from repro.engine.executor import explain, resolve_shield, stack
from repro.engine.expr import bind
from repro.engine.nodes import PlanNode
from repro.sql import ast
from repro.sql.lexer import lift, tokenize
from repro.sql.parser import Parser, literal_slots, parse
from repro.sql.planner import Bind, lower_expr, plan_select, schema_from_create

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


# -- statement classification -------------------------------------------------


def referenced_tables(node) -> set[str]:
    """Every relation name a statement subtree references.

    Generic dataclass walk: collects ``SelectStmt.table``, join tables,
    and recurses into nested ``SubqueryOp`` selects wherever they occur
    (WHERE, HAVING, select items, ORDER BY).
    """
    names: set[str] = set()
    _collect_tables(node, names)
    return names


def _collect_tables(node, names: set[str]) -> None:
    if isinstance(node, ast.SelectStmt):
        if node.table:
            names.add(node.table)
        for join in node.joins:
            names.add(join.table)
    if hasattr(node, "__dataclass_fields__"):
        for f in fields(node):
            _collect_tables(getattr(node, f.name), names)
    elif isinstance(node, (list, tuple)):
        for item in node:
            _collect_tables(item, names)


def classify_statement(stmt) -> tuple[str, tuple[str, ...]]:
    """``(kind, relations)`` for a parsed statement.

    *kind* is ``read`` (snapshot-pinned by the server), ``write``
    (WAL-logged), or ``ddl`` (WAL-logged).
    """
    if isinstance(stmt, ast.ExplainStmt) and not isinstance(
        stmt.statement, ast.SelectStmt
    ):
        # EXPLAIN UPDATE/DELETE only plans the write's match scan.
        return "read", (stmt.statement.table,)
    if isinstance(stmt, (ast.SelectStmt, ast.ExplainStmt)):
        return "read", tuple(sorted(referenced_tables(stmt)))
    if isinstance(stmt, (ast.InsertStmt, ast.UpdateStmt, ast.DeleteStmt)):
        relations = {stmt.table} | referenced_tables(stmt)
        return "write", tuple(sorted(relations))
    if isinstance(stmt, ast.VacuumStmt):
        return "write", (stmt.table,)
    if isinstance(stmt, (ast.CreateTableStmt, ast.DropTableStmt)):
        return "ddl", (stmt.name,)
    raise TypeError(f"unhandled statement {type(stmt).__name__}")


# -- prepare and run: the one execution path ----------------------------------

_VERBS = {
    ast.SelectStmt: "select",
    ast.InsertStmt: "insert",
    ast.UpdateStmt: "update",
    ast.DeleteStmt: "delete",
}


def prepare(
    db: "Database", stmt: ast.Statement, binds: list[Bind] | None = None
) -> QueryBee | None:
    """Lower a SELECT/INSERT/UPDATE/DELETE to the record :func:`run`
    executes — its query bee, not yet keyed, its plan not yet stacked;
    ``None`` for the statement classes that have none (DDL, VACUUM,
    EXPLAIN).  With *binds* every plan constant a lifted literal
    supplied is recorded there as one of the shape's holes."""
    verb = _VERBS.get(type(stmt))
    if verb is None:
        return None
    kind, relations = classify_statement(stmt)
    bee = QueryBee(
        None, verb, kind, relations, db.bee_module.query_epoch,
        binds if binds is not None else [],
    )
    if verb == "select":
        bee.plan = plan_select(db, stmt, binds)
        bee.columns = list(bee.plan.columns)
        return bee
    bee.table = stmt.table
    if verb == "insert":
        bee.rows = stmt.rows
        if binds is not None:
            binds += [
                (partial(bee.rows[row].__setitem__, column), slot, negate)
                for row, column, slot, negate in stmt.slots
            ]
        return bee
    if verb == "update":
        schema = db.relation(stmt.table).schema
        columns = schema.column_names()
        bee.assignments = [
            (
                schema.attnum(column),
                bind(lower_expr(expr, columns, binds), columns),
            )
            for column, expr in stmt.assignments
        ]
    bee.plan = plan_match(db, stmt, binds)
    return bee


def run(
    db: "Database",
    bee: QueryBee,
    settings: "BeeSettings | None" = None,
    timeout: float | None = None,
) -> SQLResult:
    """Execute a prepared statement.  *settings* and *timeout* go to
    every plan it runs — a SELECT's, and the match plan of an UPDATE or
    DELETE (the deadline is not consulted once rows are being written).
    """
    verb = bee.verb
    if verb == "insert":
        count = dml.insert_rows(db, bee.table, bee.rows)
        return SQLResult(f"INSERT {count}")
    if verb == "select":
        rows = db.execute(bee.plan, settings=settings, timeout=timeout)
        return SQLResult(f"SELECT {len(rows)}", rows, list(bee.columns))
    matches = dml.matches(db, bee.plan, settings, timeout)
    if verb == "delete":
        return SQLResult(f"DELETE {dml.apply_delete(db, bee.table, matches)}")
    assignments = bee.assignments

    def updater(values: list) -> list:
        new_values = list(values)
        for attnum, expr in assignments:
            new_values[attnum] = expr.evaluate(values)
        return new_values

    count = dml.apply_update(db, bee.table, matches, updater)
    return SQLResult(f"UPDATE {count}")


def execute_statement(
    db: "Database",
    stmt: ast.Statement,
    settings: "BeeSettings | None" = None,
    timeout: float | None = None,
) -> SQLResult:
    """Execute one parsed statement against *db*, ad hoc: the query-bee
    cache is neither consulted nor filled.

    SELECT returns rows; CREATE TABLE (with the paper's ``ANNOTATE``
    clause), INSERT, UPDATE, DELETE, DROP TABLE and VACUUM return
    status-only results; EXPLAIN returns the plan as rows.  *settings*
    and *timeout* as for :func:`run`: the concurrent server threads them
    per statement instead of swapping ``db.settings`` / ``db._deadline``
    (single-session fields it must not touch); ``db.sql`` leaves both
    ``None`` and swaps.
    """
    bee = prepare(db, stmt)
    if bee is not None:
        return run(db, bee, settings, timeout)
    if isinstance(stmt, ast.CreateTableStmt):
        schema = schema_from_create(stmt)
        db.create_table(schema, annotate=stmt.annotate)
        return SQLResult("CREATE TABLE")
    if isinstance(stmt, ast.DropTableStmt):
        db.drop_table(stmt.name)
        return SQLResult("DROP TABLE")
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
    db: "Database",
    stmt: "ast.UpdateStmt | ast.DeleteStmt",
    binds: list[Bind] | None = None,
) -> PlanNode:
    """The match plan of a parsed UPDATE/DELETE — what the statement
    runs to find its rows (EXPLAIN prints it; the oracle's N-way lane
    runs it under every tier without applying the write)."""
    qual = None
    if stmt.where is not None:
        columns = db.relation(stmt.table).schema.column_names()
        qual = lower_expr(stmt.where, columns, binds)
    return dml.match_plan(db, stmt.table, qual)


# -- the front door -----------------------------------------------------------


class Statement:
    """One ``db.sql()`` / server statement, from look-up to check-in.

    Construction lifts the literals and *peeks* at the shape's query bee
    for the statement's class (:attr:`kind`, :attr:`relations`),
    parsing only when there is none.  :meth:`run` takes the bee out of
    the cache for the duration of the execution — an atomic ``dict.pop``,
    so a concurrent statement of the same shape finds nothing, builds
    its own and both are put back — binds it and runs it; the server
    calls it with its admission gate held, so no other statement runs
    between a check-out and its check-in.  *settings* is the statement's effective
    :class:`BeeSettings` (``None``: the database's): part of the key,
    and what :meth:`run` executes under.
    """

    def __init__(
        self, db: "Database", sql: str, settings: "BeeSettings | None" = None
    ) -> None:
        self.db = db
        self.sql = sql
        self.settings = settings
        self.lifted = lifted = lift(sql)
        self.key = None
        self.stmt: ast.Statement | None = None
        if lifted is not None:
            self.key = (
                lifted.text, lifted.kinds,
                settings if settings is not None else db.settings,
            )
            bee = db.bee_module.cache.get_query_bee(self.key)
            if bee is not None:
                self.kind, self.relations = bee.kind, bee.relations
                return
        self._parse()
        self.kind, self.relations = classify_statement(self.stmt)

    def _parse(self) -> None:
        lifted = self.lifted
        parser = Parser(
            tokenize(self.sql),
            literal_slots(lifted.positions) if lifted is not None else None,
        )
        self.stmt = parser.parse_statement()
        if parser.has_subquery:
            self.key = None     # declined: its plan depends on the data

    def run(self, timeout: float | None = None) -> SQLResult:
        db, module, settings = self.db, self.db.bee_module, self.settings
        bee = None if self.key is None else module.check_out(self.key)
        if bee is not None:
            bee.bind(self.lifted.values)
            try:
                return run(db, bee, settings, timeout)
            finally:
                module.check_in(bee)
        if self.stmt is None:
            self._parse()   # peeked at a bee another statement then took
        binds: list[Bind] | None = None if self.key is None else []
        bee = prepare(db, self.stmt, binds)
        if bee is None or binds is None or (
            {slot for _setter, slot, _negate in binds}
            != set(range(len(self.lifted.values)))
        ):
            # Not a cacheable class, or a lifted literal no plan
            # constant stands for (a form the lifter's frozen contexts
            # missed): never served frozen.
            module.decline_statement()
            if bee is None:
                return execute_statement(db, self.stmt, settings, timeout)
            return run(db, bee, settings, timeout)
        faults = db.resilience.total_faults()
        if bee.plan is not None:
            effective = settings if settings is not None else db.settings
            bee.plan.stacked = (effective, stack(
                db, bee.plan, effective, resolve_shield(db, effective)
            ))
        result = run(db, bee, settings, timeout)
        if db.resilience.total_faults() == faults:
            module.register_query_bee(self.key, bee)
        else:
            # A fusion or generation fault shaped this plan (the shield
            # kept what the faulting rewriter was given): the next
            # statement of the shape gets a fresh attempt.
            module.decline_statement()
        return result


def execute_sql(db: "Database", sql: str) -> SQLResult:
    """Execute one SQL statement against *db* under its settings."""
    return Statement(db, sql).run()
