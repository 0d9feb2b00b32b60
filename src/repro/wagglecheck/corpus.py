"""The plan corpus wagglecheck sweeps.

Three sources, mirroring what the engine actually runs:

* the 22 TPC-H queries against a loaded scale-0.01 database (their
  hand-built plans, including every sub-plan executed along the way,
  captured by hooking ``db.execute``);
* a hand-written TPC-C statement set covering the planner surface the
  OLTP schema exercises (nullable columns, DATE arithmetic, DISTINCT,
  LEFT JOIN, HAVING) planned through the SQL front end;
* a fuzzed oracle run, which also populates the bee module's memoized
  pipeline/vector driver caches — every cached spec is replayed by the
  rewrite pass against the anchor it was compiled from.

Captured plans are handed to *on_plan* immediately after each
successful execution: that is the moment the plan is fully bound and
the catalog still matches it (the oracle drops and recreates tables, so
deferring the analysis would manufacture false unknown-relation and
stale-layout findings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Corpus:
    """What remains to check after the per-plan callbacks ran."""

    #: ``(subject, spec, anchor, db)`` — memoized driver specs to replay.
    cached: list[tuple] = field(default_factory=list)
    #: ``(label, db)`` — layout cross-check + data-section audit inputs.
    databases: list[tuple] = field(default_factory=list)
    statements: int = 0


# Planner-surface coverage over the TPC-C schema: nullable columns,
# dates, DISTINCT, LEFT JOIN, HAVING, LIKE, IS NULL, LIMIT.
TPCC_STATEMENTS = (
    "SELECT * FROM warehouse",
    "SELECT w_id, w_name FROM warehouse WHERE w_tax > 0.05",
    "SELECT d_w_id, count(*) FROM district GROUP BY d_w_id",
    "SELECT c_last, c_balance FROM tpcc_customer "
    "WHERE c_balance < 0 ORDER BY c_balance LIMIT 10",
    "SELECT DISTINCT c_credit FROM tpcc_customer",
    "SELECT count(DISTINCT o_c_id) FROM oorder",
    "SELECT o_id, o_entry_d FROM oorder WHERE o_carrier_id IS NULL",
    "SELECT ol_w_id, sum(ol_amount), avg(ol_quantity) FROM order_line "
    "GROUP BY ol_w_id HAVING sum(ol_amount) > 0",
    "SELECT o_id, c_last FROM oorder "
    "INNER JOIN tpcc_customer ON o_c_id = c_id",
    "SELECT o_id, ol_amount FROM oorder "
    "LEFT JOIN order_line ON o_id = ol_o_id",
    "SELECT i_name, s_quantity FROM item "
    "INNER JOIN stock ON i_id = s_i_id WHERE s_quantity < 50",
    "SELECT no_w_id, no_d_id, min(no_o_id) FROM new_order "
    "GROUP BY no_w_id, no_d_id",
    "SELECT h_w_id, sum(h_amount) FROM history "
    "WHERE h_date > DATE '2024-01-01' GROUP BY h_w_id",
    "SELECT s_i_id FROM stock WHERE s_data LIKE '%original%'",
    "SELECT max(ol_delivery_d) FROM order_line "
    "WHERE ol_delivery_d IS NOT NULL",
)

OnPlan = Callable[[str, object, object], None]


def _capture(db, label: str, on_plan: OnPlan, run) -> None:
    """Run *run(db)* with ``db.execute`` hooked: every plan that executes
    successfully is handed to *on_plan* while its bindings are live."""
    original = db.execute
    counter = 0

    def hooked(plan, *pargs, **kwargs):
        nonlocal counter
        subject = f"{label}[{counter}]"
        counter += 1
        result = original(plan, *pargs, **kwargs)
        on_plan(subject, plan, db)
        return result

    db.execute = hooked
    try:
        run(db)
    finally:
        del db.execute     # restore the bound method


def _tpch(corpus: Corpus, on_plan: OnPlan) -> None:
    from repro.bees.settings import BeeSettings
    from repro.workloads.tpch.loader import build_tpch_database
    from repro.workloads.tpch.queries import QUERIES

    db = build_tpch_database(
        BeeSettings.all_bees().enabling(pipelines=True), scale_factor=0.01
    )
    for number in sorted(QUERIES):
        query = QUERIES[number]
        _capture(db, f"tpch/q{number:02d}", on_plan, query)
        corpus.statements += 1
    corpus.databases.append(("tpch", db))


def _tpcc(corpus: Corpus, on_plan: OnPlan) -> None:
    from repro.bees.settings import BeeSettings
    from repro.db import Database
    from repro.workloads.tpcc.schema import ALL_SCHEMAS

    db = Database(BeeSettings.all_bees().enabling(pipelines=True))
    for name in ALL_SCHEMAS:
        db.create_table(ALL_SCHEMAS[name]())
    for index, statement in enumerate(TPCC_STATEMENTS):
        _capture(
            db, f"tpcc/{index}", on_plan,
            lambda d, s=statement: d.sql(s),
        )
        corpus.statements += 1
    corpus.databases.append(("tpcc", db))


def _oracle(corpus: Corpus, on_plan: OnPlan, seed: int, statements: int) -> None:
    from repro.bees.settings import BeeSettings
    from repro.db import Database
    from repro.oracle.generator import StatementGenerator
    from repro.oracle.normalize import run_statement

    def drive(db, label: str) -> None:
        generator = StatementGenerator(seed)
        pending = list(generator.bootstrap())
        count = 0
        while count < statements:
            stmt = pending.pop(0) if pending else generator.next_statement()
            _capture(
                db, f"{label}/{count}:{stmt.kind}", on_plan,
                lambda d, s=stmt.sql: run_statement(d, s),
            )
            count += 1
        corpus.statements += count

    db = Database(BeeSettings.all_bees().enabling(pipelines=True))
    drive(db, "oracle")
    corpus.databases.append(("oracle", db))
    for key, anchor, spec, _routine in sorted(
        db.bee_module.fused_entries("pipeline"), key=lambda entry: entry[0]
    ):
        corpus.cached.append((f"cache/pipeline/{key}", spec, anchor, db))

    vdb = Database(BeeSettings.vectorized())
    drive(vdb, "oracle-vec")
    corpus.databases.append(("oracle-vec", vdb))
    for key, anchor, spec, _routine in sorted(
        vdb.bee_module.fused_entries("vector"), key=lambda entry: entry[0]
    ):
        corpus.cached.append((f"cache/vector/{key}", spec, anchor, vdb))


def collect(seed: int, statements: int, on_plan: OnPlan) -> Corpus:
    """Drive the full corpus, calling *on_plan* per executed plan."""
    corpus = Corpus()
    _tpch(corpus, on_plan)
    _tpcc(corpus, on_plan)
    _oracle(corpus, on_plan, seed, statements)
    return corpus
