"""Proto-statements: a statement whose shape has a query bee lifts its
literals, binds them into the cached plan, re-patches the routines'
holes and runs — and is indistinguishable, by rows and by ledger, from
the statement parsed and planned from scratch.

The reference everywhere is the ad hoc path,
``execute_statement(db, parse(sql))``, which never consults the cache.
"""

from __future__ import annotations

import copy
import gc
import importlib.util
import inspect
import random
import re
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import repro
from repro.bees.collector import DEFAULT_QUERY_BEE_BUDGET
from repro.bees.drivers import FusedDriver
from repro.bees.maker import BeeMaker
from repro.bees.settings import BeeSettings
from repro.db import Database
from repro.oracle.generator import StatementGenerator, sibling_sql, substitute
from repro.resilience import QueryTimeout
from repro.resilience.chaos import ChaosInjector
from repro.resilience.registry import CONSECUTIVE_FAILURES
from repro.server.core import HiveServer
from repro.sql import SQLSyntaxError, parse, tokenize
from repro.sql import session as session_mod
from repro.sql.lexer import lift
from repro.sql.session import Statement, execute_statement
from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import create_tables

REPO = Path(__file__).resolve().parent.parent


def _load_stmtgen():
    """The benchmark's statement generator (``sql_short``'s stream)."""
    path = REPO / "benchmarks" / "spine" / "stmtgen.py"
    spec = importlib.util.spec_from_file_location("spine_stmtgen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


stmtgen = _load_stmtgen()

SMALL_TABLES = ("region", "nation", "supplier", "customer", "part")
POINTS = {
    "stock": BeeSettings.stock(),
    "all_bees": BeeSettings.all_bees(),
    "all_bees+agg": BeeSettings.all_bees().enabling(agg=True),
    "pipelined": BeeSettings.pipelined(),
    "vectorized": BeeSettings.vectorized(),
}


@pytest.fixture(scope="module")
def small_rows():
    gen = TPCHGenerator(0.002, 7)
    return {name: list(getattr(gen, name)()) for name in SMALL_TABLES}


def build(settings: BeeSettings, rows) -> Database:
    """``sql_short``'s database: the five small TPC-H relations."""
    db = Database(settings)
    create_tables(db)
    for name in SMALL_TABLES:
        db.copy_from(name, rows[name])
    db.ledger.reset()
    return db


def adhoc(db: Database, sql: str, **kwargs):
    return execute_statement(db, parse(sql), **kwargs)


def counters(db: Database) -> dict:
    return db.stats()["statements"]


def outcome(run) -> tuple:
    """A statement's status and rows, or the type of what it raised."""
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 — compared, not handled
        return ("error", type(exc).__name__)
    return (result.status, sorted(result.rows, key=repr))


# -- hit == miss == ad hoc, rows and ledger ------------------------------------


@pytest.mark.parametrize("name", list(POINTS))
def test_hit_equals_miss_equals_adhoc_on_every_statement_class(name, small_rows):
    """The benchmark's whole mix — every class, reads and writes — run
    statement by statement through ``db.sql`` on one database and ad hoc
    on its twin: same outcome, same ledger charge, whether ``db.sql``
    built the shape's bee (a miss) or was served from it (a hit).  Under
    ``all_bees`` the EVP of a Filter / the AGG of a HashAgg is found in
    its memo by a re-executed plan: a stale constant there is this
    test's failure."""
    cached = build(POINTS[name], small_rows)
    reference = build(POINTS[name], small_rows)
    sizes = {table: len(rows) for table, rows in small_rows.items()}
    seen = set()
    for stmt in stmtgen.generate(11, 400, sizes):
        before = cached.ledger.total, reference.ledger.total
        got = cached.sql(stmt.sql)
        want = adhoc(reference, stmt.sql)
        assert got.status == want.status, stmt.sql
        assert got.rows == want.rows, stmt.sql
        assert got.columns == want.columns, stmt.sql
        assert cached.ledger.total - before[0] == (
            reference.ledger.total - before[1]
        ), stmt.sql
        seen.add(stmt.cls)
    assert seen == set(stmtgen.MIX)
    for table in SMALL_TABLES:
        assert cached.read_all(table) == reference.read_all(table)
    stats = counters(cached)
    assert stats["hits"] > 350 and stats["declined"] == 0, stats
    assert counters(reference)["hits"] == counters(reference)["misses"] == 0


def _counting(monkeypatch, owner, name: str, calls: dict) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_warm_stream_does_no_front_end_work(monkeypatch, small_rows):
    """1,000 post-warm-up statements of the ``sql_short`` stream: no
    parse, no planning, no tier stacking, no routine instantiation, no
    compile — and the front door says so."""
    db = build(BeeSettings.vectorized(), small_rows)
    sizes = {table: len(rows) for table, rows in small_rows.items()}
    stream = stmtgen.stream(3, sizes)
    for _ in range(300):
        db.sql(next(stream).sql)
    calls: dict = {}
    _counting(monkeypatch, session_mod.Parser, "parse_statement", calls)
    _counting(monkeypatch, session_mod, "plan_select", calls)
    _counting(monkeypatch, session_mod, "lower_expr", calls)
    _counting(monkeypatch, session_mod.dml, "match_plan", calls)
    _counting(monkeypatch, repro.engine.executor, "stack_tiers", calls)
    _counting(monkeypatch, BeeMaker, "make_fused", calls)
    _counting(monkeypatch, BeeMaker, "make_evp", calls)
    compiles = db.bee_module.statistics()["compiles"]
    before = counters(db)
    for _ in range(1000):
        db.sql(next(stream).sql)
    after = counters(db)
    assert after["declined"] == before["declined"] == 0
    misses = after["misses"] - before["misses"]
    assert after["hits"] - before["hits"] >= 950 and misses <= 50
    # What did run the front end was a miss: a shape's first statement
    # (a LIMIT the warm-up had not met).  Nothing else did.
    assert calls.get("parse_statement", 0) == misses
    assert calls.get("plan_select", 0) == misses
    assert calls.get("stack_tiers", 0) == calls.get("make_fused", 0) == misses
    for name in ("lower_expr", "match_plan", "make_evp"):
        assert calls.get(name, 0) == 0, (name, calls)
    if not misses:
        assert db.bee_module.statistics()["compiles"] == compiles


def test_warm_stream_of_known_shapes_is_all_hits(monkeypatch, small_rows):
    """The same, with every shape met during warm-up: zero is zero."""
    db = build(BeeSettings.vectorized(), small_rows)
    sizes = {table: len(rows) for table, rows in small_rows.items()}
    statements = stmtgen.generate(5, 1600, sizes)
    warm = {lift(s.sql).text for s in statements[:600]}
    for stmt in statements[:600]:
        db.sql(stmt.sql)
    calls: dict = {}
    _counting(monkeypatch, session_mod.Parser, "parse_statement", calls)
    _counting(monkeypatch, session_mod, "plan_select", calls)
    _counting(monkeypatch, repro.engine.executor, "stack_tiers", calls)
    _counting(monkeypatch, BeeMaker, "make_fused", calls)
    _counting(monkeypatch, BeeMaker, "make_evp", calls)
    compiles = db.bee_module.statistics()["compiles"]
    ran = 0
    for stmt in statements[600:]:
        if lift(stmt.sql).text in warm:
            db.sql(stmt.sql)
            ran += 1
    assert ran >= 950
    assert calls == {}
    assert db.bee_module.statistics()["compiles"] == compiles


# -- a routine lives as long as its plan ----------------------------------------


def _instantiated(monkeypatch) -> list:
    """Weak references to every query routine the bee maker makes from
    now on."""
    made: list = []
    for name in ("make_evp", "make_agg", "make_fused"):
        real = getattr(BeeMaker, name)

        def making(maker, *args, real=real):
            routine = real(maker, *args)
            made.append(weakref.ref(routine))
            return routine

        monkeypatch.setattr(BeeMaker, name, making)
    return made


def _alive(refs: list) -> int:
    gc.collect()
    return sum(ref() is not None for ref in refs)


@pytest.mark.parametrize("name", ["all_bees+agg", "pipelined", "vectorized"])
def test_routine_lifetime_of_an_adhoc_statement_is_the_statement(
    monkeypatch, name
):
    db = _tiny(POINTS[name])
    made = _instantiated(monkeypatch)
    sql = "SELECT b, count(*) FROM t WHERE a > 1 GROUP BY b"
    expected = outcome(lambda: adhoc(db, sql, settings=BeeSettings.stock()))
    assert outcome(lambda: adhoc(db, sql)) == expected
    assert made, "the statement made no routine"
    assert _alive(made) == 0


@pytest.mark.parametrize("name", ["all_bees+agg", "vectorized"])
def test_routine_lifetime_of_a_query_bee_ends_when_the_collector_trims_it(
    monkeypatch, name
):
    db = _tiny(POINTS[name])
    db.bee_module.collector.query_bee_budget = 2
    made = _instantiated(monkeypatch)
    db.sql("SELECT b, count(*) FROM t WHERE a > 1 GROUP BY b")
    first = list(made)
    assert first and _alive(first) == len(first)     # the bee holds them
    db.sql("SELECT b, count(*) FROM t WHERE a > 2 GROUP BY b")   # a hit
    assert len(made) == len(first)
    for i in range(2):              # two more shapes: the first is trimmed
        db.sql(f"SELECT a AS x{i} FROM t WHERE b > 10")
    assert _alive(first) == 0
    assert _alive(made) == len(made) - len(first)


# -- the lifter ----------------------------------------------------------------


def _comparable(tokens):
    """Tokens with numbers by value (``1.50`` re-renders as ``1.5``)."""
    return [
        (t.kind, float(t.value) if t.kind == "number" else t.value)
        for t in tokens
    ]


@hyp_settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lift_substitute_tokenize_round_trips(seed):
    """Over the oracle generator's statements: re-substituting what was
    lifted gives back the same token stream, and the lifter found
    exactly the literal tokens that stand outside its frozen contexts."""
    rng = random.Random(seed)
    for stmt in StatementGenerator(seed).stream(60):
        lifted = lift(stmt.sql)
        assert lifted is not None, stmt.sql
        text, kinds, values, positions = lifted
        assert len(kinds) == len(values) == len(positions)
        rebuilt = substitute(text, values)
        assert _comparable(tokenize(rebuilt)) == _comparable(
            tokenize(stmt.sql)
        ), stmt.sql
        by_position = {t.position: t for t in tokenize(stmt.sql)}
        for kind, value, position in zip(kinds, values, positions):
            token = by_position[position]
            assert token.kind == ("string" if kind == "s" else "number")
            assert type(value) is {"i": int, "f": float, "s": str}[kind]
        assert lift(rebuilt)[:3] == (text, kinds, values)
        # A literal sibling is the same shape text (its kinds may differ
        # on purpose), and still a statement.
        if stmt.kind in ("insert", "update", "delete", "select"):
            sibling = sibling_sql(stmt.sql, rng)
            if sibling is not None:
                assert lift(sibling).text == text, sibling
                parse(sibling)


@pytest.mark.parametrize("sql,text,kinds,values", [
    ("SELECT 'it''s'", "SELECT ?", "s", ["it's"]),
    ("SELECT a -- 'comment 5\nFROM t", "SELECT a -- 'comment 5\nFROM t", "", []),
    ("SELECT t.col, col0 FROM t1", "SELECT t.col, col0 FROM t1", "", []),
    ("a = 1.5 OR a = .5", "a = ? OR a = ?", "ff", [1.5, 0.5]),
    ("a = - 5 AND b = -7", "a = - ? AND b = -?", "ii", [5, 7]),
    ("a = 1 LIMIT 3", "a = ? LIMIT 3", "i", [1]),
    ("a LIKE 'x%' AND b = 'x%'", "a LIKE 'x%' AND b = ?", "s", ["x%"]),
    ("d > DATE '2020-01-01' AND e = 2", "d > DATE '2020-01-01' AND e = ?",
     "i", [2]),
    ("a IN (1, 'b)', 3) AND c = 4", "a IN (1, 'b)', 3) AND c = ?", "i", [4]),
    ("a BETWEEN -1 AND 2.5", "a BETWEEN -? AND ?", "if", [1, 2.5]),
])
def test_lift_examples(sql, text, kinds, values):
    assert lift(sql)[:3] == (text, kinds, values)


@pytest.mark.parametrize("sql", [
    "SELECT a FROM t WHERE a = ?", "SELECT 'oops",
    # Long statements with one bad character at the end: every split of
    # the text before it is a dead end a backtracking regex could try,
    # and every later offset one its search could restart from.
    "SELECT a FROM t WHERE " + "a <> 1 AND b LIKE 'x%' AND " * 2000
    + "b = 'unterminated",
    "SELECT " + " " * 100_000 + "?",
    "SELECT " + "a" * 100_000 + " ?",
])
def test_junk_does_not_lift_and_fails_in_linear_time(sql):
    started = time.perf_counter()
    assert lift(sql) is None
    with pytest.raises(SQLSyntaxError):
        parse(sql)
    assert time.perf_counter() - started < 5.0     # quadratic: minutes


@pytest.mark.parametrize("sql", [
    "SELECT a FROM t WHERE b = -'x'",       # was TypeError
    "SELECT a FROM t WHERE a = ²",          # was ValueError from int()
    "SELECT a FROM t LIMIT 1.5",            # was ValueError from int()
    "SELECT a FROM t WHERE a = " + "9" * 5000,
])
def test_malformed_literals_are_syntax_errors_through_the_front_door(sql):
    db = _tiny()
    errors = counters(db)
    for _ in range(2):
        with pytest.raises(SQLSyntaxError):
            db.sql(sql)
    assert counters(db) == errors          # nothing cached, nothing served


# -- what is declined ----------------------------------------------------------


def _tiny(settings=None) -> Database:
    db = Database(settings or BeeSettings.all_bees())
    db.sql("CREATE TABLE t (a int NOT NULL, b int, c varchar(8))")
    db.sql("INSERT INTO t VALUES (1, 10, 'ax'), (2, 20, 'bx'), (3, NULL, 'ay')")
    return db


def test_declined_classes_are_declined_and_counted():
    db = _tiny()
    start = counters(db)
    assert start["declined"] == 1 and start["misses"] == 1   # CREATE; INSERT
    for sql in (
        "EXPLAIN SELECT a FROM t WHERE b = 10",
        "EXPLAIN UPDATE t SET b = 1 WHERE a = 1",
        "VACUUM t",
        "SELECT a FROM t WHERE b = (SELECT MAX(b) FROM t)",
        "SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE b > 10)",
        "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM t WHERE b = 20)",
        "CREATE TABLE u (x int)",
        "DROP TABLE u",
    ):
        for _ in range(2):
            db.sql(sql) if not sql.startswith(("CREATE", "DROP")) else None
        if sql.startswith(("CREATE", "DROP")):
            db.sql(sql)
    stats = counters(db)
    assert stats["declined"] == start["declined"] + 6 * 2 + 2
    assert stats["hits"] == 0 and stats["entries"] == start["entries"]


def test_a_subquery_sees_the_data_of_its_own_run():
    db = _tiny()
    sql = "SELECT a FROM t WHERE b = (SELECT MAX(b) FROM t)"
    assert db.sql(sql).rows == [(2,)]
    db.sql("UPDATE t SET b = 99 WHERE a = 1")
    assert db.sql(sql).rows == [(1,)]          # not the plan of the first run
    assert db.sql(sql).rows == adhoc(db, sql).rows


def test_an_aggregate_written_twice_plans_the_same_whatever_its_literals():
    """``Literal.slot`` takes part in equality, so two aggregate calls
    over a lifted literal are two aggregates even when the literals are
    equal: the plan — and with it the charge — of a shape never depends
    on which of its statements came first.  (Deduplicating ``SUM(b * 2)``
    … ``HAVING SUM(b * 2)`` would leave the second literal without a
    hole, or, once ``(2, 3)`` had built the bee, make the hit charge two
    aggregates where the ad hoc run charges one.)"""
    db, reference = _tiny(), _tiny()
    twice = "SELECT SUM(b * {}) FROM t GROUP BY a HAVING SUM(b * {}) > 5"
    before = counters(db)
    for x, y in ((2, 2), (2, 3), (3, 2), (2, 2)):
        sql = twice.format(x, y)
        totals = db.ledger.total, reference.ledger.total
        assert sorted(db.sql(sql).rows) == sorted(adhoc(reference, sql).rows)
        assert db.ledger.total - totals[0] == reference.ledger.total - totals[1]
    after = counters(db)
    assert after["declined"] == before["declined"]
    assert after["hits"] == before["hits"] + 3
    # Without a lifted literal inside, the same aggregate is still one.
    plain = parse("SELECT SUM(b) FROM t GROUP BY a HAVING SUM(b) > 5")
    assert plain.items[0].expr == plain.having.left


def test_a_literal_no_constant_stands_for_declines_the_statement():
    db = _tiny()
    # A form the lifter's frozen contexts do not recognise is lifted, and
    # then has nothing to bind to: declined, not frozen.
    odd = "SELECT a FROM t WHERE c LIKE -- a comment\n 'a%'"
    before = counters(db)["declined"]
    assert sorted(db.sql(odd).rows) == [(1,), (3,)]
    assert sorted(db.sql(odd.replace("a%", "b%")).rows) == [(2,)]
    assert counters(db)["declined"] == before + 2


# -- constants never leak between statements -----------------------------------


@pytest.mark.parametrize("name", list(POINTS))
def test_literals_that_stay_in_the_key_never_share_constants(name):
    db = _tiny(POINTS[name])
    for _ in range(2):
        assert len(db.sql("SELECT a FROM t ORDER BY a LIMIT 3").rows) == 3
        assert len(db.sql("SELECT a FROM t ORDER BY a LIMIT 1").rows) == 1
        assert db.sql("SELECT a FROM t WHERE c LIKE 'a%'").rows == [(1,), (3,)]
        assert db.sql("SELECT a FROM t WHERE c LIKE 'b%'").rows == [(2,)]
        assert db.sql("SELECT a FROM t WHERE a IN (1, 2)").rows == [(1,), (2,)]
        assert db.sql("SELECT a FROM t WHERE a IN (3, 2)").rows == [(2,), (3,)]
    stats = counters(db)
    assert stats["hits"] == stats["misses"] - 1 == 6      # the INSERT: a miss


@pytest.mark.parametrize("name", list(POINTS))
def test_bound_literals_reach_every_routine(name):
    """Sign folding, int vs float kinds, BETWEEN bounds, a join residual
    (EVP through the join's own acquisition), SET lists and INSERT
    values: each statement is run twice with other literals and compared
    with the ad hoc path on a twin."""
    cached, reference = _tiny(POINTS[name]), _tiny(POINTS[name])
    templates = (
        "SELECT a FROM t WHERE b > {} AND a <> {}",
        "SELECT a FROM t WHERE b > -{} OR a = - {}",
        "SELECT a FROM t WHERE b BETWEEN {} AND {}",
        "SELECT a, b + {} AS x FROM t WHERE b * {} > 20",
        "SELECT COUNT(*), SUM(b + {}) FROM t WHERE a < {}",
        "SELECT x.a, y.b FROM t x JOIN t y ON x.a = y.a AND y.b > {} WHERE x.a < {}",
        "UPDATE t SET b = b + {} WHERE a = {}",
        "INSERT INTO t VALUES ({}, {}, 'new')",
        "DELETE FROM t WHERE a = {} AND b > {}",
    )
    for template in templates:
        for literals in ((1, 3), (15, 2), (2.5, 1), (0, 100)):
            sql = template.format(*literals)
            before = cached.ledger.total, reference.ledger.total
            got = outcome(lambda: cached.sql(sql))
            assert got == outcome(lambda: adhoc(reference, sql)), sql
            assert cached.ledger.total - before[0] == (
                reference.ledger.total - before[1]
            ), sql
    assert cached.read_all("t") == reference.read_all("t")
    # (1, 3) built each shape, (15, 2) and (0, 100) hit it; 2.5 is a
    # float: another kind, another key (and an error in an int column,
    # the same error on both paths).
    assert counters(cached)["hits"] >= 2 * len(templates) - 2


# -- eviction --------------------------------------------------------------------


def test_drop_and_recreate_with_another_schema_evicts():
    db = Database(BeeSettings.vectorized())
    db.sql("CREATE TABLE items (a int NOT NULL, b float NOT NULL)")
    db.sql("INSERT INTO items VALUES (1, 0.5), (2, 1.5)")
    sql = "SELECT a, b FROM items WHERE a < 2"
    assert db.sql(sql).rows == db.sql(sql).rows == [(1, 0.5)]
    assert counters(db)["hits"] == 1
    evicted = counters(db)["evicted"]
    db.sql("DROP TABLE items")
    assert counters(db)["evicted"] == evicted + 2      # the SELECT, the INSERT
    assert counters(db)["entries"] == 0
    db.sql("CREATE TABLE items (b float NOT NULL, a int NOT NULL, c int)")
    db.sql("INSERT INTO items VALUES (0.25, 7, 1), (0.75, 1, 2)")
    assert db.sql(sql).rows == [(1, 0.75)]
    assert counters(db)["hits"] == 1                   # rebuilt, not served


def test_reannotate_and_alter_each_evict():
    db = Database(BeeSettings.all_bees())
    db.sql("CREATE TABLE items (id int NOT NULL, kind char(3) NOT NULL, "
           "ANNOTATE (kind))")
    db.sql("INSERT INTO items VALUES (1, 'aaa'), (2, 'bbb')")
    sql = "SELECT id FROM items WHERE kind = 'bbb'"
    for change in (
        lambda: db.reannotate("items", []),
        lambda: db.reannotate("items", ["kind"]),
        lambda: db.catalog.alter_relation(db.relation("items").schema),
    ):
        assert db.sql(sql).rows == db.sql(sql).rows == [(2,)]
        epoch, hits = db.bee_module.query_epoch, counters(db)["hits"]
        change()
        assert db.bee_module.query_epoch > epoch
        assert counters(db)["entries"] == 0
        assert db.sql(sql).rows == [(2,)]
        assert counters(db)["hits"] == hits            # a miss: rebuilt


def test_a_stale_epoch_bee_is_dropped_and_counted():
    """Belt and braces: a bee that survived an invalidation it should
    not have (here: put back by hand) is never served."""
    db = _tiny()
    sql = "SELECT a FROM t WHERE b = 10"
    db.sql(sql)
    key = Statement(db, sql).key
    bee = db.bee_module.cache.get_query_bee(key)
    db.bee_module.invalidate_query_bees()
    db.bee_module.cache.put_query_bee(bee)
    before = counters(db)
    assert db.sql(sql).rows == [(1,)]
    after = counters(db)
    assert after["evicted"] == before["evicted"] + 1
    assert after["hits"] == before["hits"] and after["misses"] == before["misses"] + 1
    # ... and one checked out across an invalidation is not put back.
    bee = db.bee_module.check_out(key)
    db.bee_module.invalidate_query_bees()
    db.bee_module.check_in(bee)
    assert counters(db)["entries"] == 0


def test_budget_evicts_the_oldest_shape():
    db = _tiny()
    base = counters(db)
    assert DEFAULT_QUERY_BEE_BUDGET == 256
    shapes = [f"SELECT a AS x{i} FROM t WHERE b = 10" for i in range(300)]
    for sql in shapes:
        db.sql(sql)
    stats = counters(db)
    assert stats["entries"] == 256
    assert stats["evicted"] == base["evicted"] + base["entries"] + 300 - 256
    hits = stats["hits"]
    db.sql(shapes[-1])
    assert counters(db)["hits"] == hits + 1
    db.sql(shapes[0])                                   # long gone: rebuilt
    assert counters(db)["hits"] == hits + 1


# -- every guard still fires on a hit ------------------------------------------


def test_a_quarantined_key_degrades_a_cached_shape_like_a_fresh_one():
    db = build_scan_db(BeeSettings.vectorized())
    sql = "SELECT id FROM s WHERE price > {}"
    assert len(db.sql(sql.format(10)).rows) == 39
    executed = db.stats()["bees"]["vector_executed"]
    health = None
    for _ in range(CONSECUTIVE_FAILURES):
        health = db.resilience.record_failure(
            "VEC:s:rows", site="vectors", kind="test"
        )
    assert health.quarantined
    assert len(db.sql(sql.format(20)).rows) == 29        # a hit, gated
    stats = db.stats()["bees"]
    assert stats["vector_executed"] == executed          # the tier did not run
    assert stats["pipeline_executed"] >= 1               # the tier below did
    db.resilience.clear_prefix("VEC:")
    assert len(db.sql(sql.format(30)).rows) == 19
    assert db.stats()["bees"]["vector_executed"] == executed + 1
    assert counters(db)["hits"] == 2


def build_scan_db(settings) -> Database:
    db = Database(settings)
    db.sql("CREATE TABLE s (id int NOT NULL, price int NOT NULL)")
    db.copy_from("s", [[i, i] for i in range(50)])
    return db


@pytest.mark.parametrize("site,tier", [
    ("vector-shape", "vector"), ("pipeline-arity", "pipeline"),
])
def test_a_fault_mid_statement_on_a_cached_shape_retries_and_heals(site, tier):
    """The retry re-stacks the *unstacked* plan under the degraded
    settings; the bee's stacked plan is untouched, so the next hit runs
    on the healthy tier again."""
    settings = (
        BeeSettings.vectorized() if tier == "vector" else BeeSettings.pipelined()
    )
    db = build_scan_db(settings)
    sql = "SELECT id FROM s WHERE price > {}"
    assert len(db.sql(sql.format(10)).rows) == 39
    key = Statement(db, sql.format(0)).key
    stacked = db.bee_module.cache.get_query_bee(key).plan.stacked
    driver = stacked[1]
    assert isinstance(driver, FusedDriver) and driver.tier.name == tier
    chaos = ChaosInjector(seed=0)
    with chaos.armed(site):
        # The armed generator only bites a routine generated now: drop
        # the one the bee's driver holds.
        driver.routine = None
        assert len(db.sql(sql.format(20)).rows) == 29    # a hit that faults
    assert chaos.fired[site] >= 1
    assert db.resilience.total_faults() >= 1
    assert db.bee_module.cache.get_query_bee(key).plan.stacked is stacked
    driver.routine = None
    executed = db.stats()["bees"][f"{tier}_executed"]
    assert len(db.sql(sql.format(30)).rows) == 19
    assert db.stats()["bees"][f"{tier}_executed"] == executed + 1
    assert counters(db)["hits"] == 2


def test_a_fusion_fault_during_a_miss_is_not_cached():
    db = build_scan_db(BeeSettings.pipelined())
    sql = "SELECT id FROM s WHERE price > {}"
    chaos = ChaosInjector(seed=0)
    with chaos.armed("fusion-raise"):
        assert len(db.sql(sql.format(10)).rows) == 39    # ran unfused
    assert chaos.fired["fusion-raise"] >= 1
    assert counters(db) == {
        "hits": 0, "misses": 0, "declined": 2, "entries": 0, "evicted": 0,
    }
    assert len(db.sql(sql.format(20)).rows) == 29        # fuses, and is kept
    assert db.stats()["bees"]["pipeline_executed"] == 1
    assert counters(db)["misses"] == 1


def test_timeout_on_a_hit():
    db = Database(BeeSettings.all_bees())
    db.sql("CREATE TABLE big (a int NOT NULL, b int NOT NULL)")
    db.copy_from("big", [[i, i % 7] for i in range(4000)])
    sql = "SELECT a FROM big WHERE b < {}"
    assert len(db.sql(sql.format(1), timeout=30).rows) > 500
    total = db.ledger.total
    with pytest.raises(QueryTimeout):
        db.sql(sql.format(7), timeout=0.0)
    assert db.ledger.total == total                       # rolled back
    assert len(db.sql(sql.format(7)).rows) == 4000
    assert counters(db)["hits"] == 2


def test_verify_on_generate_reverifies_a_repatched_routine(monkeypatch):
    import repro.beecheck as beecheck

    verified = []
    for name in ("verify_evp", "verify_vector"):
        real = getattr(beecheck, name)
        monkeypatch.setattr(
            beecheck, name,
            lambda routine, arg, real=real: (
                verified.append((routine.name, dict(routine.namespace))),
                real(routine, arg),
            ),
        )
    for settings, prefix in (
        (BeeSettings.all_bees().verified(), "EVP"),
        (BeeSettings.vectorized().verified(), "VEC"),
    ):
        verified.clear()
        db = build_scan_db(settings)
        sql = "SELECT id FROM s WHERE price > {}"
        for literal in (10, 20, 20):
            db.sql(sql.format(literal))
        mine = [ns["_K0"] for name, ns in verified if name.startswith(prefix)]
        # Generated with 10, re-patched to 20 and verified again; the
        # third statement moved no hole.
        assert mine == [10, 20], (prefix, verified)
        assert counters(db)["hits"] == 2


# -- two sessions, one shape ----------------------------------------------------


def test_two_sessions_hammering_one_shape_never_see_each_others_literal():
    db = Database(BeeSettings.vectorized())
    db.sql("CREATE TABLE kv (k int NOT NULL, v int NOT NULL)")
    db.copy_from("kv", [[k, k * 10] for k in range(64)])
    server = HiveServer(db)
    errors: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def hammer(offset: int) -> None:
        try:
            with server.session() as session:
                for i in range(400):
                    k = (offset + 2 * i) % 64          # this thread's keys
                    rows = session.sql(
                        f"SELECT k, v FROM kv WHERE k = {k}"
                    ).rows
                    assert rows == [(k, k * 10)], (k, rows)
                    if i % 50 == 0:
                        session.sql(
                            f"UPDATE kv SET v = k * 10 WHERE k = {k}"
                        )
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(n,)) for n in (0, 1)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    stats = server.stats_snapshot()
    assert stats["errors"] == 0
    assert stats["query_bees"] == db.stats()["statements"]
    # Both threads run the same two shapes, one statement at a time:
    # only each shape's first statement builds a bee, every later one
    # is a hit, and nothing is evicted.
    statements = 2 * (400 + 400 // 50)    # per thread: SELECTs, UPDATEs
    shapes = 2                            # one SELECT, one UPDATE shape
    assert stats["statements"] == statements
    assert stats["query_bees"]["hits"] == statements - shapes
    assert stats["query_bees"]["misses"] == shapes
    assert stats["query_bees"]["evicted"] == 0
    db.close()


def test_two_sessions_cycling_more_shapes_than_the_budget_never_fail():
    """Check-in and the budget trim run from every statement: through
    the server one statement at a time, but the raw check-out/check-in
    loop below runs them from two threads at once, so two trims may
    pick the same oldest shape, or one a concurrent check-out just
    took.  Eviction tolerates both — no statement fails (a write that
    raised after it was applied would be applied but never logged)."""
    db = Database(BeeSettings.all_bees())
    db.sql("CREATE TABLE kv (k int NOT NULL, v int NOT NULL)")
    db.copy_from("kv", [[k, k * 10] for k in range(16)])
    server = HiveServer(db)
    module = db.bee_module
    module.collector.query_bee_budget = 4
    errors: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def cycle(offset: int) -> None:
        try:
            with server.session() as session:
                for i in range(300):
                    k = (offset + i) % 16
                    shape = (offset * 3 + i) % 12
                    rows = session.sql(
                        f"SELECT k, v AS v{shape} FROM kv WHERE k = {k}"
                    ).rows
                    assert rows == [(k, k * 10)], (k, rows)
            # The same race without a statement in between (this loop
            # alone raised KeyError within a few thousand rounds).
            for i in range(30000):
                key = ("shape", (offset * 3 + i) % 7)
                bee = module.check_out(key)
                if bee is None:
                    module.register_query_bee(key, copy.copy(template))
                else:
                    module.check_in(bee)
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    db.sql("SELECT k FROM kv WHERE k = 0")
    template = module.cache.get_query_bee(
        Statement(db, "SELECT k FROM kv WHERE k = 0").key
    )
    threads = [threading.Thread(target=cycle, args=(n,)) for n in (0, 1)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert server.stats_snapshot()["errors"] == 0
    db.sql("SELECT k FROM kv WHERE k = 1")              # one quiet trim
    assert counters(db)["entries"] <= 4
    db.close()


# -- one path, no knob ----------------------------------------------------------


def test_no_new_knob():
    from dataclasses import fields

    assert len(fields(BeeSettings)) == 12
    assert list(inspect.signature(Database.__init__).parameters) == [
        "self", "settings", "bee_cache_dir", "buffer_capacity_pages",
        "parallel_workers",
    ]
    assert list(inspect.signature(Database.sql).parameters) == [
        "self", "statement", "bees", "timeout",
    ]
    assert list(inspect.signature(HiveServer.execute).parameters) == [
        "self", "session", "sql", "timeout",
    ]
    root = Path(repro.__file__).parent
    variables = {
        name
        for path in root.rglob("*.py")
        for name in re.findall(r"\bREPRO_[A-Z_]+", path.read_text())
    }
    assert variables == {"REPRO_BEE_DUMP", "REPRO_GOLDEN_UPDATE"} or (
        variables == {"REPRO_BEE_DUMP"}
    ), variables
    assert not hasattr(Database, "prepare")


def test_parse_has_no_caller_outside_the_front_end_and_the_checkers():
    """One front door: the SQL package parses; the oracle parses for its
    ad hoc reference; nothing else in ``src/repro`` does — the server
    asks the front door for a statement's class."""
    root = Path(repro.__file__).parent
    checkers = {
        "oracle", "beecheck", "swarmcheck", "wagglecheck", "hiveaudit",
        "verify", "resilience",
    }
    callers = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if path.relative_to(root).parts[0] not in checkers | {"sql"}
        and re.search(r"(?<![.\w])parse\(", path.read_text())
    )
    assert callers == []
    core = (root / "server" / "core.py").read_text()
    assert "classify_statement" not in core and "parser" not in core
