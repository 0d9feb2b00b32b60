"""Pipeline bees: fusion eligibility, execution equality, invalidation.

The fusion matcher must take exactly the shapes the codegen supports
(and degrade to generic Volcano everywhere else), the fused execution
must return byte-identical results to the interpreter, and the memoized
routines must die with the plans that anchored them on DDL.
"""

from __future__ import annotations

import pytest

from repro.bees.pipeline import fuse_plan
from repro.bees.settings import BeeSettings
from repro.db import Database
from repro.engine.nodes import Limit, SeqScan, Sort
from repro.sql.parser import parse
from repro.sql.planner import plan_select

#: The fixture's point, with plan fusion on or off for a statement.
PIPES = BeeSettings.all_bees().enabling(pipelines=True)
PLAIN = BeeSettings.all_bees().enabling(pipelines=False)


def _plan(db, sql: str):
    return plan_select(db, parse(sql))


def _fused(db, sql: str):
    return fuse_plan(_plan(db, sql), db)


def _is(node, sink: str) -> bool:
    """Is *node* the pipeline-tier fused driver for *sink*?"""
    return getattr(node, "identity", None) == ("pipeline", sink)


@pytest.fixture
def db():
    db = Database(BeeSettings.all_bees())
    db.sql(
        "CREATE TABLE items (id int NOT NULL, kind char(3) NOT NULL, "
        "qty int, price float NOT NULL, note varchar(20), "
        "ANNOTATE (kind))"
    )
    db.sql(
        "INSERT INTO items VALUES "
        "(1, 'aaa', 5, 10.0, 'first'), "
        "(2, 'bbb', NULL, 20.0, NULL), "
        "(3, 'aaa', 7, 30.0, 'third'), "
        "(4, 'ccc', 2, 40.0, 'fourth'), "
        "(5, 'bbb', 9, 50.0, NULL)"
    )
    db.sql(
        "CREATE TABLE kinds (kind char(3) NOT NULL, label varchar(10) "
        "NOT NULL)"
    )
    db.sql(
        "INSERT INTO kinds VALUES ('aaa', 'alpha'), ('bbb', 'beta')"
    )
    return db


class TestFusionEligibility:
    def test_filtered_projection_fuses_to_scan(self, db):
        fused = _fused(
            db, "SELECT id, price FROM items WHERE price > 15.0"
        )
        assert _is(fused, "rows")
        assert fused.spec.sink == "rows"
        assert fused.spec.qual is not None
        assert "SeqScan(items)" in fused.spec.fused_nodes

    def test_bare_scan_fuses_without_qual(self, db):
        fused = _fused(db, "SELECT id, kind, price FROM items")
        assert _is(fused, "rows")
        assert fused.spec.qual is None

    def test_aggregate_over_scan_fuses_to_agg(self, db):
        fused = _fused(
            db,
            "SELECT kind, SUM(price), COUNT(*) FROM items "
            "WHERE id < 5 GROUP BY kind",
        )
        # The planner may top the agg with a projection; the agg sink
        # itself must be fused somewhere in the tree.
        nodes = _walk(fused)
        aggs = [n for n in nodes if _is(n, "agg")]
        assert aggs, f"no PipelineAgg in {fused.explain()}"
        assert aggs[0].node_label().startswith("PipelineAgg[")
        assert aggs[0].spec.sink == "agg"
        assert len(aggs[0].spec.aggs) == 2

    def test_join_probe_side_fuses(self, db):
        fused = _fused(
            db,
            "SELECT items.id, kinds.label FROM items "
            "JOIN kinds ON items.kind = kinds.kind",
        )
        nodes = _walk(fused)
        joins = [n for n in nodes if _is(n, "probe")]
        assert joins, f"no PipelineJoin in {fused.explain()}"
        assert joins[0].node_label().startswith("PipelineJoin[")
        assert joins[0].spec.sink == "probe"

    def test_sort_degrades_to_partial_fusion(self, db):
        fused = _fused(
            db, "SELECT id FROM items WHERE price > 15.0 ORDER BY id"
        )
        # Sort cannot fuse, but its input pipeline must.
        assert isinstance(fused, Sort)
        assert _is(fused.child, "rows")

    def test_limit_keeps_generic_node_above_fused_scan(self, db):
        fused = _fused(db, "SELECT id FROM items LIMIT 2")
        assert isinstance(fused, Limit)
        assert _is(fused.child, "rows")

    def test_unknown_relation_rejects_fusion(self, db):
        plan = _plan(db, "SELECT id FROM items")
        scan = plan
        while not isinstance(scan, SeqScan):
            scan = scan.child
        scan.relation = "ghost"
        fused = fuse_plan(plan, db)
        assert not any(hasattr(n, "identity") for n in _walk(fused))

    def test_fusion_does_not_mutate_the_input_plan(self, db):
        plan = _plan(db, "SELECT id FROM items WHERE price > 15.0")
        before = plan.explain()
        fuse_plan(plan, db)
        assert plan.explain() == before


def _walk(node):
    out = [node]
    for child in getattr(node, "children", lambda: ())():
        out.extend(_walk(child))
    for attr in ("child", "probe", "build"):
        sub = getattr(node, attr, None)
        if sub is not None and sub not in out:
            out.extend(_walk(sub))
    return out


QUERIES = [
    "SELECT id, price FROM items WHERE price > 15.0",
    "SELECT id FROM items WHERE qty > 4",  # NULL qty rows must drop
    "SELECT id, note FROM items",
    "SELECT kind, SUM(price), COUNT(*) FROM items GROUP BY kind",
    "SELECT COUNT(qty), COUNT(*) FROM items",
    "SELECT items.id, kinds.label FROM items "
    "JOIN kinds ON items.kind = kinds.kind",
    "SELECT items.id, kinds.label FROM items "
    "LEFT JOIN kinds ON items.kind = kinds.kind",
    "SELECT id FROM items WHERE kind IN (SELECT kind FROM kinds)",
    "SELECT id FROM items WHERE price > 15.0 ORDER BY id DESC",
    "SELECT id FROM items WHERE note IS NULL",
]


class TestExecutionEquality:
    @pytest.mark.parametrize("query", QUERIES)
    def test_pipelines_match_interpreter(self, db, query):
        ordered = "ORDER BY" in query
        fused = db.sql(query, bees=PIPES).rows
        plain = db.sql(query, bees=PLAIN).rows
        if not ordered:
            fused, plain = sorted(map(repr, fused)), sorted(map(repr, plain))
        assert fused == plain, f"fusion divergence on {query!r}"

    def test_dml_between_fused_queries(self, db):
        query = "SELECT id FROM items WHERE price > 15.0"
        assert db.sql(query, bees=PIPES).rows == [(2,), (3,), (4,), (5,)]
        db.sql("DELETE FROM items WHERE id = 3")
        db.sql("INSERT INTO items VALUES (9, 'zzz', 1, 90.0, 'ninth')")
        db.sql("UPDATE items SET price = 5.0 WHERE id = 4")
        fused = db.sql(query, bees=PIPES).rows
        plain = db.sql(query, bees=PLAIN).rows
        assert sorted(fused) == sorted(plain) == [(2,), (5,), (9,)]


def _made(db) -> int:
    """Pipeline routines instantiated so far."""
    return db.bee_module.statistics()["pipeline_routines"]


class TestMemoAndInvalidation:
    """The memo is the shape's query bee: its plan's driver holds the
    pipeline routine, so a statement served from the bee instantiates
    nothing, and one after an invalidation edge (whose bee was evicted)
    regenerates it and returns stock rows."""

    def test_routines_are_memoized_and_counted(self, db):
        db.sql("SELECT id FROM items WHERE price > 15.0", bees=PIPES)
        assert _made(db) >= 1

    def test_alter_evicts_pipeline_memo(self, db):
        query = "SELECT id FROM items WHERE price > 15.0"
        db.sql(query, bees=PIPES)
        made = _made(db)
        db.sql(query, bees=PIPES)             # the shape's query bee
        assert _made(db) == made
        db.catalog.alter_relation(db.relation("items").schema)
        rows = db.sql(query, bees=PIPES).rows
        assert _made(db) == made + 1
        assert rows == db.sql(query, bees=False).rows == [(2,), (3,), (4,), (5,)]

    def test_drop_evicts_only_that_relations_pipelines(self, db):
        items, kinds = "SELECT id FROM items", "SELECT kind FROM kinds"
        db.sql(items, bees=PIPES)
        db.sql(kinds, bees=PIPES)
        made = _made(db)
        db.sql("DROP TABLE kinds")
        assert db.sql(items, bees=PIPES).rows == db.sql(items, bees=False).rows
        assert _made(db) == made, "DROP kinds kept the items shape's bee"
        db.sql("CREATE TABLE kinds (kind char(3) NOT NULL)")
        db.sql("INSERT INTO kinds VALUES ('zzz')")
        assert db.sql(kinds, bees=PIPES).rows == [("zzz",)]
        assert _made(db) == made + 1

    def test_reannotate_then_fused_query(self, db):
        query = "SELECT id, kind FROM items WHERE kind = 'aaa'"
        before = db.sql(query, bees=PIPES).rows
        db.reannotate("items", [])
        after = db.sql(query, bees=PIPES).rows
        assert sorted(before) == sorted(after) == [(1, "aaa"), (3, "aaa")]


class TestBatchesProtocol:
    def test_scan_driver_yields_page_batches(self, db):
        fused = _fused(db, "SELECT id, price FROM items WHERE price > 15.0")
        assert _is(fused, "rows")
        from repro.engine.nodes import ExecContext

        ctx = ExecContext(db, db.settings.enabling(pipelines=True))
        batches = list(fused.batches(ctx))
        assert batches and all(isinstance(b, list) for b in batches)
        flat = [tuple(row) for batch in batches for row in batch]
        assert flat == [tuple(r) for r in fused.rows(ctx)]

    def test_fused_batches_charge_less_than_interpreter(self, db):
        query = "SELECT id, price FROM items WHERE price > 15.0"
        fused = db.measure(lambda: db.sql(query, bees=PIPES))
        plain = db.measure(lambda: db.sql(query, bees=PLAIN))
        assert fused.instructions < plain.instructions
