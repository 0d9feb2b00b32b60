"""Runtime staleness: mutate state under live bees, then query.

Hiveaudit proves the invalidation edges exist statically; these tests
drive the same edges dynamically — DDL, re-annotation, and DML between
queries on one live database — and require (a) the bee-enabled answer to
equal the generic answer on every query, and (b) the bee machinery to
actually have been refreshed (new relation-bee object, the shape's next
statement instantiating its query routines afresh), not just to have
gotten lucky.
"""

from repro.bees.settings import BeeSettings
from repro.db import Database

#: ``_fresh_db``'s point, with plan fusion on or off for a statement.
PIPES = BeeSettings.all_bees().enabling(pipelines=True)
PLAIN = BeeSettings.all_bees().enabling(pipelines=False)


def _fresh_db():
    db = Database(BeeSettings.all_bees())
    db.sql(
        "CREATE TABLE items (id int NOT NULL, kind char(3) NOT NULL, "
        "price float NOT NULL, ANNOTATE (kind))"
    )
    db.sql(
        "INSERT INTO items VALUES (1, 'aaa', 10.0), (2, 'bbb', 20.0), "
        "(3, 'aaa', 30.0)"
    )
    return db


def _made(db, family: str) -> int:
    """Query routines of *family* instantiated so far."""
    return db.bee_module.statistics()[f"{family}_routines"]


def _both_ways(db, query):
    with_bees = db.sql(query, bees=True).rows
    without = db.sql(query, bees=False).rows
    assert with_bees == without, (
        f"bee/generic divergence on {query!r}: {with_bees} != {without}"
    )
    return with_bees


class TestDDLThenQuery:
    def test_drop_and_recreate_same_name(self):
        db = _fresh_db()
        _both_ways(db, "SELECT id FROM items WHERE price > 15.0")
        db.sql("DROP TABLE items")
        # Same name, different shape: a stale GCL keyed on the old
        # layout would misread every tuple of the new relation.
        db.sql("CREATE TABLE items (name char(4) NOT NULL, n int NOT NULL)")
        db.sql("INSERT INTO items VALUES ('wxyz', 7), ('qrst', 8)")
        rows = _both_ways(db, "SELECT name, n FROM items WHERE n > 7")
        assert rows == [("qrst", 8)]

    def test_reannotate_then_query(self):
        db = _fresh_db()
        rel_before = db.relation("items")
        bee_before = rel_before.bee
        _both_ways(db, "SELECT id FROM items WHERE kind = 'aaa'")
        made = _made(db, "evp")
        assert made, "SELECT with a predicate must instantiate an EVP bee"

        db.reannotate("items", [])  # drop the tuple-bee annotation

        rel_after = db.relation("items")
        assert rel_after.bee is not bee_before, (
            "reannotation must rebuild the relation bee"
        )
        assert not rel_after.layout.bee_attrs
        rows = _both_ways(db, "SELECT id FROM items WHERE kind = 'aaa'")
        assert rows == [(1,), (3,)]
        assert _made(db, "evp") == made + 1, (
            "ALTER must evict the shape's query bee and its EVP routine"
        )

    def test_alter_via_catalog_event(self):
        db = _fresh_db()
        bee_before = db.relation("items").bee
        db.sql("SELECT id FROM items WHERE price > 15.0")
        made = _made(db, "evp")
        assert made
        db.catalog.alter_relation(db.relation("items").schema)
        assert db.relation("items").bee is not bee_before
        rows = _both_ways(db, "SELECT id FROM items WHERE price > 15.0")
        assert rows == [(2,), (3,)]
        assert _made(db, "evp") == made + 1

    def test_reexecuted_hand_built_plan_regenerates_once(self):
        from repro.engine.expr import Cmp, Col, Const
        from repro.engine.nodes import Filter, SeqScan

        db = _fresh_db()
        scan = SeqScan("items")
        scan.bind_schema(db.relation("items").schema)
        plan = Filter(scan, Cmp(">", Col("price"), Const(15.0)))
        first = db.execute(plan)
        routine = plan.routine
        assert db.execute(plan) == first and plan.routine is routine
        db.catalog.alter_relation(db.relation("items").schema)
        made = _made(db, "evp")
        assert db.execute(plan) == first
        assert plan.routine is not routine and _made(db, "evp") == made + 1
        assert db.execute(plan) == first
        assert _made(db, "evp") == made + 1
        assert sorted(first) == sorted(
            db.sql("SELECT * FROM items WHERE price > 15.0", bees=False).rows
        )


class TestDMLThenQuery:
    def test_update_then_query(self):
        db = _fresh_db()
        assert _both_ways(
            db, "SELECT id FROM items WHERE price > 15.0"
        ) == [(2,), (3,)]
        db.sql("UPDATE items SET price = 5.0 WHERE id = 3")
        assert _both_ways(
            db, "SELECT id FROM items WHERE price > 15.0"
        ) == [(2,)]
        db.sql("UPDATE items SET price = 99.0 WHERE kind = 'aaa'")
        # updates rewrite tuples, so physical (scan) order changes
        assert sorted(_both_ways(
            db, "SELECT id FROM items WHERE price > 15.0"
        )) == [(1,), (2,), (3,)]

    def test_update_annotated_column_resolves_new_bee_id(self):
        db = _fresh_db()
        store = db.relation("items").bee.data_sections
        count_before = store.count
        # 'ccc' is a brand-new annotated value: the rewritten tuples
        # must be re-pointed at a fresh data section, not left on the
        # old one.
        db.sql("UPDATE items SET kind = 'ccc' WHERE id = 1")
        assert store.count == count_before + 1
        assert _both_ways(
            db, "SELECT kind FROM items WHERE id = 1"
        ) == [("ccc",)]

    def test_delete_then_insert_then_query(self):
        db = _fresh_db()
        db.sql("DELETE FROM items WHERE kind = 'aaa'")
        db.sql("INSERT INTO items VALUES (9, 'zzz', 90.0)")
        assert sorted(_both_ways(
            db, "SELECT id FROM items WHERE price > 15.0"
        )) == [(2,), (9,)]

    def test_vacuum_then_query(self):
        db = _fresh_db()
        db.sql("DELETE FROM items WHERE id = 2")
        db.sql("VACUUM items")
        assert _both_ways(
            db, "SELECT id FROM items WHERE price > 5.0"
        ) == [(1,), (3,)]


class TestPipelineStaleness:
    """Fused pipeline bees inline layout offsets AND plan constants, so
    they are stale after every edge the relation and query bees are —
    these drive the pipeline routines through the same DDL
    transitions."""

    def test_drop_recreate_then_fused_query(self):
        db = _fresh_db()
        query = "SELECT id FROM items WHERE price > 15.0"
        db.sql(query, bees=PIPES)
        made = _made(db, "pipeline")
        assert made
        db.sql("DROP TABLE items")
        # Same name, same column names, another layout: the shape's
        # query bee went with the DROP, so its routine is made afresh.
        db.sql("CREATE TABLE items (price int NOT NULL, id int NOT NULL)")
        db.sql("INSERT INTO items VALUES (10, 7), (20, 8)")
        fused = db.sql(query, bees=PIPES).rows
        plain = db.sql(query, bees=PLAIN).rows
        assert fused == plain == [(8,)]
        assert _made(db, "pipeline") == made + 1, (
            "DROP must evict the dropped relation's pipeline bees"
        )

    def test_reannotate_evicts_pipeline_memo(self):
        db = _fresh_db()
        query = "SELECT id FROM items WHERE kind = 'aaa'"
        db.sql(query, bees=PIPES)
        made = _made(db, "pipeline")
        db.sql(query, bees=PIPES)          # the shape's query bee
        assert _made(db, "pipeline") == made
        db.reannotate("items", [])
        assert db.sql(query, bees=PIPES).rows == [(1,), (3,)]
        assert _made(db, "pipeline") == made + 1, (
            "ALTER must evict the shape's query bee and its pipeline bee"
        )
