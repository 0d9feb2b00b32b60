"""Bee cache eviction and collector GC invariants.

The collector must (a) keep the query-bee cache within its budget by
evicting in insertion order, (b) never collect a relation bee whose
relation is still live, and (c) remove a dropped relation's on-disk bee
file along with its in-memory bee — including through the full
``Database.sql("DROP TABLE ...")`` path.
"""

import pytest

from repro.bees.settings import BeeSettings
from repro.db import Database
from repro.sql.session import Statement


def _shape(i: int) -> str:
    """Statement *i* of a family of distinct shapes (the alias is text)."""
    return f"SELECT a AS x{i} FROM q WHERE b = 1"


def _db_with_query_bees(n: int, budget: int) -> Database:
    """A database whose first *n* shapes each left a query bee behind."""
    db = Database(BeeSettings.all_bees())
    db.bee_module.collector.query_bee_budget = budget
    db.sql("CREATE TABLE q (a int NOT NULL, b int NOT NULL)")
    for i in range(n):
        db.sql(_shape(i))
    return db


class TestQueryBeeTrim:
    def test_within_budget_is_untouched(self):
        db = _db_with_query_bees(5, budget=5)
        collector = db.bee_module.collector
        assert collector.trim_query_bees() == 0
        assert len(db.bee_module.cache.query_bees) == 5
        assert collector.collected_query_bees == 0

    def test_evicts_oldest_past_budget(self):
        db = _db_with_query_bees(8, budget=8)
        cache, collector = db.bee_module.cache, db.bee_module.collector
        collector.query_bee_budget = 5
        assert collector.trim_query_bees() == 3
        assert list(cache.query_bees) == [
            Statement(db, _shape(i)).key for i in range(3, 8)
        ]
        assert collector.collected_query_bees == 3
        # idempotent once within budget again
        assert collector.trim_query_bees() == 0

    def test_module_registration_respects_budget(self):
        db = _db_with_query_bees(10, budget=4)
        cache = db.bee_module.cache
        assert len(cache.query_bees) <= 4
        # the most recent shape survives; the earliest was evicted
        assert cache.get_query_bee(Statement(db, _shape(9)).key) is not None
        assert cache.get_query_bee(Statement(db, _shape(0)).key) is None
        assert db.stats()["statements"]["evicted"] == 6


class TestRelationBeeGC:
    def _bee_db(self, tmp_path=None):
        db = Database(
            BeeSettings.all_bees(),
            bee_cache_dir=str(tmp_path) if tmp_path else None,
        )
        db.sql(
            "CREATE TABLE gctab (id int NOT NULL, kind char(3) NOT NULL, "
            "ANNOTATE (kind))"
        )
        db.sql("INSERT INTO gctab VALUES (1, 'aa'), (2, 'bb')")
        db.sql("CREATE TABLE keepme (id int NOT NULL)")
        db.sql("INSERT INTO keepme VALUES (7)")
        return db

    def test_sweep_spares_live_relations(self):
        db = self._bee_db()
        cache = db.bee_module.cache
        live = set(cache.relation_bees)
        assert "gctab" in live
        assert db.bee_module.collector.sweep(live) == 0
        assert set(cache.relation_bees) == live

    def test_sweep_collects_dead_relations(self):
        db = self._bee_db()
        collector = db.bee_module.collector
        assert collector.sweep(live_relations={"keepme"}) >= 1
        assert db.bee_module.cache.get_relation_bee("gctab") is None
        assert collector.collected_relation_bees >= 1

    def test_drop_table_collects_bee_and_disk_file(self, tmp_path):
        db = self._bee_db(tmp_path)
        assert db.bee_module.flush_to_disk() >= 1
        bee_file = tmp_path / "gctab.bee.json"
        assert bee_file.exists()
        db.sql("DROP TABLE gctab")
        assert db.bee_module.cache.get_relation_bee("gctab") is None
        assert not bee_file.exists()
        # the surviving relation's bee (and file) are untouched
        assert db.bee_module.cache.get_relation_bee("keepme") is not None
        assert (tmp_path / "keepme.bee.json").exists()
        # and the dropped relation really is gone from the engine
        with pytest.raises(Exception):
            db.sql("SELECT * FROM gctab")

    def test_collect_relation_is_idempotent(self, tmp_path):
        db = self._bee_db(tmp_path)
        collector = db.bee_module.collector
        assert collector.collect_relation("gctab") is True
        assert collector.collect_relation("gctab") is False
        assert collector.collected_relation_bees == 1


class TestInvalidationEdges:
    """Regression tests for the invalidation edges hiveaudit proves.

    Each of these corresponds to an injection case in
    ``repro.hiveaudit.selftest`` — the static analysis flags the edge's
    removal; these tests pin the runtime behavior the edge provides.
    """

    def test_alter_event_reconstructs_bee_and_evicts_query_memos(self):
        db = Database(BeeSettings.all_bees())
        db.sql("CREATE TABLE t (a int NOT NULL, b int NOT NULL)")
        db.sql("INSERT INTO t VALUES (1, 2)")
        bee_before = db.relation("t").bee
        db.sql("SELECT a FROM t WHERE b > 1")
        module = db.bee_module
        assert module.evp_entries()
        assert module.cache.query_bees      # the SELECT's shape

        db.catalog.alter_relation(db.relation("t").schema)

        assert db.relation("t").bee is not bee_before
        assert not module.evp_entries()
        assert not module.cache.query_bees
        assert module.collector.collected_query_bees >= 1

    def test_load_from_unlinks_stale_bee_file(self, tmp_path):
        db = Database(BeeSettings.all_bees(), bee_cache_dir=str(tmp_path))
        db.sql("CREATE TABLE keepme (id int NOT NULL)")
        db.sql("CREATE TABLE dropme (id int NOT NULL)")
        assert db.bee_module.flush_to_disk() == 2
        stale = tmp_path / "dropme.bee.json"
        assert stale.exists()

        # A fresh server whose catalog no longer contains `dropme` must
        # discard the orphaned file during load, not resurrect the bee.
        reborn = Database(BeeSettings.all_bees(), bee_cache_dir=str(tmp_path))
        reborn.sql("CREATE TABLE keepme (id int NOT NULL)")
        layouts = {"keepme": reborn.relation("keepme").layout}
        loaded = reborn.bee_module.cache.load_from(
            tmp_path, reborn.bee_module.maker, layouts
        )
        assert loaded == 1
        assert not stale.exists()
        assert reborn.bee_module.cache.get_relation_bee("dropme") is None

    def test_drop_purges_idx_routine_memo(self):
        db = Database(BeeSettings.future())
        db.sql("CREATE TABLE t (a int NOT NULL, b int NOT NULL)")
        db.create_index("t", "t_a", ["a"])
        module = db.bee_module
        assert [keys for keys, _routine in module.idx_entries()] == [[0]]
        db.sql("DROP TABLE t")
        assert module.idx_entries() == []
