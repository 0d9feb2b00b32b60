"""Tests for the generic bee module: cache, collector, data sections,
persistence, placement, settings."""

import pytest

from repro.bees import (
    BeeCache,
    BeeCollector,
    BeeMaker,
    BeePlacementOptimizer,
    BeeSettings,
    DataSectionStore,
    GenericBeeModule,
    ICacheModel,
    SLAB_SIZE,
    SOFT_CAP,
)
from repro.cost import Ledger
from repro.cost import constants as C
from repro.engine import expr as E
from repro.engine.nodes import PlanNode
from repro.storage import TupleLayout


class TestBeeSettings:
    def test_stock_all_off(self):
        settings = BeeSettings.stock()
        assert not settings.any_enabled
        assert settings.label() == "stock"

    def test_all_bees(self):
        settings = BeeSettings.all_bees()
        assert settings.gcl and settings.scl and settings.evp
        assert settings.evj and settings.tuple_bees
        assert settings.label() == "GCL+SCL+EVP+EVJ+TB"

    def test_with_routines(self):
        settings = BeeSettings.stock().with_routines("gcl", "evp")
        assert settings.gcl and settings.evp
        assert not settings.scl

    def test_with_unknown_routine(self):
        with pytest.raises(ValueError):
            BeeSettings.stock().with_routines("jit")

    def test_enabling(self):
        settings = BeeSettings.relation_bees().enabling(evp=True)
        assert settings.gcl and settings.scl and settings.evp

    def test_frozen(self):
        with pytest.raises(Exception):
            BeeSettings.stock().gcl = True


class TestDataSections:
    def test_get_or_create_dedupes(self):
        store = DataSectionStore("r", ("a",))
        first = store.get_or_create(("x",))
        again = store.get_or_create(("x",))
        other = store.get_or_create(("y",))
        assert first == again == 0
        assert other == 1
        assert len(store) == 2

    def test_get_by_bee_id(self):
        store = DataSectionStore("r", ("a", "b"))
        bee_id = store.get_or_create(("x", "y"))
        assert store.get(bee_id) == ("x", "y")

    def test_get_out_of_range(self):
        store = DataSectionStore("r", ("a",))
        with pytest.raises(IndexError):
            store.get(0)

    def test_slab_growth(self):
        store = DataSectionStore("r", ("a",))
        for i in range(SLAB_SIZE + 5):
            store.get_or_create((i,))
        assert len(store) == SLAB_SIZE + 5
        assert store.as_list() == [(i,) for i in range(SLAB_SIZE + 5)]

    def test_soft_cap_flag(self):
        store = DataSectionStore("r", ("a",))
        for i in range(SOFT_CAP + 1):
            store.get_or_create((i,))
        assert store.overflowed

    def test_memcmp_charging(self):
        ledger = Ledger()
        store = DataSectionStore("r", ("a",))
        store.get_or_create(("x",), ledger)
        create_cost = ledger.total
        assert create_cost >= C.TUPLE_BEE_CLONE
        before = ledger.total
        store.get_or_create(("x",), ledger)
        hit_cost = ledger.total - before
        assert 0 < hit_cost < create_cost


class TestBeeModule:
    def _layout(self, orders_schema, bee_attrs=()):
        return TupleLayout(orders_schema, bee_attrs)

    def test_relation_bee_lifecycle(self, orders_schema):
        module = GenericBeeModule(Ledger(), BeeSettings.all_bees())
        bee = module.create_relation_bee(self._layout(orders_schema))
        assert module.relation_bee("orders") is bee
        module.drop_relation_bee("orders")
        assert module.relation_bee("orders") is None

    def test_evp_memoized_per_expression(self, orders_schema):
        # Held per plan node: the node that runs a predicate memoizes it.
        module = GenericBeeModule(Ledger(), BeeSettings.all_bees())
        expression = E.bind(E.Cmp("=", E.Col("x"), E.Const(1)), ["x"])
        node, other = PlanNode(), PlanNode()
        first = module.get_evp(node, expression)
        assert node.routine is first
        assert module.get_evp(node, expression) is first
        assert module.get_evp(other, expression) is not first
        module.invalidate_query_bees()
        regenerated = module.get_evp(node, expression)
        assert regenerated is not first and node.routine is regenerated
        assert regenerated.epoch == module.query_epoch

    def test_evj_memoized_by_shape(self):
        module = GenericBeeModule(Ledger(), BeeSettings.all_bees())
        assert module.get_evj("inner", 2) is module.get_evj("inner", 2)
        assert module.get_evj("semi", 2) is not module.get_evj("inner", 2)

    def test_tuple_bee_id(self, orders_schema):
        module = GenericBeeModule(Ledger(), BeeSettings.all_bees())
        module.create_relation_bee(
            self._layout(orders_schema, ("o_orderstatus",))
        )
        assert module.tuple_bee_id("orders", ("O",)) == 0
        assert module.tuple_bee_id("orders", ("F",)) == 1
        assert module.tuple_bee_id("orders", ("O",)) == 0

    def test_tuple_bee_id_without_sections(self, orders_schema):
        module = GenericBeeModule(Ledger(), BeeSettings.all_bees())
        module.create_relation_bee(self._layout(orders_schema))
        with pytest.raises(LookupError):
            module.tuple_bee_id("orders", ("O",))

    def test_reconstruction_preserves_sections(self, orders_schema):
        module = GenericBeeModule(Ledger(), BeeSettings.all_bees())
        layout = self._layout(orders_schema, ("o_orderstatus",))
        module.create_relation_bee(layout)
        module.tuple_bee_id("orders", ("O",))
        rebuilt = module.reconstruct_relation_bee(layout)
        assert rebuilt.data_sections.get(0) == ("O",)

    def test_reconstruction_drops_sections_on_attr_change(self, orders_schema):
        module = GenericBeeModule(Ledger(), BeeSettings.all_bees())
        module.create_relation_bee(self._layout(orders_schema, ("o_orderstatus",)))
        module.tuple_bee_id("orders", ("O",))
        rebuilt = module.reconstruct_relation_bee(
            self._layout(orders_schema, ("o_orderpriority",))
        )
        assert len(rebuilt.data_sections) == 0

    def test_statistics(self, orders_schema):
        module = GenericBeeModule(Ledger(), BeeSettings.all_bees())
        module.create_relation_bee(self._layout(orders_schema, ("o_orderstatus",)))
        module.tuple_bee_id("orders", ("O",))
        module.get_evj("inner", 1)
        stats = module.statistics()
        assert stats["relation_bees"] == 1
        assert stats["tuple_bees"] == 1
        assert stats["evj_routines"] == 1


class TestBeeCachePersistence:
    def test_save_and_load(self, orders_schema, tmp_path):
        maker = BeeMaker(Ledger())
        cache = BeeCache()
        layout = TupleLayout(orders_schema, ("o_orderstatus",))
        bee = maker.make_relation_bee(layout)
        bee.data_sections.get_or_create(("O",))
        bee.data_sections.get_or_create(("F",))
        cache.put_relation_bee(bee)
        assert cache.save_to(tmp_path) == 1

        fresh = BeeCache()
        loaded = fresh.load_from(tmp_path, BeeMaker(Ledger()), {"orders": layout})
        assert loaded == 1
        restored = fresh.get_relation_bee("orders")
        assert restored.data_sections.get(0) == ("O",)
        assert restored.data_sections.get(1) == ("F",)
        # The reloaded routine still decodes correctly.
        row = [1, 5, "O", 9.9, 100, "2-HIGH", "c", 0, "hi"]
        raw = layout.encode(row, bee_id=0)
        assert restored.gcl.fn(raw, restored.sections_list()) == row

    def test_load_skips_unknown_relations(self, orders_schema, tmp_path):
        maker = BeeMaker(Ledger())
        cache = BeeCache()
        cache.put_relation_bee(
            maker.make_relation_bee(TupleLayout(orders_schema))
        )
        cache.save_to(tmp_path)
        fresh = BeeCache()
        assert fresh.load_from(tmp_path, maker, {}) == 0

    def test_module_flush_and_reload(self, orders_schema, tmp_path):
        module = GenericBeeModule(
            Ledger(), BeeSettings.all_bees(), disk_dir=tmp_path
        )
        layout = TupleLayout(orders_schema)
        module.create_relation_bee(layout)
        assert module.flush_to_disk() == 1
        fresh = GenericBeeModule(
            Ledger(), BeeSettings.all_bees(), disk_dir=tmp_path
        )
        assert fresh.load_from_disk({"orders": layout}) == 1

    def test_flush_without_dir_raises(self):
        module = GenericBeeModule(Ledger(), BeeSettings.all_bees())
        with pytest.raises(RuntimeError):
            module.flush_to_disk()


class TestCollector:
    def test_sweep(self, orders_schema):
        maker = BeeMaker(Ledger())
        cache = BeeCache()
        cache.put_relation_bee(
            maker.make_relation_bee(TupleLayout(orders_schema))
        )
        collector = BeeCollector(cache)
        assert collector.sweep({"orders"}) == 0
        assert collector.sweep(set()) == 1
        assert cache.get_relation_bee("orders") is None

    def test_removes_disk_file(self, orders_schema, tmp_path):
        maker = BeeMaker(Ledger())
        cache = BeeCache()
        cache.put_relation_bee(
            maker.make_relation_bee(TupleLayout(orders_schema))
        )
        cache.save_to(tmp_path)
        collector = BeeCollector(cache, disk_dir=tmp_path)
        collector.collect_relation("orders")
        assert not (tmp_path / "orders.bee.json").exists()

    def test_query_bee_budget(self):
        from repro.bees.settings import BeeSettings
        from repro.db import Database

        db = Database(BeeSettings.all_bees())
        db.sql("CREATE TABLE q (a int NOT NULL)")
        shapes = [f"SELECT a AS x{i} FROM q WHERE a = 1" for i in range(5)]
        for sql in shapes:
            db.sql(sql)
        collector = db.bee_module.collector
        collector.query_bee_budget = 3
        assert collector.trim_query_bees() == 2
        assert [key[0] for key in db.bee_module.cache.query_bees] == [
            sql.replace("= 1", "= ?") for sql in shapes[2:]
        ]


class TestPlacement:
    def test_icache_geometry(self):
        model = ICacheModel(size=32768, line=64, assoc=4)
        assert model.n_sets == 128

    def test_optimized_not_worse_than_naive(self):
        optimizer = BeePlacementOptimizer()
        bees = [(f"b{i}", 256 + 128 * i, 1.0 + i) for i in range(10)]
        naive = optimizer.evaluate(optimizer.naive_placement(bees))
        optimized = optimizer.evaluate(optimizer.optimize(bees))
        assert optimized["added_conflict"] <= naive["added_conflict"] + 1e-9

    def test_optimized_regions_do_not_overlap(self):
        optimizer = BeePlacementOptimizer()
        bees = [(f"b{i}", 512, 2.0) for i in range(6)]
        placed = sorted(optimizer.optimize(bees), key=lambda r: r.start)
        for a, b in zip(placed, placed[1:]):
            assert a.start + a.size <= b.start

    def test_effect_is_small(self):
        """The paper's observation: placement effects are ~trivial."""
        optimizer = BeePlacementOptimizer()
        bees = [(f"b{i}", 600, 1.5) for i in range(8)]
        report = optimizer.evaluate(optimizer.optimize(bees))
        assert report["miss_rate_delta"] < 0.01
