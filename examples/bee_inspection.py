#!/usr/bin/env python3
"""Inside the bee module: generated code, caching, placement, collection.

Walks through the lifecycle the paper's Section IV architecture describes:
relation-bee creation at schema definition, query-bee instantiation at
query preparation, tuple bees during inserts, the on-disk bee cache, the
placement optimizer, and the collector.

Run:  python examples/bee_inspection.py
"""

import tempfile

from repro import BeeSettings, Database
from repro.engine.expr import And, Between, Cmp, Col, Const, Like, bind
from repro.workloads.tpch.loader import create_tables
from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import generate_rows


def main() -> None:
    with tempfile.TemporaryDirectory() as bee_cache_dir:
        db = Database(BeeSettings.all_bees(), bee_cache_dir=bee_cache_dir)
        create_tables(db)
        rows = generate_rows(TPCHGenerator(scale_factor=0.001))
        db.copy_from("lineitem", rows["lineitem"])

        print("=" * 70)
        print("1. RELATION BEE (created at schema-definition time)")
        print("=" * 70)
        bee = db.bee_module.relation_bee("lineitem")
        print(f"routines: {[r.name for r in bee.routines]}")
        print(f"tuple-bee data sections: {len(bee.data_sections)} "
              f"(annotated attrs: {list(bee.layout.bee_attrs)})")
        print("\n--- generated GCL source (Listing 2 analog) ---")
        print(bee.gcl.source)

        print("=" * 70)
        print("2. QUERY BEE (EVP cloned at query preparation)")
        print("=" * 70)
        predicate = bind(
            And(
                Between(Col("l_shipdate"), 8766, 9131),
                Cmp("<", Col("l_quantity"), Const(24.0)),
                Like(Col("l_comment"), "%furiously%"),
            ),
            db.relation("lineitem").schema.column_names(),
        )
        evp = db.bee_module.maker.make_evp(predicate, assume_not_null=True)
        print(f"--- generated EVP source ({evp.cost} instr/eval vs "
              f"{predicate.generic_cost} generic) ---")
        print(evp.source)

        evj = db.bee_module.get_evj("semi", 2)
        print("--- EVJ pre-compiled template (cloned, not compiled) ---")
        print(evj.source)

        print("=" * 70)
        print("3. TUPLE BEES (data sections after the load)")
        print("=" * 70)
        for bee_id, section in enumerate(bee.sections_list()[:5]):
            print(f"  beeID {bee_id}: {section}")
        print(f"  ... {len(bee.data_sections)} sections total")

        print()
        print("=" * 70)
        print("4. BEE CACHE PERSISTENCE (survives server restart)")
        print("=" * 70)
        written = db.bee_module.flush_to_disk()
        print(f"flushed {written} relation bees to {bee_cache_dir}")
        fresh = Database(BeeSettings.all_bees(), bee_cache_dir=bee_cache_dir)
        create_tables(fresh)
        layouts = {
            name: fresh.relation(name).layout for name in fresh.table_names()
        }
        loaded = fresh.bee_module.load_from_disk(layouts)
        print(f"fresh server loaded {loaded} bees from the on-disk cache")

        print()
        print("=" * 70)
        print("5. PLACEMENT OPTIMIZER (simulated 32KB L1-I cache)")
        print("=" * 70)
        placement = db.bee_module.placement_report()
        for label in ("naive", "optimized"):
            entry = placement[label]
            print(f"  {label:9s}: added conflict {entry['added_conflict']:.2f}, "
                  f"miss-rate delta {entry['miss_rate_delta']:.5f}")
        print("  (the paper found this effect ~trivial; so does the model)")

        print()
        print("=" * 70)
        print("6. BEE COLLECTOR (DROP TABLE kills the bees)")
        print("=" * 70)
        before = db.bee_module.statistics()
        db.drop_table("lineitem")
        after = db.bee_module.statistics()
        print(f"relation bees: {before['relation_bees']} -> "
              f"{after['relation_bees']}")
        print(f"collected so far: {after['collected_relation_bees']}")


if __name__ == "__main__":
    main()
