"""The one fused-driver family: every tier x sink cell, one contract.

Per cell: the result equals stock, the EXPLAIN label is the historical
one, quarantining the cell's health key drains the next tier down, and
the ledger charge equals the literal pinned before the nine driver
classes were collapsed (and, with one TPC-H q3/q5 total, before the
hash-join build was charged once per build).  Around the grid: the output width check fires
on every tier (it used to skip the pipeline agg sink), and the forked
driver modules stay deleted.
"""

from __future__ import annotations

import importlib
from collections import Counter

import pytest

import repro.bees.pipeline.codegen as pipeline_codegen
import repro.bees.vector.codegen as vector_codegen
from repro.bees.drivers import TIER_BY_NAME, TIERS, FusedDriver, stack_tiers
from repro.bees.settings import BeeSettings
from repro.db import Database
from repro.engine.nodes import PlanNode
from repro.oracle import rows_equivalent
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.workloads.tpch import QUERIES
from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import build_tpch_database, generate_rows

SETTINGS = {
    "pipeline": BeeSettings.pipelined,
    "vector": BeeSettings.vectorized,
    "parallel": BeeSettings.parallelized,
}
STATEMENTS = {
    "rows": "SELECT id, val FROM big WHERE val > 500.0",
    "probe": "SELECT big.id, dim.label FROM big JOIN dim ON big.grp = dim.grp",
    "agg": "SELECT grp, SUM(val), COUNT(*) FROM big GROUP BY grp",
}
LABELS = {"rows": "Scan", "probe": "Join", "agg": "Agg"}
CELLS = [(tier, sink) for tier in SETTINGS for sink in STATEMENTS]

#: Virtual instructions of the cell's statement, first execution on a
#: fresh warm-buffer database — measured at the commit *before* the
#: driver classes were unified.  A drift means a charge moved.
PINNED = {
    ("pipeline", "rows"): 4752780,
    ("pipeline", "probe"): 8957453,
    ("pipeline", "agg"): 2626036,
    ("vector", "rows"): 3571124,
    ("vector", "probe"): 7721382,
    ("vector", "agg"): 1195266,
    ("parallel", "rows"): 3598416,
    ("parallel", "probe"): 7759010,
    ("parallel", "agg"): 1199551,
}


def make_db(tier: str) -> Database:
    """``big`` clears the pool's small-relation bypass (21 pages);
    one worker keeps the parallel makespan deterministic."""
    db = Database(SETTINGS[tier](), parallel_workers=1)
    db.sql(
        "CREATE TABLE big (id int NOT NULL, grp int NOT NULL, "
        "val float NOT NULL, tag char(3) NOT NULL, ANNOTATE (tag))"
    )
    db.sql("CREATE TABLE dim (grp int NOT NULL, label varchar(10) NOT NULL)")
    db.copy_from(
        "big",
        [
            [i, i % 7, float((i * 37) % 1000), "abc" if i % 3 else "xyz"]
            for i in range(6000)
        ],
    )
    db.copy_from("dim", [[g, f"g{g}"] for g in range(5)])
    db.warm_cache()
    return db


@pytest.fixture(scope="module")
def dbs():
    built = {tier: make_db(tier) for tier in SETTINGS}
    yield built
    for db in built.values():
        db.close()


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


@pytest.fixture
def ran(monkeypatch) -> Counter:
    """``(tier, relation, sink)`` -> fused drivers that ran their tier's
    routine (opened units rather than draining their anchor) so far."""
    opened: Counter = Counter()
    for row in TIERS:

        def counting(ctx, driver, rel, build_table, row=row, real=row.open):
            units = real(ctx, driver, rel, build_table)
            if units is not None:
                spec = driver.spec
                opened[row.name, spec.relation, spec.sink] += 1
            return units

        monkeypatch.setattr(row, "open", counting)
    return opened


@pytest.mark.parametrize("tier,sink", CELLS)
class TestCell:
    def test_result_equals_stock(self, dbs, ran, tier, sink):
        db = dbs[tier]
        rows = db.sql(STATEMENTS[sink]).rows
        assert ran[tier, "big", sink] == 1, "the cell's tier never ran"
        assert rows and rows_equivalent(
            rows, db.sql(STATEMENTS[sink], bees=False).rows
        )

    def test_explain_label_unchanged(self, dbs, tier, sink):
        db = dbs[tier]
        plan = plan_select(db, parse(STATEMENTS[sink]))
        stacked = stack_tiers(plan, db, db.settings, None)
        drivers = [
            node for node in _walk(stacked)
            if getattr(node, "identity", None) == (tier, sink)
        ]
        assert drivers, stacked.explain()
        label = f"{tier.capitalize()}{LABELS[sink]}["
        assert drivers[0].node_label().startswith(label)
        assert label in stacked.explain()

    def test_quarantine_drains_next_tier_down(self, dbs, ran, tier, sink):
        db = dbs[tier]
        key = f"{TIER_BY_NAME[tier].prefix}:big:{sink}"
        below = {"parallel": "vector", "vector": "pipeline"}.get(tier)
        for _ in range(3):
            db.resilience.record_failure(key, site="test", kind="test")
        assert key in db.resilience.quarantined()
        db.ledger.profiling = True
        db.ledger.by_function.clear()
        try:
            rows = db.sql(STATEMENTS[sink]).rows
            profile = dict(db.ledger.by_function)
        finally:
            db.ledger.profiling = False
            db.resilience.clear_prefix(key)
        assert ran[tier, "big", sink] == 0
        if below:
            assert ran[below, "big", sink] == 1
        else:
            # Below the pipeline tier sit the routine bees: the generic
            # scan deforms through the relation bee's GCL.
            assert profile.get("GCL_big")
        assert rows_equivalent(rows, db.sql(STATEMENTS[sink], bees=False).rows)

    def test_ledger_delta_equals_parent_commit(self, tier, sink):
        with make_db(tier) as db:
            run = db.measure(lambda: db.sql(STATEMENTS[sink]))
        assert run.instructions == PINNED[tier, sink]


#: Virtual instructions of TPC-H q3 + q5 (SF 0.002, fresh database) —
#: five hash-join builds of one and two keys on every tier's path —
#: measured at the commit *before* ``HashJoin.build_table`` began
#: charging once per build instead of once per row.
PINNED_Q3_Q5 = {
    "stock": 55873744, "all_bees": 44024310, "vectorized": 10789211,
}


def test_hash_build_charges_what_the_per_row_loop_did():
    rows = generate_rows(TPCHGenerator(0.002, 20120401))
    for name, pinned in PINNED_Q3_Q5.items():
        with build_tpch_database(getattr(BeeSettings, name)(), rows=rows) as db:
            QUERIES[3](db)
            QUERIES[5](db)
            assert db.ledger.total == pinned, name


# -- the width check exists once, so it fires everywhere ----------------------


def _widen_groups(fn):
    """A pipeline agg routine whose group keys grow a phantom column."""

    def tampered(batch, sections, groups, make_states):
        fn(batch, sections, groups, make_states)
        for key in [k for k in groups if len(k) == 1]:
            groups[key + (None,)] = groups.pop(key)

    return tampered


def _widen_rows(fn):
    """A vector agg kernel whose finished rows grow a phantom column."""
    return lambda cols, nulls, n: [row + [None] for row in fn(cols, nulls, n)]


def _widen_partials(fn):
    """A partial-agg kernel whose group keys grow a phantom column."""
    return lambda cols, nulls, n: [
        (key + (None,), states) for key, states in fn(cols, nulls, n)
    ]


TAMPERS = {
    "pipeline": (pipeline_codegen, "generate_pipeline", _widen_groups),
    "vector": (vector_codegen, "generate_vector", _widen_rows),
    # Workers compile their own routines (the mergeable form of the
    # vector kernel); they fork after the patch.
    "parallel": (vector_codegen, "generate_vector", _widen_partials),
}


@pytest.mark.parametrize("tier", list(SETTINGS))
def test_wrong_width_agg_row_retries_on_every_tier(monkeypatch, tier):
    module, name, widen = TAMPERS[tier]
    generate = getattr(module, name)

    def tampered_generate(spec, *args, **kwargs):
        routine = generate(spec, *args, **kwargs)
        mergeable = kwargs.get("mergeable", False)
        if spec.sink == "agg" and mergeable == (tier == "parallel"):
            routine.fn = widen(routine.fn)
        return routine

    monkeypatch.setattr(module, name, tampered_generate)
    family = TIER_BY_NAME[tier].family
    with make_db(tier) as db:
        rows = db.sql(STATEMENTS["agg"]).rows
        by_site = db.resilience.report()["by_site"]
        assert by_site.get(f"{family}/arity") == 1, by_site
        assert rows_equivalent(rows, db.sql(STATEMENTS["agg"], bees=False).rows)


# -- the fork stays collapsed -------------------------------------------------


@pytest.mark.parametrize("path", [
    "repro.bees.pipeline.nodes",
    "repro.bees.vector.nodes",
    "repro.bees.vector.fusion",
    "repro.parallel.nodes",
    "repro.parallel.fusion",
])
def test_forked_driver_modules_stay_deleted(path):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(path)


def test_one_plan_node_family_implements_fused_drivers():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    drivers = {cls for cls in subclasses(PlanNode) if hasattr(cls, "batches")}
    assert drivers == {FusedDriver}
