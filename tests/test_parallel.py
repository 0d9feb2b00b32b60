"""Morsel-driven parallel tier: equivalence, invalidation, resilience.

The worker pool must return the same rows as the serial tiers (up to
row order and float re-association), observe query-epoch bumps, survive
worker loss and stale snapshots by degrading or retrying, and keep its
mutable state declared in the swarmcheck registry.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bees.settings import BeeSettings
from repro.engine import expr as E
from repro.engine.aggregates import AggSpec
from repro.oracle import rows_equivalent, sorted_canonical
from repro.parallel.coordinator import (
    MORSEL_PAGES,
    MORSELS_PER_WORKER,
    _morsel_ranges,
)
from repro.swarmcheck.registry import lookup
from repro.wagglecheck.rewrite import expr_equal
from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import build_tpch_database, generate_rows
from repro.workloads.tpch.queries import QUERIES

# Small enough to load fast, big enough that lineitem clears the
# MIN_PARALLEL_PAGES bypass threshold.
SCALE_FACTOR = 0.002


@pytest.fixture(scope="module")
def tpch():
    rows = generate_rows(TPCHGenerator(SCALE_FACTOR, 0))
    with build_tpch_database(
        BeeSettings.parallelized(), rows=rows, parallel_workers=2
    ) as db:
        yield db


def _serial(db):
    return db.use_settings(db.settings.enabling(parallel=False))


# -- result equivalence ------------------------------------------------------


@pytest.mark.parametrize("number", [1, 3, 6, 14])
def test_parallel_matches_serial(tpch, number):
    parallel_rows = QUERIES[number](tpch)
    with _serial(tpch):
        serial_rows = QUERIES[number](tpch)
    assert rows_equivalent(parallel_rows, serial_rows)


def test_parallel_tier_actually_engages(tpch):
    coordinator = tpch.parallel_coordinator()
    before = coordinator.stats.morsels_dispatched
    QUERIES[6](tpch)
    assert coordinator.stats.morsels_dispatched > before
    assert coordinator.stats.workers_spawned >= 2


def test_small_relation_bypasses_pool(tpch):
    coordinator = tpch.parallel_coordinator()
    before = coordinator.stats.bypassed
    rows = tpch.sql("SELECT r_name FROM region").rows
    assert len(rows) == 5
    assert coordinator.stats.bypassed > before


# -- epoch protocol ----------------------------------------------------------


def test_query_epoch_bump_invalidates_pool(tpch):
    QUERIES[6](tpch)   # warm the pool and sync the epoch
    coordinator = tpch.parallel_coordinator()
    before = coordinator.stats.epoch_invalidations
    tpch.bee_module.invalidate_query_bees()   # the ALTER path
    rows = QUERIES[6](tpch)
    assert coordinator.stats.epoch_invalidations == before + 1
    with _serial(tpch):
        assert rows_equivalent(rows, QUERIES[6](tpch))


# -- chaos: worker loss and stale snapshots ----------------------------------


def test_worker_loss_degrades_not_wrong(tpch):
    coordinator = tpch.parallel_coordinator()
    coordinator.ensure_workers()
    crashes = coordinator.stats.worker_crashes
    degradations = coordinator.stats.degradations
    coordinator._chaos_kill_next = True
    rows = QUERIES[6](tpch)
    assert coordinator.stats.worker_crashes > crashes
    assert coordinator.stats.degradations > degradations
    with _serial(tpch):
        assert rows_equivalent(rows, QUERIES[6](tpch))


def test_stale_snapshot_reships_and_retries(tpch):
    coordinator = tpch.parallel_coordinator()
    QUERIES[6](tpch)   # warm snapshots so staleness must be forced
    retries = coordinator.stats.stale_retries
    coordinator._chaos_stale_next = True
    rows = QUERIES[6](tpch)
    assert coordinator.stats.stale_retries > retries
    with _serial(tpch):
        assert rows_equivalent(rows, QUERIES[6](tpch))


# -- stats surface -----------------------------------------------------------


def test_stats_snapshot_is_a_copy(tpch):
    QUERIES[6](tpch)
    snapshot = tpch.stats()["parallel"]
    assert snapshot["statements"] > 0
    snapshot["statements"] = -1
    assert tpch.stats()["parallel"]["statements"] != -1


# -- mergeable aggregate accumulators ----------------------------------------


@pytest.mark.parametrize("func", ["count", "sum", "avg", "min", "max"])
def test_agg_state_merge_equals_whole(func):
    arg = None if func == "count" else E.Col("x", 0)
    spec = AggSpec(func, arg)
    values = [3, None, 7, 1, None, 4, 10, 2]
    whole = spec.make_state()
    left, right = spec.make_state(), spec.make_state()
    for i, value in enumerate(values):
        if func != "count" and value is None:
            continue   # count(expr) NULL-skipping happens upstream
        whole.update(value)
        (left if i < 4 else right).update(value)
    left.merge(right)
    assert left.result() == whole.result()


def test_distinct_state_merge_unions():
    spec = AggSpec("count", E.Col("x", 0), distinct=True)
    left, right = spec.make_state(), spec.make_state()
    for value in (1, 2, 2, 3):
        left.update(value)
    for value in (3, 4, 1):
        right.update(value)
    left.merge(right)
    assert left.result() == 4


def test_merge_of_empty_partial_preserves_null_result():
    spec = AggSpec("max", E.Col("x", 0))
    left, right = spec.make_state(), spec.make_state()
    left.merge(right)
    assert left.result() is None


# -- the worker protocol's pickled surface -----------------------------------


def test_expr_pickle_roundtrip():
    exprs = [
        E.Cmp("<", E.Col("a", 0), E.Const(3)),
        E.Arith("*", E.Col("b", 1), E.Arith("-", E.Const(1), E.Col("c", 2))),
        E.Func("extract_year", E.Col("d", 3)),
        E.And(
            E.Between(E.Col("e", 4), 1, 9),
            E.Not(E.IsNull(E.Col("f", 5))),
        ),
    ]
    for expr in exprs:
        clone = pickle.loads(pickle.dumps(expr))
        assert expr_equal(expr, clone)


# -- morsel geometry ---------------------------------------------------------


def test_morsel_ranges_cover_and_coalesce():
    for n_pages in (16, 17, 100, 1000):
        for workers in (1, 2, 4):
            ranges = _morsel_ranges(n_pages, workers)
            assert ranges[0][0] == 0 and ranges[-1][1] == n_pages
            assert all(
                a[1] == b[0] for a, b in zip(ranges, ranges[1:])
            )
            # every morsel but the last amortizes at least a full page run
            assert all(hi - lo >= MORSEL_PAGES for lo, hi in ranges[:-1])
            # adaptive stride: bounded by ~MORSELS_PER_WORKER per worker
            # (or by the MORSEL_PAGES floor for small inputs)
            cap = max(
                MORSELS_PER_WORKER * workers,
                -(-n_pages // MORSEL_PAGES),
            )
            assert len(ranges) <= cap


# -- comparison helpers ------------------------------------------------------


def test_rows_equivalent_is_order_insensitive_and_float_tolerant():
    a = [(1, 1.0000000001), (2, 3.5)]
    b = [(2, 3.5), (1, 1.0)]
    assert rows_equivalent(a, b)


def test_rows_equivalent_is_type_exact():
    assert not rows_equivalent([(1,)], [(1.0,)])
    assert not rows_equivalent([(1.0,)], [(1.5,)])
    assert not rows_equivalent([(1,)], [(1,), (1,)])


def test_sorted_canonical_groups_float_noise():
    rows = [(0.1 + 0.2,), (0.3,)]
    ordered = sorted_canonical(rows)
    assert len(ordered) == 2   # both kept, adjacent under the sort key


# -- the shared-state contract -----------------------------------------------


def test_registry_declares_parallel_coordinator_state():
    for attr in ("_workers", "_shipped", "_epoch", "_stmt_seq"):
        entry = lookup("ParallelCoordinator", attr)
        assert entry is not None, attr
        assert entry.guard == "parallel_lock"
    assert (
        lookup("ParallelCoordinator", "_epoch").epoch
        == "GenericBeeModule.query_epoch"
    )
    assert lookup("Database", "_parallel") is not None


# -- worker lifetime ---------------------------------------------------------


def test_worker_holds_only_the_statement_in_flight():
    """Each ``prepare`` releases the statement before it (and its probe
    build table), so a worker holds one prepared entry however many
    statements it served, and a stale retry within the statement in
    flight still runs once the snapshot is re-shipped."""
    from repro.bees.pipeline.codegen import PipelineSpec
    from repro.db import Database
    from repro.parallel.worker import _WorkerState

    db = Database(BeeSettings.vectorized())
    db.sql("CREATE TABLE w (a int NOT NULL, b varchar(4))")
    db.sql(
        "INSERT INTO w VALUES "
        + ", ".join(f"({i}, 'b{i}')" for i in range(12))
    )
    rel = db.relation("w")
    pages = [[raw for _slot, raw in page.live_tuples()] for page in rel.heap.pages]
    args = (pages, rel.sections_list(), rel.layout)
    state = _WorkerState()
    state.install_snapshot("w", ("w", 1), *args)
    for stmt_id in range(1, 6):
        spec = PipelineSpec(
            "w", rel.layout,
            qual=E.bind(E.Cmp(">", E.Col("a"), E.Const(stmt_id)), ["a", "b"]),
            sink="probe", join_type="inner", probe_idx=(0,), build_width=1,
        )
        table = {(k,): [[f"t{k}"]] for k in range(stmt_id, 12, 2)}
        state.prepare(stmt_id, pickle.dumps(spec), "vector", table)
        assert list(state.prepared) == [stmt_id]
    # The statement in flight meets a newer snapshot token: stale, then
    # re-shipped and retried.
    assert state.run_task(5, "w", ("w", 2), 0, len(pages)) == ("stale", None)
    state.install_snapshot("w", ("w", 2), *args)
    payload, _delta = state.run_task(5, "w", ("w", 2), 0, len(pages))
    assert payload == [[k, f"b{k}", f"t{k}"] for k in (7, 9, 11)]
