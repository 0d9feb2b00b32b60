"""Slot-granular chunk cache, the GCL column sink, and DML on the
relation bee.

* a property test drives random interleavings of INSERT / UPDATE /
  DELETE / VACUUM / reannotate and checks after every step that the
  incrementally maintained chunk equals a fresh full decode — its
  ``tids`` column included, each naming the tuple whose values sit in
  that row (slot reuse, new pages, a VACUUMed heap);
* count tests pin how many pages a refresh visits, how many tuples it
  hands the column sink (the ones born since, nothing else) and what it
  charges;
* the column sink is compared with ``TupleLayout.decode`` on every
  TPC-H and TPC-C layout, NULL-bearing tuples included;
* DML returns the same statuses and leaves the same heap under every
  settings point, and a faulting GCL degrades the match scan instead of
  failing the statement.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bees.routines.gcl import generate_gcl_columns
from repro.bees.settings import BeeSettings
from repro.bees.vector.chunks import _FILLS, column_scratch, decode_relation
from repro.beecheck import check_gcl_cols
from repro.beecheck.transval import _layout_rows, _null_patterns
from repro.catalog import INT4, NUMERIC, char, make_schema, varchar
from repro.cost import constants as C
from repro.db import Database
from repro.resilience.chaos import ChaosInjector
from repro.storage.heapfile import unpack_tid
from repro.verify.corpus import _relation_layouts

PAD = "x" * 300          # ~25 rows per 8 KB page


def _schema(name="t"):
    return make_schema(name, [
        ("k", INT4),
        ("tag", char(4)),            # annotated: a tuple-bee attribute
        ("name", char(6), True),     # CHAR at declared width, nullable
        ("qty", INT4, True),
        ("price", NUMERIC),
        ("pad", varchar(400)),
    ])


def _row(k: int) -> list:
    return [
        k, ("AAAA", "BB", "C")[k % 3],
        None if k % 5 == 0 else f"n{k:05d}"[:6],
        None if k % 7 == 0 else k * 3, k + 0.5, PAD,
    ]


def _db(bees: BeeSettings, n: int, annotate=("tag",)) -> Database:
    db = Database(bees)
    db.create_table(_schema(), annotate=annotate)
    db.copy_from("t", [_row(k) for k in range(n)])
    return db


def assert_chunks_equal(got, want) -> None:
    assert got.n == want.n
    for a, (g, w) in enumerate(zip(got.cols, want.cols)):
        assert g.dtype == w.dtype, a
        assert g.shape == w.shape == (want.n,), a
        assert np.array_equal(g, w), a
    for a, (g, w) in enumerate(zip(got.nulls, want.nulls)):
        assert (g is None) == (w is None), a
        if g is not None:
            assert g.dtype == w.dtype == np.bool_ and np.array_equal(g, w), a
    assert got.tids.dtype == want.tids.dtype == np.int64
    assert got.tids.shape == (want.n,) and np.array_equal(got.tids, want.tids)


def assert_frozen(chunk) -> None:
    arrays = chunk.cols + [m for m in chunk.nulls if m is not None]
    for arr in arrays + [chunk.tids]:
        assert not arr.flags.writeable


def assert_tids_name_their_rows(chunk, rel) -> None:
    """Row *i* of the chunk holds the values of the live tuple at
    ``tids[i]`` — what a vectorized UPDATE/DELETE trusts."""
    sections = rel.sections_list()
    tids = chunk.tids.tolist()
    assert len(set(tids)) == chunk.n == rel.heap.live_count
    for i, ctid in enumerate(tids):
        raw = rel.heap.fetch(unpack_tid(ctid))
        values, isnull = rel.layout.decode(
            raw, sections[rel.layout.read_bee_id(raw)] if sections else None
        )
        for a, (value, null) in enumerate(zip(values, isnull)):
            if null:
                assert chunk.nulls[a][i]
            else:
                assert chunk.cols[a][i] == value
                assert chunk.nulls[a] is None or not chunk.nulls[a][i]


# -- (a) the property: a patched chunk is a full decode ----------------------

_OPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 30)),
    st.tuples(st.just("update_one"), st.integers(0, 400)),
    st.tuples(st.just("update_many"), st.integers(0, 400), st.integers(1, 60)),
    st.tuples(st.just("set_null"), st.integers(0, 400)),
    st.tuples(st.just("delete"), st.integers(0, 400), st.integers(1, 40)),
    st.tuples(st.just("vacuum")),
    st.tuples(st.just("reannotate"), st.booleans()),
)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 80), st.lists(_OPS, min_size=1, max_size=8))
def test_patched_chunk_equals_full_decode(initial, ops):
    db = _db(BeeSettings.vectorized(), initial)
    cache = db.chunk_cache
    cache.get(db.relation("t"))
    next_key = initial
    for op in ops:
        rel = db.relation("t")
        before = (rel.heap.uid, rel.layout)
        if op[0] == "insert":
            for k in range(next_key, next_key + op[1]):
                db.insert("t", _row(k))
            next_key += op[1]
        elif op[0] == "update_one":
            db.sql(f"UPDATE t SET qty = 7 WHERE k = {op[1]}")
        elif op[0] == "update_many":
            db.sql(
                f"UPDATE t SET price = price + 1 "
                f"WHERE k >= {op[1]} AND k < {op[1] + op[2]}"
            )
        elif op[0] == "set_null":
            db.update_where(
                "t", lambda v: v[0] == op[1],
                lambda v: v[:2] + [None, None] + v[4:],
            )
        elif op[0] == "delete":
            db.sql(f"DELETE FROM t WHERE k >= {op[1]} AND k < {op[1] + op[2]}")
        elif op[0] == "vacuum":
            db.sql("VACUUM t")
        else:
            db.reannotate("t", ("tag",) if op[1] else ())
        rel = db.relation("t")
        reused0 = cache.pages_reused
        got = cache.get(rel)
        assert_chunks_equal(got, decode_relation(rel))
        assert_frozen(got)
        assert_tids_name_their_rows(got, rel)
        if (rel.heap.uid, rel.layout) != before:
            # A new heap or a new layout object is never patched from
            # what the old one left in the cache.
            assert rel.heap.uid != before[0] or rel.layout is not before[1]
            assert cache.pages_reused == reused0
    db.close()


def test_same_heap_new_layout_object_is_a_full_decode():
    """The entry is found under the heap's uid but was built under
    another layout object: nothing of it may be spliced."""
    db = _db(BeeSettings.vectorized(), 120)
    rel = db.relation("t")
    db.chunk_cache.get(rel)
    db.insert("t", _row(500))
    from repro.storage.layout import TupleLayout

    rel.layout = TupleLayout(rel.schema, rel.layout.bee_attrs)
    stats0 = db.chunk_cache.statistics()
    got = db.chunk_cache.get(rel)
    stats = db.chunk_cache.statistics()
    assert stats["pages_reused"] == stats0["pages_reused"]
    assert stats["pages_decoded"] - stats0["pages_decoded"] == rel.heap.page_count
    assert_chunks_equal(got, decode_relation(rel))


def test_vacuum_never_serves_old_tids():
    """VACUUM moves every tuple into a new heap (new uid): a write right
    behind it must match on the new heap's tids, not the cached ones."""
    db = _db(BeeSettings.vectorized(), 120)
    db.sql("DELETE FROM t WHERE k < 60")            # whole pages of dead slots
    old = db.chunk_cache.get(db.relation("t"))
    db.sql("VACUUM t")
    rel = db.relation("t")
    reused0 = db.chunk_cache.pages_reused
    got = db.chunk_cache.get(rel)
    assert db.chunk_cache.pages_reused == reused0   # nothing spliced
    assert not np.array_equal(got.tids, old.tids)   # every tuple moved
    assert_tids_name_their_rows(got, rel)
    assert db.sql("UPDATE t SET qty = -5 WHERE k = 77").status == "UPDATE 1"
    assert db.sql("DELETE FROM t WHERE k = 78").status == "DELETE 1"
    rows = {row[0]: row for row in db.read_all("t")}
    assert rows[77][3] == -5 and 78 not in rows and len(rows) == 59
    assert all(rows[k] == _row(k) for k in rows if k != 77)
    assert_tids_name_their_rows(db.chunk_cache.get(db.relation("t")), rel)


def test_slot_reuse_and_new_pages_keep_tids_aligned():
    """Updates re-insert at the tail (a page the entry has, then pages
    it has never seen) while deletes leave dead slots behind."""
    db = _db(BeeSettings.vectorized(), 100)
    rel = db.relation("t")
    cache = db.chunk_cache
    cache.get(rel)
    for step in range(12):
        db.sql(f"UPDATE t SET qty = {step} WHERE k = {step * 7}")
        db.sql(f"DELETE FROM t WHERE k = {step * 7 + 1}")
        db.insert("t", _row(1000 + step))
        got = cache.get(rel)
        assert_chunks_equal(got, decode_relation(rel))
        assert_tids_name_their_rows(got, rel)
    assert cache.statistics()["pages_reused"] > 0
    assert rel.heap.page_count > 4


# -- (b) counts and charges ---------------------------------------------------


def test_single_row_update_redecodes_at_most_two_pages():
    db = _db(BeeSettings.vectorized(), 400)
    rel = db.relation("t")
    pages = rel.heap.page_count
    assert pages >= 10
    db.chunk_cache.get(rel)
    stats0 = db.chunk_cache.statistics()
    assert stats0["pages_decoded"] == pages and stats0["pages_reused"] == 0

    versions0 = list(rel.heap.page_versions)
    db.sql("UPDATE t SET qty = qty + 1 WHERE k = 33")
    snap = db.ledger.snapshot()
    got = db.chunk_cache.get(rel)
    delta = db.ledger.delta_since(snap)
    stats = db.chunk_cache.statistics()
    decoded = stats["pages_decoded"] - stats0["pages_decoded"]
    reused = stats["pages_reused"] - stats0["pages_reused"]
    assert 1 <= decoded <= 2
    assert decoded + reused == rel.heap.page_count
    assert stats["misses"] == stats0["misses"] + 1      # still a miss
    assert stats["hits"] == stats0["hits"] + 1    # the UPDATE's own match scan
    assert_chunks_equal(got, decode_relation(rel))

    # Clean pages cost a cache probe, dirty pages what a full decode
    # charges for them; only dirty pages touch the buffer pool.
    natts = rel.schema.natts
    dirty_rows = sum(
        sum(1 for _ in rel.heap.pages[p].live_tuples())
        for p, (old, new) in enumerate(zip(versions0, rel.heap.page_versions))
        if old != new
    )
    assert delta.total == (
        C.VEC_CHUNK_HIT * reused
        + decoded * (C.PAGE_ACCESS + C.VEC_CHUNK_BUILD * natts)
        + C.VEC_DECODE_PER_VALUE * natts * dirty_rows
    )
    assert delta.pages_hit + delta.seq_pages_read == decoded
    assert db.stats()["chunks"]["pages_reused"] == stats["pages_reused"]


class _CountingSink:
    """Wraps a relation's column-sink admission: how often the sink
    ran and how many raw tuples each call was handed."""

    def __init__(self, rel) -> None:
        self.calls: list[int] = []
        admit = rel.column_sink

        def admit_counting():
            sink = admit()

            def counting(raws, sections, cols, nulls):
                self.calls.append(len(raws))
                return sink(raws, sections, cols, nulls)

            return counting

        rel.column_sink = admit_counting


def _cached(n: int):
    """A vectorized database whose ``t`` (*n* rows) is in the chunk
    cache, and a counter round its column sink."""
    db = _db(BeeSettings.vectorized(), n)
    rel = db.relation("t")
    db.chunk_cache.get(rel)
    return db, rel, _CountingSink(rel)


def _refreshed(db, rel, sink=None):
    """Refresh ``t``'s chunk: the chunk, the delta of the cache's
    counters and the raw-tuple count of each sink call it made."""
    stats0 = db.chunk_cache.statistics()
    got = db.chunk_cache.get(rel)
    stats = db.chunk_cache.statistics()
    calls = list(sink.calls) if sink is not None else None
    assert_chunks_equal(got, decode_relation(rel))
    if sink is not None:
        sink.calls.clear()
    assert_frozen(got)
    assert_tids_name_their_rows(got, rel)
    return got, {key: stats[key] - stats0[key] for key in stats}, calls


def test_refresh_decodes_the_written_tuples_and_nothing_else():
    db, rel, sink = _cached(400)
    assert rel.heap.page_count >= 10

    db.sql("UPDATE t SET qty = qty + 1 WHERE k = 33")
    got, delta, calls = _refreshed(db, rel, sink)
    assert calls == [1]                       # the parent handed it a page
    assert delta["misses"] == 1 and delta["tuples_decoded"] == 1
    assert delta["rows_reused"] == got.n - 1 == 399
    assert db.stats()["chunks"]["tuples_decoded"] == (
        db.chunk_cache.statistics()["tuples_decoded"]
    )

    db.sql("UPDATE t SET price = price + 1 WHERE k >= 100 AND k < 117")
    _got, delta, calls = _refreshed(db, rel, sink)
    assert sum(calls) == delta["tuples_decoded"] == 17
    assert len(calls) <= 2                    # one call per page with births

    db.sql("DELETE FROM t WHERE k >= 200 AND k < 230")
    got, delta, calls = _refreshed(db, rel, sink)
    assert calls == []                        # deaths are a mask, not a decode
    assert delta["tuples_decoded"] == 0 and delta["rows_reused"] == got.n == 370
    assert delta["pages_decoded"] >= 1        # the pages were still visited

    pages = rel.heap.page_count
    for k in range(1000, 1040):               # overflows onto new pages
        db.insert("t", _row(k))
    assert rel.heap.page_count > pages
    _got, delta, calls = _refreshed(db, rel, sink)
    assert sum(calls) == delta["tuples_decoded"] == 40
    assert len(calls) == delta["pages_decoded"]


def test_tuple_born_and_killed_between_refreshes_never_appears():
    db, rel, sink = _cached(60)
    before = db.chunk_cache.get(rel)
    # By TID: a SQL write's match scan would refresh the chunk itself.
    tid = db.insert("t", _row(900))
    tid = db.update_by_tid("t", tid, _row(901))    # kills it, births another
    db.delete_by_tid("t", tid)                     # and kills that one too
    got, delta, calls = _refreshed(db, rel, sink)
    assert calls == [] and delta["tuples_decoded"] == 0
    assert_chunks_equal(got, before)


def test_page_with_every_row_deleted_then_more_writes():
    db, rel, sink = _cached(120)
    first_page = sum(1 for _ in rel.heap.pages[0].live_tuples())
    db.sql(f"DELETE FROM t WHERE k < {first_page}")
    got, delta, calls = _refreshed(db, rel, sink)
    assert got.n == 120 - first_page and calls == []
    assert not any(tid >> 16 == 0 for tid in got.tids.tolist())
    # The emptied page is clean now; a later refresh neither visits it
    # nor resurrects anything from it.
    db.sql("UPDATE t SET qty = 5 WHERE k = 100")
    _got, delta, calls = _refreshed(db, rel, sink)
    assert calls == [1] and delta["pages_reused"] >= 1


def test_relation_emptied_then_refilled():
    db, rel, sink = _cached(80)
    db.sql("DELETE FROM t")
    got, delta, calls = _refreshed(db, rel, sink)
    assert got.n == 0 and calls == [] and delta["rows_reused"] == 0
    db.copy_from("t", [_row(k) for k in range(300, 345)])
    got, delta, calls = _refreshed(db, rel, sink)
    assert got.n == 45 and sum(calls) == delta["tuples_decoded"] == 45
    # Old pages hold only dead slots: scanned from their recorded slot
    # count, not from 0, they hand the sink nothing.
    assert len(calls) <= rel.heap.page_count - 3


def test_write_to_null_bearing_and_tuple_bee_rows():
    """The born tuple takes the sink's slow path (a NULL) and a data
    section the entry has never seen (a new tuple-bee value)."""
    db, rel, sink = _cached(90)
    sections = len(rel.sections_list())
    db.update_where(
        "t", lambda v: v[0] in (11, 12),
        lambda v: [v[0], "ZZ", None, None] + v[4:],
    )
    assert len(rel.sections_list()) == sections + 1
    got, delta, calls = _refreshed(db, rel, sink)
    assert sum(calls) == delta["tuples_decoded"] == 2
    rows = {int(k): i for i, k in enumerate(got.cols[0].tolist())}
    for k in (11, 12):
        assert got.cols[1][rows[k]] == "ZZ"
        assert got.nulls[2][rows[k]] and got.nulls[3][rows[k]]


def test_refresh_stays_cheap_on_a_heap_of_mostly_dead_pages():
    """5,000 one-row updates of a 50-row relation leave hundreds of
    pages of dead slots behind.  The refresh still equals a fresh
    decode, and its wall follows the pages it visits, not the heap: at
    over 20x the pages (3 -> ~210) it may cost at most 4x — growth
    linear in the page count would be 20x and more; measured 1.0-1.05x."""
    db, rel, sink = _cached(50)

    def refresh_wall(start: int) -> float:
        walls = []
        for i in range(start, start + 40):
            db.sql(f"UPDATE t SET qty = {i} WHERE k = {i % 50}")
            t0 = time.perf_counter()
            db.chunk_cache.get(rel)
            walls.append(time.perf_counter() - t0)
        return sorted(walls)[len(walls) // 4]

    small_pages = rel.heap.page_count
    small = refresh_wall(0)
    for i in range(40, 5000):
        db.sql(f"UPDATE t SET qty = {i} WHERE k = {i % 50}")
    _got, delta, calls = _refreshed(db, rel, sink)
    assert delta["tuples_decoded"] <= 50 and delta["pages_reused"] > 100
    assert rel.heap.page_count >= 20 * small_pages
    assert rel.heap.live_count == 50
    large = refresh_wall(5000)
    assert large < 4 * small, (small, large)


def test_copy_into_cached_relation_equals_full_decode():
    db = _db(BeeSettings.vectorized(), 200)
    rel = db.relation("t")
    db.chunk_cache.get(rel)
    db.copy_from("t", [_row(k) for k in range(1000, 1130)])
    decoded0 = db.chunk_cache.statistics()["tuples_decoded"]
    got = db.chunk_cache.get(rel)
    assert_chunks_equal(got, decode_relation(rel))
    assert got.n == 330
    assert db.chunk_cache.statistics()["pages_reused"] > 0
    assert db.chunk_cache.statistics()["tuples_decoded"] - decoded0 == 130


def test_full_decode_charges_the_same_with_either_sink():
    """The column sink charges nothing itself: decode_relation's modeled
    cost is the reference decoder's, to the instruction."""
    deltas = []
    for bees in (BeeSettings.stock(), BeeSettings.relation_bees()):
        db = _db(bees, 150, annotate=())
        snap = db.ledger.snapshot()
        chunk = decode_relation(db.relation("t"))
        deltas.append((db.ledger.delta_since(snap), chunk))
    assert repr(deltas[0][0]) == repr(deltas[1][0])
    assert_chunks_equal(deltas[0][1], deltas[1][1])


def test_column_sink_rides_the_gcl_flag():
    db = _db(BeeSettings.vectorized(), 10)
    rel = db.relation("t")
    assert rel.column_sink() is not rel.reference_sink
    with db.use_settings(db.settings.enabling(gcl=False)):
        assert rel.column_sink() is rel.reference_sink
    with db.use_settings(db.settings.enabling(shield=False)):
        assert rel.column_sink() is rel.bee.gcl_cols.fn
    stock = _db(BeeSettings.stock(), 10)
    assert stock.relation("t").column_sink() is stock.relation("t").reference_sink


# -- (c) the column sink against the reference decoder ------------------------


@pytest.mark.parametrize(
    "label,layout", list(_relation_layouts()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_column_sink_matches_layout_decode(label, layout):
    routine = generate_gcl_columns(layout, f"GCLC_{label}")
    assert check_gcl_cols(routine, layout).ok
    bee_id = 0x0102 if layout.has_beeid else 0
    rows = _layout_rows(layout)
    tuples = [(values, None) for values in rows]
    for isnull in _null_patterns(layout):
        tuples.insert(
            len(tuples) // 2,
            ([None if isnull[i] else v for i, v in enumerate(rows[0])], isnull),
        )
    bee_values = layout.bee_key(rows[0]) if layout.has_beeid else None
    sections = {bee_id: bee_values} if layout.has_beeid else {}
    raws = [layout.encode(values, isnull, bee_id) for values, isnull in tuples]
    attrs = layout.schema.attributes
    cols, nulls = column_scratch(layout.schema)
    routine.fn(raws, sections, cols, nulls)
    for i, raw in enumerate(raws):
        values, isnull = layout.decode(raw, bee_values)
        for a, attr in enumerate(attrs):
            fill = _FILLS.get(attr.sql_type.struct_fmt, "")
            want = fill if isnull[a] else values[a]
            assert type(cols[a][i]) is type(want) and cols[a][i] == want
            if attr.nullable:
                assert nulls[a][i] is isnull[a]
            else:
                assert nulls[a] is None
    assert all(len(col) == len(raws) for col in cols)


# -- (d) DML on the relation bee ---------------------------------------------

_DML = (
    "UPDATE t SET qty = qty + 1 WHERE k = 17",
    "UPDATE t SET price = price * 2 WHERE k >= 30 AND k < 45",
    "UPDATE t SET name = 'zz' WHERE qty IS NULL",
    "DELETE FROM t WHERE k = 3",
    "DELETE FROM t WHERE k > 70 AND name IS NULL",
    "UPDATE t SET qty = 0 WHERE k = 100000",
    "DELETE FROM t",
)


def _run_dml(bees: BeeSettings):
    db = _db(bees, 90)
    statuses, heaps, costs = [], [], []
    for sql in _DML:
        snap = db.ledger.snapshot()
        statuses.append(db.sql(sql).status)
        costs.append(db.ledger.delta_since(snap).total)
        heaps.append(sorted(db.read_all("t"), key=repr))
    return statuses, heaps, costs, db


def test_dml_is_the_same_statement_under_every_settings_point():
    stock = _run_dml(BeeSettings.stock())
    for bees in (BeeSettings.all_bees(), BeeSettings.vectorized()):
        statuses, heaps, costs, db = _run_dml(bees)
        assert statuses == stock[0]
        assert heaps == stock[1]
        assert db.stats()["resilience"]["faults"] == 0
        # GCL + EVP instead of slot_deform_tuple + ExecQual: cheaper on
        # the modeled clock even with the WHERE clause now charged.
        assert sum(costs) < sum(stock[2])


def test_dml_where_clause_is_charged():
    db = _db(BeeSettings.stock(), 50, annotate=())
    rel = db.relation("t")
    snap = db.ledger.snapshot()
    db.delete_where("t", lambda values: False)     # opaque: nothing to charge
    free = db.ledger.delta_since(snap).total
    snap = db.ledger.snapshot()
    db.sql("DELETE FROM t WHERE k = 100000")
    charged = db.ledger.delta_since(snap).total
    from repro.sql.session import plan_match
    from repro.sql.parser import parse

    qual = plan_match(db, parse("DELETE FROM t WHERE k = 100000")).qual
    assert charged - free == qual.generic_cost * rel.heap.live_count


def test_dml_scan_uses_gcl_and_evp():
    db = _db(BeeSettings.all_bees(), 40)
    db.ledger.profiling = True
    db.sql("UPDATE t SET qty = 1 WHERE k = 5")
    names = set(db.ledger.by_function)
    assert "GCL_t" in names and any(n.startswith("EVP_") for n in names)
    assert "slot_deform_tuple" not in names
    db.ledger.by_function.clear()
    db.sql("UPDATE t SET qty = 2 WHERE k = 5", bees=False)
    assert "slot_deform_tuple" in db.ledger.by_function
    assert "GCL_t" not in db.ledger.by_function


@pytest.mark.parametrize("site", ["gcl-raise", "gcl-arity", "evp-raise",
                                  "evp-wrong-type"])
def test_faulting_bee_degrades_the_match_scan(site):
    stock = _db(BeeSettings.stock(), 60)
    chaos = ChaosInjector(0)
    with chaos.armed(site):
        db = _db(BeeSettings.all_bees(), 60)
        for sql in _DML[:5]:
            assert db.sql(sql).status == stock.sql(sql).status
    assert sorted(db.read_all("t"), key=repr) == sorted(
        stock.read_all("t"), key=repr
    )
    assert chaos.fired[site] > 0
    report = db.stats()["resilience"]
    assert report["faults"] > 0
    family = site.split("-")[0]
    assert any(key.startswith(f"{family}/") for key in report["by_site"])


def test_dml_fault_rolls_the_ledger_back_to_generic():
    """A degraded UPDATE costs exactly what the generic UPDATE costs."""
    sql = "UPDATE t SET qty = qty + 1 WHERE k = 17"
    generic = _db(BeeSettings.all_bees().enabling(gcl=False, evp=False), 60)
    snap = generic.ledger.snapshot()
    generic.sql(sql)
    want = generic.ledger.delta_since(snap).total
    with ChaosInjector(0).armed("gcl-raise"):
        db = _db(BeeSettings.all_bees().enabling(evp=False), 60)
        snap = db.ledger.snapshot()
        assert db.sql(sql).status == "UPDATE 1"
        assert db.ledger.delta_since(snap).total == want


def test_unshielded_dml_fault_surfaces():
    from repro.resilience.errors import ChaosFault

    with ChaosInjector(0).armed("gcl-raise"):
        db = _db(BeeSettings.all_bees().enabling(shield=False), 20)
        with pytest.raises(ChaosFault):
            db.sql("UPDATE t SET qty = 1 WHERE k = 5")


def test_raising_user_predicate_is_the_callers_error():
    db = _db(BeeSettings.all_bees(), 20)

    def boom(_values):
        raise KeyError("mine")

    with pytest.raises(KeyError):
        db.delete_where("t", boom)
    assert db.stats()["resilience"]["faults"] == 0
    assert len(db.read_all("t")) == 20


# -- the column sink under beeshield -----------------------------------------


@pytest.mark.parametrize("tamper", ["raise", "short"])
def test_faulting_column_sink_falls_back_to_reference(tamper):
    db = _db(BeeSettings.vectorized(), 120)
    rel = db.relation("t")
    want = decode_relation(rel)
    inner = rel.bee.gcl_cols.fn

    def raising(raws, sections, cols, nulls):
        inner(raws[:1], sections, cols, nulls)      # partial appends
        raise RuntimeError("boom")

    def short(raws, sections, cols, nulls):
        inner(raws, sections, cols, nulls)
        cols[-1].pop()                              # one column too short

    rel.bee.gcl_cols.fn = raising if tamper == "raise" else short
    got = db.chunk_cache.get(rel)
    assert_chunks_equal(got, want)
    report = db.stats()["resilience"]
    kind = "exception" if tamper == "raise" else "shape"
    assert report["by_site"][f"gcl/{kind}"] >= 1
    assert "GCLC_t" in report["quarantined"]
    rows = db.sql("SELECT count(*), sum(price) FROM t WHERE k < 50").rows
    assert rows == db.sql(
        "SELECT count(*), sum(price) FROM t WHERE k < 50", bees=False
    ).rows


@pytest.mark.parametrize("tamper", ["raise", "short"])
def test_faulting_column_sink_on_a_refresh_costs_its_page(tamper):
    """The sink runs under the guard once per page with births: a fault
    while patching redoes that page's births on the reference decoder
    and counts one failure, as a faulting page of a full decode does."""
    db = _db(BeeSettings.vectorized(), 120)
    rel = db.relation("t")
    db.chunk_cache.get(rel)
    inner = rel.bee.gcl_cols.fn

    def raising(raws, sections, cols, nulls):
        inner(raws[:1], sections, cols, nulls)
        raise RuntimeError("boom")

    def short(raws, sections, cols, nulls):
        inner(raws, sections, cols, nulls)
        cols[-1].pop()

    rel.bee.gcl_cols.fn = raising if tamper == "raise" else short
    kind = "exception" if tamper == "raise" else "shape"
    for step, failures in ((0, 1), (1, 2)):
        db.sql(f"UPDATE t SET qty = -1 WHERE k >= {step * 10} AND k < {step * 10 + 3}")
        got = db.chunk_cache.get(rel)
        rel.bee.gcl_cols.fn, tampered = inner, rel.bee.gcl_cols.fn
        assert_chunks_equal(got, decode_relation(rel))
        rel.bee.gcl_cols.fn = tampered
        assert db.stats()["resilience"]["by_site"][f"gcl/{kind}"] == failures
