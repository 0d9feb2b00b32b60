"""UPDATE/DELETE match scans are plans.

The match phase of a SQL UPDATE/DELETE is ``Filter(SeqScan(t, ctid),
qual)`` run through the executor, so it must behave like the same
statement on every tier:

* same status and same final table on every local settings point, over
  NULL-bearing columns, CHAR at declared width, annotated (tuple-bee)
  attributes, multi-row matches, a SET of the column the WHERE reads,
  match-all, match-none and the empty relation;
* the ctid a scan emits names the tuple whose values sit beside it;
* a chaos fault in the tier that runs the match degrades down the
  ladder and every row is still modified exactly once;
* a caller's opaque callable that raises reaches the caller and
  quarantines nothing;
* ``timeout=`` and per-statement settings reach the match plan; a
  timed-out write modifies nothing;
* EXPLAIN UPDATE/DELETE names the tier that runs the match;
* an UPDATE whose updater or encoder rejects a row — the first or a
  later one, by scan or by TID — modifies nothing, and one that succeeds
  charges what the delete-then-encode order did;
* a multi-row INSERT whose later row is rejected inserts nothing,
  charges nothing and creates no tuple bee, and one that succeeds
  charges what inserting its rows one by one did;
* a value an annotated (tuple-bee) attribute's type cannot hold is
  refused on every write path, as it is for a stored attribute.
"""

from __future__ import annotations

import struct

import pytest

from repro.bees.drivers import settings_points
from repro.bees.settings import BeeSettings
from repro.cost import constants as C
from repro.db import Database
from repro.engine import dml, expr as E
from repro.engine.dml import match_plan
from repro.engine.nodes import SeqScan
from repro.resilience import QueryTimeout
from repro.resilience.chaos import ChaosInjector
from repro.server.core import HiveServer
from repro.storage.heapfile import TID, pack_tid, unpack_tid
from tests.test_chunk_patch import _db as _chunk_db, _row

#: stock, the paper's routine bees, then one point per local tier row.
POINTS = [("stock", BeeSettings.stock()), ("all_bees", BeeSettings.all_bees())] + [
    (tier.name, point)
    for tier, point in settings_points(BeeSettings.all_bees())
    if not tier.remote
]
IDS = [name for name, _ in POINTS]


def _db(bees: BeeSettings, n: int = 90) -> Database:
    """The chunk-patch tests' relation: NULL-bearing columns, CHAR at
    declared width, an annotated attribute, ~25 rows per page."""
    return _chunk_db(bees, n)


def _table(db) -> list:
    return sorted(db.read_all("t"), key=repr)


#: Each statement runs on what the one before left behind.
WRITES = (
    "UPDATE t SET qty = qty + 1 WHERE k = 17",                  # keyed, one row
    "UPDATE t SET price = price * 2 WHERE k >= 30 AND k < 45",  # multi-row
    "UPDATE t SET name = 'abcdef' WHERE qty IS NULL",           # NULLs, full width
    "UPDATE t SET qty = qty + 40 WHERE qty < 60",     # SET what the WHERE reads
    "UPDATE t SET tag = 'ZZZZ' WHERE tag = 'BB'",               # annotated attr
    "UPDATE t SET name = NULL WHERE name LIKE 'n0001%'",        # object lane
    "DELETE FROM t WHERE k > 70 AND name IS NULL",
    "DELETE FROM t WHERE k = 3",
    "UPDATE t SET qty = 0 WHERE k = 100000",                    # match-none
    "UPDATE t SET price = price + 1",                           # match-all
    "DELETE FROM t",                                            # match-all
    "UPDATE t SET qty = 1 WHERE k = 1",                         # empty relation
    "DELETE FROM t WHERE k < 5",                                # empty relation
)


def _run_writes(bees: BeeSettings):
    db = _db(bees)
    statuses, tables = [], []
    for sql in WRITES:
        statuses.append(db.sql(sql).status)
        tables.append(_table(db))
    return statuses, tables, db


@pytest.fixture(scope="module")
def stock_run():
    statuses, tables, db = _run_writes(BeeSettings.stock())
    db.close()
    return statuses, tables


@pytest.mark.parametrize("name,bees", POINTS[1:], ids=IDS[1:])
def test_writes_are_the_same_statement_on_every_point(name, bees, stock_run):
    statuses, tables, db = _run_writes(bees)
    assert statuses == stock_run[0]
    assert tables == stock_run[1]
    assert statuses[3] == "UPDATE 17"       # no row matched (or written) twice
    assert db.stats()["resilience"]["faults"] == 0
    db.close()


def test_per_statement_settings_pick_the_match_tier():
    """One database, every point as a per-statement override."""
    want = _run_writes(BeeSettings.stock())
    db = _db(BeeSettings.all_bees())
    for sql, status, table in zip(WRITES, want[0], want[1]):
        _name, bees = POINTS[len(sql) % len(POINTS)]
        assert db.sql(sql, bees=bees).status == status
        assert _table(db) == table


# -- the ctid scan -----------------------------------------------------------


def test_tid_packing_round_trips():
    for tid in (TID(0, 0), TID(0, 65535), TID(7, 3), TID(123456, 41)):
        assert unpack_tid(pack_tid(*tid)) == tid
    assert pack_tid(2, 5) != pack_tid(5, 2)


@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_ctid_names_the_tuple_beside_it(name, bees):
    db = _db(bees)
    db.sql("DELETE FROM t WHERE k >= 10 AND k < 20")      # dead slots
    db.copy_from("t", [_row(k) for k in range(200, 230)])  # a new page
    rel = db.relation("t")
    scan = SeqScan("t", ctid=True)
    rows = db.execute(scan, emit=False)
    assert scan.columns == rel.schema.column_names() + ["ctid"]
    assert scan.nullable[-1] is False
    assert len(rows) == rel.heap.live_count
    assert len({row[-1] for row in rows}) == len(rows)
    sections = rel.sections_list()
    for row in rows:
        raw = rel.heap.fetch(unpack_tid(row[-1]))
        values, isnull = rel.layout.decode(
            raw, sections[rel.layout.read_bee_id(raw)] if sections else None
        )
        want = [None if null else v for v, null in zip(values, isnull)]
        assert list(row[:-1]) == want
    # A qual may read the ctid like any NOT NULL int column.
    third = sorted(row[-1] for row in rows)[2]
    plan = match_plan(
        db, "t", E.Cmp("=", E.Col("ctid"), E.Const(third))
    )
    assert [row[-1] for row in db.execute(plan, emit=False)] == [third]
    db.close()


def test_match_plan_runs_where_the_settings_say():
    db = _db(BeeSettings.vectorized())
    db.ledger.profiling = True
    assert db.sql("UPDATE t SET qty = 1 WHERE k = 5").status == "UPDATE 1"
    names = set(db.ledger.by_function)
    assert any(n.startswith("VEC_") for n in names)
    assert "GCL_t" not in names and not any(n.startswith("EVP_") for n in names)
    db.ledger.by_function.clear()
    db.sql("UPDATE t SET qty = 2 WHERE k = 5", vectors=False)
    assert any(n.startswith("PIPE_") for n in db.ledger.by_function)
    db.ledger.by_function.clear()
    db.sql("UPDATE t SET qty = 3 WHERE k = 5", bees=False)
    assert "slot_deform_tuple" in db.ledger.by_function
    assert db.sql("SELECT qty FROM t WHERE k = 5").rows == [(3,)]
    db.close()


def test_parallel_tier_declines_the_match_scan():
    db = _db(BeeSettings.parallelized(), 600)      # past the dispatch floor
    assert db.relation("t").heap.page_count >= 16
    plan = [r[0] for r in db.sql("EXPLAIN DELETE FROM t WHERE k = 5").rows]
    assert plan == ["-> VectorScan[Filter <- SeqScan(t+ctid)]"]
    assert db.sql("DELETE FROM t WHERE k = 5").status == "DELETE 1"
    assert db._parallel is None                    # no pool was spawned
    assert db.sql("SELECT count(*) FROM t").rows == [(599,)]
    db.close()


# -- EXPLAIN -----------------------------------------------------------------


def test_explain_write_prints_the_stacked_match_plan():
    def explain(db, sql, **kwargs):
        return [row[0] for row in db.sql(sql, **kwargs).rows]

    db = _db(BeeSettings.vectorized())
    before = _table(db)
    assert explain(db, "EXPLAIN UPDATE t SET qty = 1 WHERE k = 5") == [
        "-> VectorScan[Filter <- SeqScan(t+ctid)]"
    ]
    assert explain(db, "EXPLAIN DELETE FROM t") == [
        "-> VectorScan[SeqScan(t+ctid)]"
    ]
    assert explain(db, "EXPLAIN DELETE FROM t WHERE k = 5", vectors=False) == [
        "-> PipelineScan[Filter <- SeqScan(t+ctid)]"
    ]
    assert explain(db, "EXPLAIN DELETE FROM t WHERE k = 5", bees=False) == [
        "-> Filter(Cmp(Col(k@0) = Const(5)))",
        "  -> SeqScan(t+ctid)",
    ]
    assert _table(db) == before                    # EXPLAIN wrote nothing
    db.close()


def test_explain_write_through_the_server():
    db = _db(BeeSettings.vectorized())
    server = HiveServer(db)
    with server.session() as session:
        rows = session.sql("EXPLAIN UPDATE t SET qty = 1 WHERE k = 5").rows
        assert rows == [("-> VectorScan[Filter <- SeqScan(t+ctid)]",)]
        assert session.sql("SELECT qty FROM t WHERE k = 5").rows == [(15,)]
    db.close()


# -- faults ------------------------------------------------------------------


@pytest.mark.parametrize("site,bees", [
    ("vector-shape", BeeSettings.vectorized()),
    ("vector-gen-raise", BeeSettings.vectorized()),
    ("gcl-cols-raise", BeeSettings.vectorized()),
    ("pipeline-raise", BeeSettings.pipelined()),
    ("pipeline-arity", BeeSettings.pipelined()),
    ("fusion-raise", BeeSettings.pipelined()),
    ("evp-raise", BeeSettings.all_bees()),
    ("evp-wrong-type", BeeSettings.all_bees()),
    ("gcl-raise", BeeSettings.all_bees()),
], ids=lambda v: v if isinstance(v, str) else "")
def test_fault_during_the_match_degrades_and_writes_once(site, bees, stock_run):
    chaos = ChaosInjector(0)
    with chaos.armed(site):
        statuses, tables, db = _run_writes(bees)
    assert statuses == stock_run[0]
    assert tables == stock_run[1]       # each row modified exactly once
    assert chaos.fired[site] > 0
    assert db.stats()["resilience"]["faults"] > 0
    db.close()


@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_raising_callable_is_the_callers_error(name, bees):
    db = _db(bees, 20)

    def boom(values):
        if values[0] == 7:
            raise KeyError("mine")
        return True

    with pytest.raises(KeyError, match="mine"):
        db.delete_where("t", boom)
    with pytest.raises(KeyError, match="mine"):
        db.update_where("t", boom, lambda values: values)
    report = db.stats()["resilience"]
    assert report["faults"] == 0 and report["quarantined"] == []
    assert len(db.read_all("t")) == 20          # nothing was written
    db.close()


@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_callable_predicate_sees_the_schema_row(name, bees):
    db = _db(bees, 30)
    widths = set()

    def small(values):
        widths.add(len(values))
        return values[0] < 4

    snap = db.ledger.snapshot()
    assert db.delete_where("t", lambda values: False) == 0
    scan_only = db.ledger.delta_since(snap).total
    assert db.update_where(
        "t", small, lambda values: values[:3] + [-1] + values[4:]
    ) == 4
    assert widths == {db.relation("t").schema.natts}     # never the ctid
    assert db.sql("SELECT count(*) FROM t WHERE qty = -1").rows == [(4,)]
    assert scan_only > 0
    db.close()


# -- timeout -----------------------------------------------------------------


@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_timed_out_write_modifies_nothing(name, bees):
    db = _db(bees, 400)
    before = _table(db)
    version = db.relation("t").heap.version
    for sql in (
        "UPDATE t SET qty = qty + 1",
        "UPDATE t SET qty = 0 WHERE k >= 0",
        "DELETE FROM t",
    ):
        snap = db.ledger.snapshot()
        with pytest.raises(QueryTimeout):
            db.sql(sql, timeout=0.0)
        assert db.ledger.delta_since(snap).total == 0    # rolled back
    assert db.relation("t").heap.version == version      # zero rows modified
    assert _table(db) == before
    assert db._deadline is None
    assert db.sql("UPDATE t SET qty = 5 WHERE k = 9", timeout=60).status == (
        "UPDATE 1"
    )
    db.close()


def test_server_statement_timeout_reaches_writes():
    db = _db(BeeSettings.vectorized(), 400)
    before = _table(db)
    server = HiveServer(db)
    with server.session() as session:
        with pytest.raises(QueryTimeout):
            session.sql("DELETE FROM t", timeout=0.0)
        assert server.stats_snapshot()["timeouts"] == 1
        assert session.sql("DELETE FROM t WHERE k = 1").status == "DELETE 1"
    assert len(db.read_all("t")) == len(before) - 1
    db.close()


# -- a rejected UPDATE modifies nothing ---------------------------------------


def _indexed_db(bees: BeeSettings, n: int = 60) -> Database:
    db = _db(bees, n)
    db.create_index("t", "t_k", ["k"])
    return db


def _state(db):
    """Everything a failed statement must leave alone."""
    rel = db.relation("t")
    index = rel.indexes["t_k"]
    return (
        _table(db), rel.heap.version, list(rel.heap.page_versions),
        [index.lookup((k,)) for k in range(60)],
    )


@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_rejected_update_keeps_the_row_it_matched(name, bees):
    """ISSUE 18's repro: the encoder rejects the new row (CHAR overflow)
    after the match; the old row must still be there."""
    db = Database(bees)
    db.sql("CREATE TABLE t (k INT NOT NULL, c CHAR(3) NOT NULL)")
    db.sql("INSERT INTO t VALUES (1, 'abc')")
    db.sql("INSERT INTO t VALUES (2, 'def')")
    version = db.relation("t").heap.version
    with pytest.raises(ValueError):
        db.sql("UPDATE t SET c = 'toolong' WHERE k = 1")
    assert db.relation("t").heap.version == version
    assert sorted(db.sql("SELECT * FROM t").rows) == [(1, "abc"), (2, "def")]
    db.close()


@pytest.mark.parametrize("reject", ["encoder", "updater"])
@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_update_rejected_on_a_later_row_modifies_none(name, bees, reject):
    db = _indexed_db(bees)
    db.sql("SELECT count(*) FROM t WHERE qty > 3")      # warm the chunk cache
    before = _state(db)
    chunk_misses = db.chunk_cache.statistics()["misses"]
    seen = []

    def updater(values):
        seen.append(values[0])
        if len(seen) == 2:
            if reject == "updater":
                raise KeyError("caller's bug")
            values[2] = "wider than six"                 # name is CHAR(6)
        else:
            values[3] = -1
        return values

    qual = E.Between(E.Col("k"), 10, 14)
    with pytest.raises(KeyError if reject == "updater" else ValueError):
        db.update_where("t", qual, updater)
    assert len(seen) == 2                                # stopped at the reject
    assert _state(db) == before
    db.sql("SELECT count(*) FROM t WHERE qty > 3")
    assert db.chunk_cache.statistics()["misses"] == chunk_misses
    assert db.update_where("t", qual, lambda v: v[:3] + [-1] + v[4:]) == 5
    assert db.sql("SELECT count(*) FROM t WHERE qty = -1").rows == [(5,)]
    db.close()


@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_rejected_update_by_tid_keeps_the_row(name, bees):
    db = _indexed_db(bees)
    before = _state(db)
    (tid,) = db.relation("t").indexes["t_k"].lookup((7,))
    with pytest.raises(ValueError):
        db.update_by_tid("t", tid, [7, "AAAA", "wider than six", 1, 1.0, "p"])
    with pytest.raises(ValueError):
        db.update_by_tid("t", tid, [7, "AAAA"])          # wrong arity
    assert _state(db) == before
    new_tid = db.update_by_tid("t", tid, [7, "AAAA", "ok", 1, 1.0, "p"])
    assert db.relation("t").indexes["t_k"].lookup((7,)) == [new_tid]
    db.close()


def _update_in_the_old_order(db, qual, updater) -> int:
    """The parent's apply loop — delete, then encode and store, row by
    row — kept as the reference for what a successful UPDATE charges."""
    matches = dml.matches(db, match_plan(db, "t", qual))
    rel, writer = db.relation("t"), dml.RowWriter(db, "t")
    for tid, old_values in matches:
        new_values = updater(list(old_values))
        rel.heap.delete(tid)
        rel.index_delete(old_values, tid)
        writer.write(new_values, C.INSERT_PER_ROW)
    return len(matches)


def _update_by_tid_in_the_old_order(db, tid, new_values):
    rel = db.relation("t")
    raw = rel.heap.fetch(tid, sequential=False)
    old_values = rel.generic_deformer(raw, rel.sections_list())
    writer = dml.RowWriter(db, "t")
    rel.heap.delete(tid)
    rel.index_delete(old_values, tid)
    return writer.write(new_values, C.INSERT_PER_ROW)


@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_successful_update_charges_what_the_old_order_did(name, bees):
    """Encoding before the first delete reorders the charges and nothing
    else: same ledger, same profile, same heap bytes."""
    new, old = _indexed_db(bees), _indexed_db(bees)
    new.ledger.profiling = old.ledger.profiling = True
    qual = E.Between(E.Col("k"), 5, 40)

    def updater(values):
        values[1] = "ZZZZ"                               # a new tuple bee
        values[3] = (values[3] or 0) + 1
        return values

    assert new.update_where("t", qual, updater) == 36
    assert _update_in_the_old_order(old, qual, updater) == 36
    (tid,) = new.relation("t").indexes["t_k"].lookup((50,))
    row = [50, "BB", None, 2, 9.5, "p"]
    assert new.update_by_tid("t", tid, row) == (
        _update_by_tid_in_the_old_order(old, tid, row)
    )
    assert new.ledger.total == old.ledger.total
    assert new.ledger.by_function == old.ledger.by_function
    assert list(new.relation("t").heap.scan()) == (
        list(old.relation("t").heap.scan())
    )
    new.close()
    old.close()


@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_null_in_a_not_null_column_is_rejected_on_write(name, bees):
    """INSERT, COPY, SQL UPDATE and ``update_by_tid`` all encode through
    ``RowWriter``: a NULL for a NOT NULL attribute is refused before
    anything is modified.  (It used to be stored, and the tiers then
    disagreed on the read: stock handed back ``None``, the vector tier
    the chunk's fill.)"""
    db = _indexed_db(bees)
    db.sql("SELECT count(*) FROM t WHERE qty > 3")      # warm the chunk cache
    before = _state(db)
    chunk_misses = db.chunk_cache.statistics()["misses"]
    tuple_bees = db.bee_module.statistics()["tuple_bees"]
    (tid,) = db.relation("t").indexes["t_k"].lookup((7,))
    writes = (
        lambda: db.sql("INSERT INTO t VALUES (NULL, 'AAAA', 'x', 1, 1.0, 'p')"),
        lambda: db.copy_from("t", [[99, "AAAA", "x", 1, None, "p"]]),
        # qty is NULL at k = 7: the third matched row is the bad one.
        lambda: db.sql("UPDATE t SET price = qty WHERE k >= 5 AND k < 9"),
        lambda: db.sql("UPDATE t SET tag = NULL WHERE k = 3"),   # annotated
        lambda: db.update_by_tid("t", tid, [7, "AAAA", "ok", 1, None, "p"]),
    )
    for write in writes:
        with pytest.raises(ValueError, match="NOT NULL"):
            write()
    assert _state(db) == before
    assert db.bee_module.statistics()["tuple_bees"] == tuple_bees
    db.sql("SELECT count(*) FROM t WHERE qty > 3")
    assert db.chunk_cache.statistics()["misses"] == chunk_misses
    assert db.sql("UPDATE t SET qty = NULL WHERE k = 3").status == "UPDATE 1"
    db.close()


@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_annotated_attribute_refuses_what_its_type_cannot_hold(name, bees):
    """Annotated values live in the data section and never meet the
    encoder's ``struct.pack``: a float or an out-of-range int for an
    annotated INT used to be *stored* under every bee-enabled point
    (stock raised), and ``vectorized()`` then read the 7.5 back as 7."""
    db = Database(bees)
    db.sql(
        "CREATE TABLE t (k INT NOT NULL, b INT NOT NULL, c CHAR(3) NOT NULL, "
        "d FLOAT, ANNOTATE (b, c))"
    )
    db.copy_from("t", [[k, k % 3, "xyz"[k % 3], k + 0.5] for k in range(60)])
    db.create_index("t", "t_k", ["k"])
    db.sql("SELECT count(*) FROM t WHERE d > 3")        # warm the chunk cache
    before = _state(db)
    chunk_misses = db.chunk_cache.statistics()["misses"]
    tuple_bees = db.bee_module.statistics()["tuple_bees"]
    charged = db.ledger.total
    (tid,) = db.relation("t").indexes["t_k"].lookup((7,))
    writes = (
        lambda: db.sql("INSERT INTO t VALUES (200, 2147483648, 'y', 2.0)"),
        lambda: db.sql("INSERT INTO t VALUES (201, 1.0, 'y', 2.0)"),
        lambda: db.sql(
            "INSERT INTO t VALUES (200, 5, 'q', 2.0), (201, 7.5, 'y', 2.0)"
        ),
        lambda: db.copy_from("t", [[202, 2 ** 31, "y", 1.0]]),
        lambda: db.sql("UPDATE t SET b = 7.5 WHERE k = 1"),
        lambda: db.update_by_tid("t", tid, [7, 7.5, "y", 1.0]),
    )
    for write in writes:
        with pytest.raises(struct.error):
            write()
        assert _state(db) == before
        assert db.bee_module.statistics()["tuple_bees"] == tuple_bees
    # b is k % 3: the second matched row (k = 2) overflows int32, after
    # the first resolved its (new) tuple bee — and before the first delete.
    with pytest.raises(struct.error):
        db.sql("UPDATE t SET b = b * 1073741824 WHERE k >= 1 AND k < 4")
    assert _state(db) == before
    db.sql("SELECT count(*) FROM t WHERE d > 3")
    assert db.chunk_cache.statistics()["misses"] == chunk_misses
    assert db.sql("UPDATE t SET b = 7 WHERE k = 1").status == "UPDATE 1"
    assert db.sql("SELECT b FROM t WHERE k = 1").rows == [(7,)]
    assert charged < db.ledger.total
    db.close()


#: A good first row (a *new* tuple-bee value), then one the schema
#: rejects: short, NULL into NOT NULL, CHAR overflow, an int out of range.
REJECTED_INSERTS = {
    "arity": "(200, 'QQQQ', 'a', 1, 1.0, 'p'), (201)",
    "not-null": "(200, 'QQQQ', 'a', 1, 1.0, 'p'), (201, 'AAAA', 'b', 2, NULL, 'p')",
    "char-width": "(200, 'QQQQ', 'a', 1, 1.0, 'p'), (201, 'AAAA', 'wider than six', 2, 2.0, 'p')",
    "int-range": "(200, 'QQQQ', 'a', 1, 1.0, 'p'), (201, 'AAAA', 'b', 99999999999, 2.0, 'p')",
    "third-row": "(200, 'QQQQ', 'a', 1, 1.0, 'p'), (201, 'RRRR', 'b', 2, 2.0, 'p'), (202)",
}


@pytest.mark.parametrize("reject", list(REJECTED_INSERTS))
@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_rejected_multi_row_insert_inserts_none(name, bees, reject):
    """A multi-row INSERT is all-or-nothing, like UPDATE: every row is
    encoded before the first is stored.  (It used to insert the rows
    before the rejected one.)"""
    db = _indexed_db(bees)
    db.sql("SELECT count(*) FROM t WHERE qty > 3")      # warm the chunk cache
    before = _state(db)
    chunk_misses = db.chunk_cache.statistics()["misses"]
    tuple_bees = db.bee_module.statistics()["tuple_bees"]
    charged = db.ledger.total
    statement = f"INSERT INTO t VALUES {REJECTED_INSERTS[reject]}"
    for _ in range(2):                   # as a miss, then (if cached) again
        with pytest.raises((ValueError, struct.error)):
            db.sql(statement)
    assert _state(db) == before
    assert db.bee_module.statistics()["tuple_bees"] == tuple_bees
    assert db.ledger.total == charged    # a rejected statement charges nothing
    db.sql("SELECT count(*) FROM t WHERE qty > 3")
    assert db.chunk_cache.statistics()["misses"] == chunk_misses
    db.close()


@pytest.mark.parametrize("name,bees", POINTS, ids=IDS)
def test_multi_row_insert_charges_what_row_by_row_inserts_did(name, bees):
    rows = [
        [200, "QQQQ", "a", 1, 1.0, "p"], [201, "AAAA", None, None, 2.0, "p"],
        [202, "QQQQ", "c", 3, 3.0, "p"], [203, "RRRR", "d", 4, 4.0, "p"],
    ]
    one, many = _indexed_db(bees), _indexed_db(bees)
    for db in (one, many):
        db.ledger.reset()
    for row in rows:
        one.insert("t", row)
    values = ", ".join(
        "(" + ", ".join("NULL" if v is None else repr(v) for v in row) + ")"
        for row in rows
    )
    assert many.sql(f"INSERT INTO t VALUES {values}").status == "INSERT 4"
    assert many.ledger.total == one.ledger.total
    assert _state(many) == _state(one)
    assert (
        many.bee_module.statistics()["tuple_bees"]
        == one.bee_module.statistics()["tuple_bees"]
    )
    one.close()
    many.close()
