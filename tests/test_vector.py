"""Vector bees: fusion promotion, execution equality, cache lifecycle.

The vector fuser must promote exactly the drivers the pipeline fuser
produces (keeping each pipeline driver as its fallback anchor), the
columnar kernels must return byte-identical results to the interpreter,
the chunk cache must serve warm and die on DML/DDL, and the memoized
kernels must be evicted with their anchors on schema change.
"""

from __future__ import annotations

import pytest

from repro.bees.settings import BeeSettings
from repro.bees.vector import fuse_vector_plan
from repro.db import Database
from repro.engine.nodes import Limit, Sort
from repro.sql.parser import parse
from repro.sql.planner import plan_select


def _plan(db, sql: str):
    return plan_select(db, parse(sql))


def _fused(db, sql: str):
    return fuse_vector_plan(_plan(db, sql), db)


def _is(node, tier: str, sink: str) -> bool:
    """Is *node* the *tier* fused driver for *sink*?"""
    return getattr(node, "identity", None) == (tier, sink)


@pytest.fixture
def db():
    db = Database(BeeSettings.vectorized())
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


def _walk(node):
    out = [node]
    for child in getattr(node, "children", lambda: ())():
        out.extend(_walk(child))
    for attr in ("child", "probe", "build", "anchor"):
        sub = getattr(node, attr, None)
        if sub is not None and sub not in out:
            out.extend(_walk(sub))
    return out


class TestVectorPromotion:
    def test_filtered_projection_promotes_to_vector_scan(self, db):
        fused = _fused(
            db, "SELECT id, price FROM items WHERE price > 15.0"
        )
        assert _is(fused, "vector", "rows")
        assert fused.node_label().startswith("VectorScan[")
        # The pipeline driver rides along as the degradation anchor,
        # sharing the very same spec the kernel was compiled from.
        assert _is(fused.anchor, "pipeline", "rows")
        assert fused.spec is fused.anchor.spec

    def test_aggregate_promotes_to_vector_agg(self, db):
        fused = _fused(
            db,
            "SELECT kind, SUM(price), COUNT(*) FROM items "
            "WHERE id < 5 GROUP BY kind",
        )
        aggs = [n for n in _walk(fused) if _is(n, "vector", "agg")]
        assert aggs, f"no VectorAgg in {fused.explain()}"
        assert aggs[0].spec.sink == "agg"

    def test_join_probe_promotes_to_vector_join(self, db):
        fused = _fused(
            db,
            "SELECT items.id, kinds.label FROM items "
            "JOIN kinds ON items.kind = kinds.kind",
        )
        joins = [n for n in _walk(fused) if _is(n, "vector", "probe")]
        assert joins, f"no VectorJoin in {fused.explain()}"
        assert joins[0].spec.sink == "probe"

    def test_sort_stays_generic_above_vector_scan(self, db):
        fused = _fused(
            db, "SELECT id FROM items WHERE price > 15.0 ORDER BY id"
        )
        assert isinstance(fused, Sort)
        assert _is(fused.child, "vector", "rows")

    def test_limit_stays_generic_above_vector_scan(self, db):
        fused = _fused(db, "SELECT id FROM items LIMIT 2")
        assert isinstance(fused, Limit)
        assert _is(fused.child, "vector", "rows")

    def test_vector_language_equals_pipeline_language(self, db):
        """Anything the pipeline fuser declines, the vector fuser must
        decline too — the tier compiles the same specs, never more."""
        from repro.bees.pipeline.fusion import fuse_plan

        sql = "SELECT id FROM items WHERE price > 15.0 ORDER BY id DESC"
        pipe = fuse_plan(_plan(db, sql), db)
        vec = _fused(db, sql)
        pipe_kinds = [n.identity[1] for n in _walk(pipe)
                      if getattr(n, "identity", ("",))[0] == "pipeline"]
        vec_kinds = [n.identity[1] for n in _walk(vec)
                     if getattr(n, "identity", ("",))[0] == "vector"]
        assert pipe_kinds and pipe_kinds == vec_kinds

    def test_fusion_does_not_mutate_the_input_plan(self, db):
        plan = _plan(db, "SELECT id FROM items WHERE price > 15.0")
        before = plan.explain()
        fuse_vector_plan(plan, db)
        assert plan.explain() == before


QUERIES = [
    "SELECT id, price FROM items WHERE price > 15.0",
    "SELECT id FROM items WHERE qty > 4",  # NULL qty rows must drop
    "SELECT id, note FROM items",
    "SELECT id, price * 2 FROM items WHERE qty IS NOT NULL",
    "SELECT kind, SUM(price), COUNT(*) FROM items GROUP BY kind",
    "SELECT COUNT(qty), COUNT(*) FROM items",
    "SELECT SUM(price * 2), MIN(id) FROM items",
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
    def test_vectors_match_interpreter(self, db, query):
        ordered = "ORDER BY" in query
        vectored = db.sql(query, vectors=True).rows
        plain = db.sql(query, vectors=False, pipelines=False).rows
        if not ordered:
            vectored = sorted(map(repr, vectored))
            plain = sorted(map(repr, plain))
        assert vectored == plain, f"vector divergence on {query!r}"

    def test_dml_between_vectorized_queries(self, db):
        query = "SELECT id FROM items WHERE price > 15.0"
        assert db.sql(query, vectors=True).rows == [(2,), (3,), (4,), (5,)]
        db.sql("DELETE FROM items WHERE id = 3")
        db.sql("INSERT INTO items VALUES (9, 'zzz', 1, 90.0, 'ninth')")
        db.sql("UPDATE items SET price = 5.0 WHERE id = 4")
        vectored = db.sql(query, vectors=True).rows
        plain = db.sql(query, vectors=False, pipelines=False).rows
        assert sorted(vectored) == sorted(plain) == [(2,), (5,), (9,)]


class TestChunkCache:
    def test_repeat_query_hits_chunk_cache(self, db):
        query = "SELECT id, price FROM items WHERE price > 15.0"
        db.sql(query, vectors=True)
        misses = db.chunk_cache.misses
        db.sql(query, vectors=True)
        assert db.chunk_cache.hits >= 1
        assert db.chunk_cache.misses == misses

    def test_dml_invalidates_cached_chunk(self, db):
        query = "SELECT id FROM items WHERE price > 15.0"
        db.sql(query, vectors=True)
        misses = db.chunk_cache.misses
        db.sql("INSERT INTO items VALUES (7, 'ddd', 3, 70.0, NULL)")
        rows = db.sql(query, vectors=True).rows
        assert db.chunk_cache.misses > misses  # version bump re-decodes
        assert sorted(rows) == [(2,), (3,), (4,), (5,), (7,)]


class TestMemoAndInvalidation:
    def test_kernels_are_memoized_and_counted(self, db):
        db.sql("SELECT id FROM items WHERE price > 15.0", vectors=True)
        stats = db.bee_module.statistics()
        assert stats["vector_routines"] >= 1

    def test_alter_evicts_vector_memo(self, db):
        db.sql("SELECT id FROM items WHERE price > 15.0", vectors=True)
        assert db.bee_module.fused_entries("vector")
        db.catalog.alter_relation(db.relation("items").schema)
        assert not db.bee_module.fused_entries("vector")
        rows = db.sql(
            "SELECT id FROM items WHERE price > 15.0", vectors=True
        ).rows
        assert rows == [(2,), (3,), (4,), (5,)]

    def test_drop_evicts_only_that_relations_kernels(self, db):
        db.sql("SELECT id FROM items", vectors=True)
        db.sql("SELECT kind FROM kinds", vectors=True)
        def relations():
            return {
                spec.relation for _k, _a, spec, _r
                in db.bee_module.fused_entries("vector")
            }

        assert relations() == {"items", "kinds"}
        db.sql("DROP TABLE kinds")
        assert relations() == {"items"}

    def test_reannotate_then_vectorized_query(self, db):
        query = "SELECT id, kind FROM items WHERE kind = 'aaa'"
        before = db.sql(query, vectors=True).rows
        db.reannotate("items", [])
        after = db.sql(query, vectors=True).rows
        assert sorted(before) == sorted(after) == [(1, "aaa"), (3, "aaa")]


class TestCostModel:
    def test_vector_charges_less_than_pipelines_at_scale(self, db):
        # Per-chunk kernel dispatch amortizes; at a few hundred rows the
        # columnar path must already price below the per-row pipeline.
        for i in range(10, 310):
            db.sql(
                f"INSERT INTO items VALUES ({i}, 'mmm', {i % 11}, "
                f"{float(i)}, NULL)"
            )
        query = "SELECT id, price FROM items WHERE price > 15.0"
        db.sql(query, vectors=True)  # warm chunk + kernel memo
        db.sql(query, pipelines=True, vectors=False)
        vectored = db.measure(lambda: db.sql(query, vectors=True))
        piped = db.measure(
            lambda: db.sql(query, pipelines=True, vectors=False)
        )
        assert vectored.result.rows == piped.result.rows
        assert vectored.instructions < piped.instructions


# -- the probe sink: key lanes first, survivors materialised ---------------


@pytest.fixture
def joins():
    """A probe side with repeated and NULL keys and a build side whose
    keys have zero to three candidates (and NULLs of its own)."""
    db = Database(BeeSettings.vectorized())
    db.sql(
        "CREATE TABLE p (id int NOT NULL, k int, g int NOT NULL, "
        "note varchar(8))"
    )
    db.sql(
        "CREATE TABLE b (k int, g int NOT NULL, tag varchar(8) NOT NULL)"
    )
    probe = [
        (i, None if i % 7 == 3 else i % 6, i % 2, f"n{i}" if i % 4 else None)
        for i in range(40)
    ]
    build = [
        (k, k % 2 if c != 1 else 1 - k % 2, f"t{k}.{c}")
        for k in range(1, 9) for c in range(k % 4)
    ] + [(None, 0, "nk0"), (None, 1, "nk1")]
    for rows, table in ((probe, "p"), (build, "b")):
        db.sql(
            f"INSERT INTO {table} VALUES "
            + ", ".join(
                "(" + ", ".join("NULL" if v is None else repr(v) for v in row)
                + ")"
                for row in rows
            )
        )
    return db


def _join_plan(db, join_type: str, keys: tuple, qual):
    from repro.engine.joins import HashJoin
    from repro.engine.nodes import Filter
    from repro.workloads.tpch.queries import scan

    probe = scan(db, "p")
    if qual is not None:
        probe = Filter(probe, qual)
    return HashJoin(
        probe, scan(db, "b"), list(keys), list(keys), join_type=join_type
    )


class TestProbeSink:
    @pytest.mark.parametrize("join_type", ["inner", "left", "semi", "anti"])
    @pytest.mark.parametrize("keys", [("k",), ("k", "g")], ids=["1key", "2key"])
    @pytest.mark.parametrize(
        "qual", ["filtered", "none", "nothing"],
    )
    def test_equals_hash_join_row_for_row(
        self, joins, join_type, keys, qual, monkeypatch
    ):
        """Output order is probe order, then build order — exactly what
        the generic ``HashJoin`` emits — over NULL keys, a selection, no
        qualification and an empty selection alike."""
        from repro.bees.vector import codegen
        from repro.engine import expr as E

        predicate = {
            "filtered": E.Cmp(">", E.Col("id"), E.Const(9)),
            "none": None,
            "nothing": E.Cmp("=", E.Col("id"), E.Const(None)),
        }[qual]
        probes: list = []
        probe = codegen._probe

        def counting(*args):
            probes.append(args[6])
            return probe(*args)

        monkeypatch.setattr(codegen, "_probe", counting)
        got = joins.execute(_join_plan(joins, join_type, keys, predicate))
        assert len(probes) == 1 and (probes[0] is None) == (qual == "none")
        expected = joins.execute(
            _join_plan(joins, join_type, keys, predicate),
            settings=BeeSettings.stock(),
        )
        assert got == expected
        if qual != "nothing" and join_type != "anti":
            assert got     # the fixture has matches on every other path

    def test_materialises_only_rows_that_match(self, monkeypatch):
        """The probe kernel builds a row only for a probe row that
        survives: TPC-H q3's lineitem probe materialises 146 rows (of
        15,252 selected) and q17's 45 (of 29,675)."""
        from repro.bees.vector import codegen
        from repro.workloads.tpch.loader import build_tpch_database
        from repro.workloads.tpch.queries import QUERIES

        built: list = []
        zip_rows = codegen._zip_rows

        def counting(columns):
            rows = zip_rows(columns)
            built.append((len(columns), len(rows)))
            return rows

        monkeypatch.setattr(codegen, "_zip_rows", counting)
        with build_tpch_database(
            BeeSettings.vectorized(), 0.005, parallel_workers=0
        ) as db:
            natts = db.relation("lineitem").schema.natts
            for number, survivors in ((3, 146), (17, 45)):
                built.clear()
                QUERIES[number](db)
                assert sum(
                    rows for width, rows in built if width == natts
                ) == survivors, number


# -- a qual split at its AND: object conjuncts over survivors --------------


_TIERS = {
    "stock": BeeSettings.stock(),
    "bees": BeeSettings.all_bees(),
    "pipelined": BeeSettings.pipelined(),
    "vectorized": BeeSettings.vectorized(),
    # Every bee gated on beecheck, as the oracle runs them: a routine
    # that raises on a row the interpreter never reaches with it is a
    # translation-validation finding for EVP, and out of contract for a
    # vector kernel (the shield degrades instead).
    "bees-verified": BeeSettings.all_bees().verified(),
    "vectorized-verified": BeeSettings.vectorized().verified(),
}


@pytest.fixture
def contract():
    """One database per tier over the same rows: a NULL divisor, a zero
    divisor on a row where ``x <= 5``, a zero float divisor on a row
    whose ``s`` no IN list below names."""
    dbs = {}
    for name, settings in _TIERS.items():
        db = Database(settings)
        db.sql(
            "CREATE TABLE t (a int NOT NULL, b int, x int NOT NULL, "
            "f float, g float, s varchar(8))"
        )
        db.sql(
            "INSERT INTO t VALUES (4, 2, 9, 1.0, 2.0, 'aa'), "
            "(3, 0, 1, 2.0, 0.0, 'bb'), (6, 3, 7, 4.0, 2.0, 'aa'), "
            "(5, NULL, 8, NULL, 1.0, NULL), (2, 2, 6, 3.0, 3.0, 'cc')"
        )
        dbs[name] = db
    return dbs


def _outcomes(dbs, sql: str) -> dict:
    out = {}
    for name, db in dbs.items():
        try:
            out[name] = sorted(db.sql(sql).rows)
        except Exception as exc:  # noqa: BLE001 — the error IS the outcome
            out[name] = type(exc).__name__
    return out


class TestSplitQual:
    def test_raising_conjunct_first_raises_on_every_tier(self, contract):
        """The interpreter divides on every row before it looks at
        ``x``, so the row with ``b = 0`` raises whatever ``x`` is."""
        out = _outcomes(contract, "SELECT a FROM t WHERE a / b = 2 AND x > 5")
        assert set(out.values()) == {"ZeroDivisionError"}, out

    def test_raising_conjunct_last_raises_on_the_rows_stock_does(
        self, contract
    ):
        """Behind ``x > 5`` the division never meets ``b = 0`` — until a
        row with ``b = 0`` passes it; then every tier raises."""
        sql = "SELECT a FROM t WHERE x > 5 AND a / b = 2"
        out = _outcomes(contract, sql)
        assert all(rows == [(4,), (6,)] for rows in out.values()), out
        for db in contract.values():
            db.sql("INSERT INTO t VALUES (7, 0, 8, 1.0, 1.0, 'dd')")
        out = _outcomes(contract, sql)
        assert set(out.values()) == {"ZeroDivisionError"}, out

    def test_vector_division_on_an_unreached_row_degrades(self, contract):
        """``f / g`` runs over the whole chunk and meets ``g = 0`` on a
        row the interpreter rejects at its IN list: the kernel raises,
        the shield degrades the statement, and the rows are stock's."""
        vec = contract["vectorized"]
        faults = vec.stats()["resilience"]["faults"]
        out = _outcomes(
            contract, "SELECT a FROM t WHERE s IN ('aa', 'cc') AND f / g > 0.4"
        )
        assert all(rows == [(2,), (4,), (6,)] for rows in out.values()), out
        assert vec.stats()["resilience"]["faults"] > faults

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t WHERE s LIKE 'a%' AND x > 5",
        "SELECT a FROM t WHERE NOT (s LIKE 'a%') AND x > 1 AND a * 2 > 3",
        "SELECT a, s FROM t WHERE s IN ('aa', 'bb') AND b IN (0, 2) "
        "AND x + 1 > 2",
        "SELECT a FROM t WHERE b IS NULL AND a - 1 > 0",
        "SELECT a FROM t WHERE s NOT LIKE '%a'",
        "SELECT count(*) FROM t WHERE x > 100 AND s IN ('aa')",
        "SELECT a FROM t WHERE 1 = 1 AND s LIKE 'a%'",
    ])
    def test_rows_equal_stock(self, contract, sql):
        """Mixed, all-object, lone, empty-survivor and constant quals,
        over a nullable string, a nullable int and a NULL divisor, all
        on the vector tier: no kernel raises."""
        vec = contract["vectorized"]
        executed = vec.stats()["bees"].get("vector_executed", 0)
        faults = vec.stats()["resilience"]["faults"]
        out = _outcomes(contract, sql)
        assert len({repr(rows) for rows in out.values()}) == 1, out
        assert vec.stats()["bees"]["vector_executed"] > executed
        assert vec.stats()["resilience"]["faults"] == faults

    def test_a_literal_sibling_rebinds_the_object_conjunct(self, contract):
        """The object lane evaluates the plan's own conjunct: a cached
        shape re-bound to new literals evaluates the new ones."""
        for k in (2, 1, 3):
            sql = f"SELECT a FROM t WHERE x > 5 AND a / b = {k}"
            out = _outcomes(contract, sql)
            assert len({repr(rows) for rows in out.values()}) == 1, out

    def test_object_lane_sees_survivors_and_only_their_columns(
        self, monkeypatch
    ):
        """TPC-H q12's and q19's ``l_shipmode IN (…)`` is evaluated over
        the rows their vector conjuncts keep — 564 and 7,453 of 29,675
        lineitem rows — each carrying ``l_shipmode`` alone."""
        from repro.bees.vector import codegen
        from repro.workloads.tpch.loader import build_tpch_database
        from repro.workloads.tpch.queries import QUERIES

        lanes: list = []
        materialize = codegen._materialize

        def counting(cols, nulls, idx, used=None):
            rows = materialize(cols, nulls, idx, used)
            if used is not None:
                lanes.append((used, rows))
            return rows

        monkeypatch.setattr(codegen, "_materialize", counting)
        with build_tpch_database(
            BeeSettings.vectorized(), 0.005, parallel_workers=0
        ) as db:
            schema = db.relation("lineitem").schema
            shipmode = schema.attnum("l_shipmode")
            for number, survivors in ((12, 564), (19, 7453)):
                lanes.clear()
                QUERIES[number](db)
                assert [
                    (used, len(rows)) for used, rows in lanes
                ] == [((shipmode,), survivors)], number
                assert all(
                    len(row) == schema.natts
                    and all(v is None for i, v in enumerate(row)
                            if i != shipmode)
                    and row[shipmode] is not None
                    for _used, rows in lanes for row in rows
                )
