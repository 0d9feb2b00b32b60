"""Proto-bee code cache: one compiled code object per query-bee shape,
instantiated per plan.  A statement whose shape has a query bee reuses
that bee's plan and routines (tests/test_proto_statement.py), so the
statements here are each given a shape of their own (:func:`fresh`):
every one plans, and instantiates its routines from the code cache.

Sharing (same shape, different literals -> one ``__code__``, stock
results), hit rate and bounds, soundness across layout changes, fault
attribution when code objects are shared, the EVP/AGG nullability
variants, and the observability counters.  The routines a statement
instantiated are read off :func:`repro.verify.corpus.harvest`, which
records what the bee maker makes.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.bees.module import CODE_CACHE_CAP
from repro.bees.routines.base import BEE_DUMP_ENV, CodeCache
from repro.bees.settings import BeeSettings
from repro.db import Database
from repro.engine import expr as E
from repro.engine.aggregates import AggSpec
from repro.resilience.chaos import ChaosInjector
from repro.resilience.guard import evp_key
from repro.resilience.registry import CONSECUTIVE_FAILURES
from repro.verify.corpus import harvest

SETTINGS = {
    "routine": BeeSettings.all_bees,
    "pipeline": BeeSettings.pipelined,
    "vector": BeeSettings.vectorized,
}


def make_db(tier: str, **enabled) -> Database:
    settings = SETTINGS[tier]()
    if enabled:
        settings = settings.enabling(**enabled)
    db = Database(settings)
    db.sql(
        "CREATE TABLE t (id int NOT NULL, grp int NOT NULL, "
        "price float NOT NULL, note varchar(12))"
    )
    db.copy_from(
        "t",
        [
            [i, i % 5, i * 1.5, None if i % 7 == 0 else f"n{i % 3}"]
            for i in range(60)
        ],
    )
    db.sql("CREATE TABLE u (id int NOT NULL, tag char(3) NOT NULL)")
    db.copy_from("u", [[i, f"t{i % 4}"] for i in range(12)])
    return db


_FRESH = itertools.count()


def fresh(sql: str) -> str:
    """*sql* as a statement shape no earlier statement had (a comment is
    shape text): a query-bee miss, whose plan gets its own routines."""
    return f"{sql} -- {next(_FRESH)}"


def both_ways(db: Database, sql: str) -> list[tuple]:
    """Rows under the database's bees (a fresh shape each call), checked
    against stock."""
    rows = sorted(db.sql(fresh(sql)).rows, key=repr)
    assert rows == sorted(db.sql(sql, bees=False).rows, key=repr), sql
    return rows


def routines_of(made: list, tier: str) -> list:
    """The routines in the harvest *made* that do *tier*'s work: the
    fused drivers', or on the routine tier the Filters' EVP."""
    kind = "evp" if tier == "routine" else tier
    return [entry.routine for entry in made if entry.kind == kind]


# -- one code object per shape -------------------------------------------------

SHAPES = {
    "lookup": "SELECT id, price FROM t WHERE id = {}",
    "filter": "SELECT id FROM t WHERE price > {}.5 AND grp < 4",
    "groupby": "SELECT grp, COUNT(*), SUM(price) FROM t WHERE id < {} GROUP BY grp",
}


@pytest.mark.parametrize("tier", list(SETTINGS))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_same_shape_shares_one_code_object(tier, shape):
    with make_db(tier) as db, harvest(db) as made:
        template = SHAPES[shape]
        first = both_ways(db, template.format(7))
        second = both_ways(db, template.format(31))
        assert first != second
        # The routine that does the shape's work: the fused driver's, or
        # on the routine tier the Filter's EVP.
        routines = routines_of(made, tier)
        codes = {routine.fn.__code__ for routine in routines}
        assert len(routines) >= 2
        assert len(codes) < len(routines), "no code object was shared"
        names = {routine.name for routine in routines}
        assert len(names) == len(routines), "routine names stay per instance"
        for routine in routines:
            assert routine.namespace["_NAME"] == routine.name
            assert routine.name not in routine.source
        stats = db.bee_module.statistics()
        assert stats["code_cache_hits"] >= 1
        assert stats["code_cache_entries"] == stats["compiles"]


def test_literal_type_does_not_change_the_proto():
    # 7 and 7.5 are one shape: the hole carries the value, the source no
    # repr of it.
    with make_db("routine") as db, harvest(db) as made:
        both_ways(db, "SELECT id FROM t WHERE price > 7")
        both_ways(db, "SELECT id FROM t WHERE price > 7.5")
        one, two = routines_of(made, "routine")
        assert one.fn.__code__ is two.fn.__code__
        assert (one.namespace["_K0"], two.namespace["_K0"]) == (7, 7.5)


def test_charges_stay_attributed_per_routine():
    with make_db("vector") as db, harvest(db) as made:
        db.ledger.profiling = True
        both_ways(db, SHAPES["filter"].format(3))
        both_ways(db, SHAPES["filter"].format(40))
        first, second = routines_of(made, "vector")
        assert first.fn.__code__ is second.fn.__code__
        profile = db.ledger.by_function
        assert profile[first.name] > 0 and profile[second.name] > 0


# -- hit rate and bounds -------------------------------------------------------

TEMPLATES = (
    "SELECT id, price FROM t WHERE id = {}",
    "SELECT id FROM t WHERE price > {}.25",
    "SELECT grp, COUNT(*) FROM t WHERE id < {} GROUP BY grp",
    "SELECT t.id, u.tag FROM t JOIN u ON t.grp = u.id WHERE t.id < {}",
    "SELECT id FROM t WHERE note = 'n1' AND id > {}",
    "UPDATE t SET price = price + 1 WHERE id = {}",
)


def test_templated_stream_hits_the_cache():
    rng = random.Random(20120401)
    with make_db("vector") as db:
        for _ in range(300):
            db.sql(fresh(rng.choice(TEMPLATES).format(rng.randint(0, 59))))
        stats = db.bee_module.statistics()
        hits, compiles = stats["code_cache_hits"], stats["compiles"]
        assert hits / (hits + compiles) >= 0.95, stats
        assert stats["code_cache_entries"] <= len(TEMPLATES) * len(SETTINGS)


def test_code_cache_respects_its_bound():
    cache = CodeCache(4)
    for i in range(10):
        source = f"def f():\n    return {i}\n"
        assert cache.get(source) is None
        cache.put(source, compile(source, "<test>", "exec"))
    assert len(cache) == 4
    assert cache.get("def f():\n    return 0\n") is None   # oldest: evicted
    assert cache.get("def f():\n    return 9\n") is not None
    assert (cache.compiles, cache.hits) == (10, 1)


def test_database_cache_is_bounded_and_eviction_is_harmless():
    with make_db("vector") as db:
        cache = db.bee_module.code_cache
        assert cache.cap == CODE_CACHE_CAP
        cache.cap = 2
        for _ in range(2):
            for template in TEMPLATES[:5]:
                both_ways(db, template.format(11))
                assert len(cache) <= 2
        assert cache.compiles > 5, "evicted shapes recompile"


def test_fresh_database_starts_cold():
    with make_db("vector") as db:
        both_ways(db, SHAPES["lookup"].format(1))
        assert db.bee_module.statistics()["compiles"] >= 1
    with make_db("vector") as db:
        assert db.bee_module.statistics()["code_cache_entries"] == 0
        assert db.bee_module.statistics()["code_cache_hits"] == 0


# -- a changed layout never meets old code -------------------------------------


@pytest.mark.parametrize("tier", list(SETTINGS))
def test_drop_and_recreate_with_another_layout(tier):
    with Database(SETTINGS[tier]()) as db:
        db.sql("CREATE TABLE items (a int NOT NULL, b float NOT NULL)")
        db.copy_from("items", [[i, i + 0.5] for i in range(20)])
        assert len(both_ways(db, "SELECT a, b FROM items WHERE a < 10")) == 10
        db.sql("DROP TABLE items")
        # Same name, same widths, same statement text: only the struct
        # formats differ, and those live in the rebuilt data section.
        db.sql("CREATE TABLE items (a float NOT NULL, b int NOT NULL)")
        db.copy_from("items", [[i + 0.25, i] for i in range(20)])
        rows = both_ways(db, "SELECT a, b FROM items WHERE a < 10")
        assert rows[0] == (0.25, 0) and len(rows) == 10
        db.sql("DROP TABLE items")
        db.sql(
            "CREATE TABLE items (pad varchar(8), a int NOT NULL, "
            "b float NOT NULL)"
        )
        db.copy_from("items", [["x" * (i % 5), i, i + 0.5] for i in range(20)])
        assert len(both_ways(db, "SELECT a, b FROM items WHERE a < 10")) == 10


@pytest.mark.parametrize("tier", list(SETTINGS))
def test_alter_and_reannotate_rebuild_from_the_current_layout(tier):
    with Database(SETTINGS[tier]()) as db:
        db.sql(
            "CREATE TABLE items (id int NOT NULL, kind char(3) NOT NULL, "
            "price float NOT NULL, ANNOTATE (kind))"
        )
        db.copy_from(
            "items", [[i, ["aaa", "bbb"][i % 2], float(i)] for i in range(30)]
        )
        sql = "SELECT id, kind FROM items WHERE price > 12.0"
        before = both_ways(db, sql)
        epoch = db.bee_module.query_epoch
        db.reannotate("items", [])      # tuple-bee slots leave the layout
        assert db.bee_module.query_epoch > epoch
        assert both_ways(db, sql) == before
        db.reannotate("items", ["kind"])
        assert both_ways(db, sql) == before
        db.catalog.alter_relation(db.relation("items").schema)
        with harvest(db) as made:
            assert both_ways(db, sql) == before
        # Every routine handed out since is stamped with the live epoch.
        assert routines_of(made, tier)
        for routine in routines_of(made, tier):
            assert routine.epoch == db.bee_module.query_epoch


def test_verify_on_generate_runs_on_every_instantiation(monkeypatch):
    import repro.beecheck as beecheck

    verified = []
    real = beecheck.verify_vector
    monkeypatch.setattr(
        beecheck, "verify_vector",
        lambda routine, spec: (verified.append(routine.name), real(routine, spec)),
    )
    with make_db("vector", verify_on_generate=True) as db:
        both_ways(db, SHAPES["lookup"].format(3))
        both_ways(db, SHAPES["lookup"].format(4))
        assert db.bee_module.statistics()["code_cache_hits"] >= 1
    assert len(verified) == len(set(verified)) >= 2


# -- faults in shared code land on the right routine ---------------------------

FAULTY = "SELECT id FROM t WHERE 100 / (id - {}) > 1 AND id > 50"


def test_shared_evp_code_fault_is_attributed_per_instantiation():
    # id - 70 never reaches zero over ids 0..59: healthy.  id - 55 does:
    # the same code object, another data section, a ZeroDivisionError.
    with make_db("routine") as db, harvest(db) as made:
        both_ways(db, FAULTY.format(70))
        for _ in range(CONSECUTIVE_FAILURES):
            with pytest.raises(ZeroDivisionError):
                db.sql(FAULTY.format(55))
        healthy, *faulty = (
            (entry.args[0], entry.routine)
            for entry in made if entry.kind == "evp"
        )
        assert {r.fn.__code__ for _e, r in faulty} == {healthy[1].fn.__code__}
        assert healthy[1].fn.__code__.co_filename == "<bee:EVP>"
        faulty_key = evp_key(faulty[0][0])
        assert faulty_key != evp_key(healthy[0])
        # The generic retry raises too (as stock does), under the key
        # of faults no bee frame explains.
        assert set(db.resilience.quarantined()) == {
            faulty_key, "STMT:unattributed",
        }
        bees = db.resilience.report()["bees"]
        assert bees[faulty_key]["failures"] == CONSECUTIVE_FAILURES
        assert evp_key(healthy[0]) not in bees or not bees[
            evp_key(healthy[0])
        ]["failures"]
        # The sibling keeps running specialized; the quarantined shape
        # goes generic (and still raises what stock raises).
        both_ways(db, FAULTY.format(70))
        with pytest.raises(ZeroDivisionError):
            db.sql(FAULTY.format(55))


@pytest.mark.parametrize("tier,key", [
    ("pipeline", "PIPE:t:rows"), ("vector", "VEC:t:rows"),
])
def test_shared_fused_code_fault_quarantines_its_key(tier, key):
    with make_db(tier) as db:
        both_ways(db, FAULTY.format(70))
        for _ in range(CONSECUTIVE_FAILURES):
            with pytest.raises(ZeroDivisionError):
                db.sql(FAULTY.format(55))
        assert key in db.resilience.quarantined()
        assert db.resilience.report()["bees"][key]["failures"] >= (
            CONSECUTIVE_FAILURES
        )
        both_ways(db, SHAPES["groupby"].format(20))   # another sink: healthy


CHAOS = {
    "evp-raise": ("routine", {}, "EVP:"),
    "agg-raise": ("routine", {"agg": True}, "AGG:"),
    "pipeline-raise": ("pipeline", {}, "PIPE:t:agg"),
}


@pytest.mark.parametrize("site", list(CHAOS))
def test_chaos_sites_still_reach_the_stable_health_key(site):
    tier, enabled, prefix = CHAOS[site]
    sql = "SELECT grp, SUM(price) FROM t WHERE id > 3 GROUP BY grp"
    chaos = ChaosInjector(seed=0)
    with chaos.armed(site):
        with make_db(tier, **enabled) as db:
            expected = sorted(db.sql(sql, bees=False).rows)
            for _ in range(CONSECUTIVE_FAILURES):
                assert sorted(db.sql(sql).rows) == expected
            assert chaos.fired[site] >= CONSECUTIVE_FAILURES
            quarantined = db.resilience.quarantined()
            assert len(quarantined) == 1 and quarantined[0].startswith(prefix)
            report = db.resilience.report()
            assert report["bees"][quarantined[0]]["failures"] == (
                CONSECUTIVE_FAILURES
            )
            # Nothing was booked under a per-instantiation name.
            assert not [k for k in report["bees"] if k[:4] in ("EVP_", "AGG_")]
            assert not [k for k in report["bees"] if k.startswith("PIPE_")]


# -- the EVP / AGG nullability variants -----------------------------------------


def _nullable_predicate() -> E.Expr:
    return E.bind(E.Cmp(">", E.Col("x"), E.Const(5)), ["x"])


def test_evp_memo_keys_on_the_nullability_variant():
    # Each nullability variant is a routine of its own.
    with make_db("routine") as db:
        expr = _nullable_predicate()
        maker = db.bee_module.maker
        direct = maker.make_evp(expr, True)
        guarded = maker.make_evp(expr, False)
        # Over a NULL input only the three-valued variant is defined.
        assert guarded.fn([None]) is None
        assert guarded.fn([9]) is True and direct.fn([9]) is True
        with pytest.raises(TypeError):
            direct.fn([None])


def test_agg_memo_keys_on_the_nullability_variant():
    # Each nullability variant is a routine of its own.
    with make_db("routine") as db:
        specs = (
            AggSpec("count", E.bind(E.Col("x"), ["x"]), name="n"),
            AggSpec("sum", E.bind(E.Col("x"), ["x"]), name="s"),
        )
        maker = db.bee_module.maker
        direct = maker.make_agg(specs, True)
        guarded = maker.make_agg(specs, False)
        assert direct.fn.__code__ is not guarded.fn.__code__
        states = [spec.make_state() for spec in specs]
        guarded.fn([None], states)
        guarded.fn([4], states)
        assert [state.result() for state in states] == [1, 4]


# -- observability -------------------------------------------------------------


def test_stats_expose_the_cache_counters_and_are_deep_copied():
    with make_db("vector") as db:
        both_ways(db, SHAPES["lookup"].format(1))
        both_ways(db, SHAPES["lookup"].format(2))
        bees = db.stats()["bees"]
        for key in (
            "compiles", "code_cache_hits", "code_cache_entries",
            "evp_routines", "pipeline_routines", "vector_routines",
            "tuple_bees",
        ):
            assert key in bees
        assert bees["compiles"] == bees["code_cache_entries"] >= 1
        assert bees["code_cache_hits"] >= 1
        bees["compiles"] = -1
        assert db.stats()["bees"]["compiles"] >= 1
        assert db.bee_module.statistics() == db.stats()["bees"]


def test_bee_dump_writes_once_per_distinct_source(tmp_path, monkeypatch):
    monkeypatch.setenv(BEE_DUMP_ENV, str(tmp_path))
    with make_db("vector") as db:
        for key in (1, 2, 3, 4):
            both_ways(db, SHAPES["lookup"].format(key))
        generated = db.bee_module.maker.made["VEC"]
        assert generated >= 4
        dumped = sorted(p.name for p in tmp_path.glob("VEC_*.py"))
        assert len(dumped) == 1, dumped
        assert "def VEC(" in (tmp_path / dumped[0]).read_text()


# -- the modeled clock does not move -------------------------------------------

#: 50 statements, run in order on a fresh ``make_db(tier)``.
PINNED_STATEMENTS = tuple(
    template.format(key)
    for key in (3, 17, 29, 41, 58, 8, 22, 36, 44, 51)
    for template in TEMPLATES[:5]
)

#: ``db.ledger.total`` after the list, measured at the parent commit
#: (ee12de7): no charge site may change, whatever is cached.
PINNED_TOTALS = {"routine": 5036878, "pipeline": 2311713, "vector": 1479126}


@pytest.mark.parametrize("tier", list(SETTINGS))
def test_ledger_totals_equal_the_parent_commit(tier):
    assert len(PINNED_STATEMENTS) == 50
    with make_db(tier) as db:
        for sql in PINNED_STATEMENTS:
            db.sql(sql)
        assert db.ledger.total == PINNED_TOTALS[tier]
