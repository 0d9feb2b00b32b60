"""The differential oracle: fixed-seed corpus, toggle seam, self-tests.

This is the tier-1 entry point for the oracle subsystem: a fixed seed
corpus must run divergence-free, the per-query ``bees=False`` toggle must
actually switch execution paths (proved via ledger attribution), and the
oracle must catch deliberately injected bee bugs — an oracle that cannot
fire is worthless.
"""

import pytest

from repro.bees.settings import BeeSettings
from repro.db import Database
from repro.oracle import (
    StatementGenerator,
    inject_bug,
    minimize_statements,
    outcomes_equal,
    run_campaign,
    run_statement,
)
from repro.oracle.generator import TLPCase
from repro.oracle.metamorphic import check_tlp, rewrite_statements, tlp_statements
from repro.sql import parse


class TestGenerator:
    def test_deterministic_stream(self):
        def stream(seed, n):
            gen = StatementGenerator(seed)
            stmts = gen.bootstrap()
            while len(stmts) < n:
                stmts.append(gen.next_statement())
            return [s.sql for s in stmts]

        assert stream(11, 60) == stream(11, 60)
        assert stream(11, 60) != stream(12, 60)

    def test_generated_sql_is_parseable(self):
        gen = StatementGenerator(42)
        stmts = gen.bootstrap()
        while len(stmts) < 150:
            stmts.append(gen.next_statement())
        for stmt in stmts:
            parse(stmt.sql)  # raises SQLSyntaxError on a grammar bug


class TestNormalize:
    def test_type_tagged_rows(self):
        # Python's True == 1 == 1.0 must not mask engine type divergences.
        assert not outcomes_equal(("rows", [(1,)]), ("rows", [(1.0,)]))
        assert not outcomes_equal(("rows", [(True,)]), ("rows", [(1,)]))
        assert outcomes_equal(("rows", [(1, "a")]), ("rows", [(1, "a")]))

    def test_multiset_vs_ordered(self):
        a = ("rows", [(1,), (2,)])
        b = ("rows", [(2,), (1,)])
        assert outcomes_equal(a, b, ordered=False)
        assert not outcomes_equal(a, b, ordered=True)

    def test_errors_compare_by_type(self):
        db = Database(BeeSettings.stock())
        outcome = run_statement(db, "SELECT * FROM no_such_table")
        assert outcome == ("error", "KeyError")


class TestBeeToggle:
    """Satellite: per-query bee disable without rebuilding the database."""

    @pytest.fixture()
    def db(self):
        db = Database(BeeSettings.all_bees())
        db.sql("CREATE TABLE toggled (id int NOT NULL, v numeric NOT NULL)")
        db.sql("INSERT INTO toggled VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
        return db

    def _functions_hit(self, db, **kwargs):
        db.ledger.profiling = True
        db.ledger.by_function.clear()
        rows = db.sql("SELECT v FROM toggled WHERE id >= 2", **kwargs).rows
        assert sorted(rows) == [(2.5,), (3.5,)]
        hits = dict(db.ledger.by_function)
        db.ledger.profiling = False
        return hits

    def test_bees_on_uses_specialized_paths(self, db):
        hits = self._functions_hit(db)
        assert any(name.startswith("GCL_toggled") for name in hits)
        assert "slot_deform_tuple" not in hits

    def test_bees_false_uses_generic_paths(self, db):
        hits = self._functions_hit(db, bees=False)
        assert "slot_deform_tuple" in hits
        assert not any(name.startswith("GCL_") for name in hits)
        assert not any(name.startswith("EVP_") for name in hits)

    def test_results_identical_either_way(self, db):
        on = db.sql("SELECT * FROM toggled WHERE v > 1.5").rows
        off = db.sql("SELECT * FROM toggled WHERE v > 1.5", bees=False).rows
        assert on == off

    def test_settings_restored_after_query(self, db):
        before = db.settings
        db.sql("SELECT * FROM toggled", bees=False)
        assert db.settings is before

    def test_settings_restored_on_error(self, db):
        before = db.settings
        with pytest.raises(Exception):
            db.sql("SELECT nope FROM toggled", bees=False)
        assert db.settings is before

    def test_explicit_settings_object(self, db):
        rows = db.sql(
            "SELECT * FROM toggled", bees=BeeSettings.relation_bees()
        ).rows
        assert len(rows) == 3


class TestMetamorphic:
    def test_tlp_statement_shapes(self):
        tlp = TLPCase(items_sql="*", table="t", predicate_sql="a > 1")
        stmts = tlp_statements(tlp)
        assert stmts["base"] == "SELECT * FROM t"
        assert stmts["true"].endswith("WHERE a > 1")
        assert "NOT (a > 1)" in stmts["false"]
        assert "IS NULL" in stmts["null"]
        labels = [label for label, _sql in rewrite_statements(tlp)]
        assert labels == ["not-not", "and-true", "or-false", "true-and"]

    def test_tlp_holds_on_healthy_database(self):
        db = Database(BeeSettings.all_bees())
        db.sql("CREATE TABLE tl (a int, b int NOT NULL)")
        db.sql(
            "INSERT INTO tl VALUES (1, 10), (NULL, 20), (3, 30), (NULL, 40)"
        )
        tlp = TLPCase(items_sql="b", table="tl", predicate_sql="a > 1")
        assert check_tlp(db, tlp) is None

    def test_tlp_fires_on_broken_predicates(self):
        with inject_bug("evp"):
            db = Database(BeeSettings.all_bees())
            db.sql("CREATE TABLE tl (a int, b int NOT NULL)")
            db.sql("INSERT INTO tl VALUES (1, 10), (NULL, 20), (3, 30)")
            tlp = TLPCase(items_sql="b", table="tl", predicate_sql="a > 1")
            assert check_tlp(db, tlp) is not None


class TestMinimizer:
    def test_shrinks_to_relevant_statements(self):
        history = list(range(12))

        def reproduces(subset):
            return 3 in subset and 7 in subset

        assert minimize_statements(history, reproduces) == [3, 7]

    def test_keeps_everything_when_not_reproducible(self):
        history = [1, 2, 3]
        assert minimize_statements(history, lambda s: False) == history

    def test_respects_trial_budget(self):
        calls = []

        def reproduces(subset):
            calls.append(len(subset))
            return True

        minimize_statements(list(range(50)), reproduces, max_trials=10)
        # initial confirmation + at most max_trials removal attempts
        assert len(calls) <= 11


class TestCampaign:
    """The tier-1 fixed-seed corpus: must be divergence-free."""

    def test_seed_corpus_is_clean(self):
        report = run_campaign(0, 120, minimize=False)
        assert report.ok, report.summary()
        # The seed's 120 statements, and the literal siblings behind them.
        assert 120 < report.iterations < 200
        # every lane actually ran
        assert report.check_counts["engine-diff"] == report.iterations
        assert report.check_counts["proto"] > 0
        assert report.check_counts["plan:generic"] > 0
        # one N-way point per tier row, each run for every SELECT
        from repro.bees.drivers import TIERS

        for tier in TIERS:
            assert (
                report.check_counts[f"plan:{tier.name}"]
                == report.check_counts["plan:generic"]
            )
        assert report.check_counts["tlp"] > 0
        assert report.check_counts["rewrite"] > 0

    def test_nway_lane_runs_the_match_plan_of_every_write(self):
        report = run_campaign(7, 80, minimize=False)
        assert report.ok, report.summary()
        counts = report.statement_counts
        writes = counts.get("update", 0) + counts.get("delete", 0)
        assert writes > 0
        # One N-way round per SELECT that returned rows and per write
        # whose match plan ran.
        assert report.check_counts["plan:generic"] > counts["select"] - writes
        assert report.check_counts["plan:generic"] <= counts["select"] + writes

    def test_campaign_is_deterministic(self):
        a = run_campaign(5, 60, minimize=False)
        b = run_campaign(5, 60, minimize=False)
        assert a.fingerprint == b.fingerprint
        assert a.statement_counts == b.statement_counts

    def test_report_round_trips_to_dict(self):
        report = run_campaign(1, 40, minimize=False)
        data = report.to_dict()
        assert data["seed"] == 1
        assert data["fingerprint"] == report.fingerprint
        assert data["divergences"] == []


class TestInjectionSelfTest:
    """The oracle must catch a deliberately broken bee (acceptance)."""

    def test_catches_broken_gcl(self):
        with inject_bug("gcl"):
            report = run_campaign(0, 80, minimize=False)
        assert not report.ok
        assert any(
            d.check in ("engine-diff", "plan:generic")
            for d in report.divergences
        )

    def test_catches_broken_evp(self):
        with inject_bug("evp"):
            report = run_campaign(0, 80, minimize=False)
        assert not report.ok

    def test_catches_shifted_chunk_tids_on_the_match_plan_lane(self):
        """A write's match plan reads a chunk's tids to name its rows,
        and the next refresh reads them to decide which cached rows
        survive — so misaligned tids corrupt later SELECTs too.  The
        bug is caught, and the N-way lane over a write's match plan is
        among the catchers."""
        with inject_bug("tids"):
            report = run_campaign(0, 60, minimize=False)
        assert not report.ok
        on_match_plan = [
            d for d in report.divergences if "match plan" in d.detail
        ]
        assert on_match_plan
        assert {d.check for d in on_match_plan} <= {
            "plan:vector", "plan:parallel", "plan:pipeline",
        }
        assert {d.sql.split()[0] for d in on_match_plan} <= {
            "UPDATE", "DELETE",
        }

    def test_divergences_come_with_repro_scripts(self):
        with inject_bug("gcl"):
            oracle_report = run_campaign(0, 60, minimize=True)
        assert not oracle_report.ok
        divergence = oracle_report.divergences[0]
        script = divergence.script()
        assert divergence.sql in script
        assert script.rstrip().endswith("-- divergent statement")

    def test_injection_is_scoped(self):
        with inject_bug("gcl"):
            pass
        report = run_campaign(0, 40, minimize=False)
        assert report.ok, report.summary()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            with inject_bug("agg"):
                pass
