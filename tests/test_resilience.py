"""Beeshield: registry state machine, guarded fallback, quarantine
lifecycle, per-statement timeouts, torn-WAL recovery, and the chaos
campaign's own plumbing."""

from __future__ import annotations

import pytest

from repro.bees.settings import BeeSettings
from repro.bees.walcache import BeeCacheWAL
from repro.db import Database
from repro.resilience import QueryTimeout, ResilienceRegistry
from repro.resilience.campaign import run_site, run_wal_lane
from repro.resilience.chaos import SITES, ChaosInjector, _raising_copy
from repro.resilience.registry import (
    BACKOFF_BASE,
    BACKOFF_MAX,
    CONSECUTIVE_FAILURES,
    EVENT_LOG_LIMIT,
)


def _fail(registry, key="GCL_t", n=1):
    for _ in range(n):
        health = registry.record_failure(key, site="gcl", kind="exception")
    return health


class TestRegistry:
    def test_quarantine_after_consecutive_failures(self):
        registry = ResilienceRegistry()
        health = _fail(registry, n=CONSECUTIVE_FAILURES - 1)
        assert not health.quarantined
        health = _fail(registry)
        assert health.quarantined
        assert health.window == BACKOFF_BASE
        assert registry.quarantined() == ["GCL_t"]

    def test_success_resets_consecutive(self):
        registry = ResilienceRegistry()
        _fail(registry, n=CONSECUTIVE_FAILURES - 1)
        registry.record_success("GCL_t")
        health = _fail(registry)
        assert health.consecutive == 1
        assert not health.quarantined

    def test_backoff_window_doubles_and_caps(self):
        registry = ResilienceRegistry()
        health = _fail(registry, n=CONSECUTIVE_FAILURES)
        expected = BACKOFF_BASE
        for _ in range(8):
            assert health.window == min(expected, BACKOFF_MAX)
            # Drain the window: each denied admission counts down.
            for _ in range(health.window - 1):
                assert not registry.admit("GCL_t")
            assert registry.admit("GCL_t")     # the probe
            assert health.probing
            _fail(registry)                    # probe fails: re-quarantine
            assert health.quarantined
            expected *= 2
        assert health.window == BACKOFF_MAX

    def test_probe_success_readmits(self):
        registry = ResilienceRegistry()
        health = _fail(registry, n=CONSECUTIVE_FAILURES)
        for _ in range(health.window):
            registry.admit("GCL_t")
        assert health.probing
        registry.record_success("GCL_t")
        assert not health.probing
        assert not health.quarantined
        assert registry.admit("GCL_t")

    def test_clear_prefix_drops_matching_health(self):
        registry = ResilienceRegistry()
        _fail(registry, key="GCL_orders", n=3)
        _fail(registry, key="EVP:Cmp('<')", n=3)
        assert registry.clear_prefix("GCL_orders") == 1
        assert registry.quarantined() == ["EVP:Cmp('<')"]

    def test_event_log_bounded(self):
        registry = ResilienceRegistry()
        for i in range(EVENT_LOG_LIMIT + 50):
            registry.record_event("tick", n=i)
        events = registry.report()["events"]
        assert len(events) == EVENT_LOG_LIMIT
        assert events[-1]["n"] == EVENT_LOG_LIMIT + 49


def _small_db(settings=None) -> Database:
    db = Database(settings or BeeSettings.all_bees())
    db.sql(
        "CREATE TABLE t (id int NOT NULL, kind char(4) NOT NULL, "
        "qty int NOT NULL, ANNOTATE (kind))"
    )
    db.copy_from(
        "t", [[i, ["AAAA", "BBBB"][i % 2], i * 3 % 50] for i in range(40)]
    )
    return db


def _select(db, **kwargs):
    return sorted(
        tuple(row) for row in db.sql(
            "SELECT id, qty FROM t WHERE qty < 25", **kwargs
        ).rows
    )


class TestGuardedFallback:
    def test_raising_gcl_degrades_to_generic(self):
        db = _small_db()
        expected = _select(db, bees=False)
        rel = db.relation("t")
        rel.bee.gcl = _raising_copy(rel.bee.gcl, "test", ChaosInjector())
        assert _select(db) == expected
        report = db.resilience.report()
        assert report["faults"] > 0
        assert "GCL_t" in report["bees"]

    def test_raising_scl_falls_back_per_row(self):
        db = _small_db()
        rel = db.relation("t")
        rel.bee.scl = _raising_copy(rel.bee.scl, "test", ChaosInjector())
        db.insert("t", [99, "CCCC", 7])
        rows = db.sql("SELECT qty FROM t WHERE id = 99").rows
        assert [tuple(r) for r in rows] == [(7,)]
        assert db.resilience.report()["bees"]["SCL_t"]["failures"] > 0

    def test_statement_succeeds_with_unattributable_fault(self):
        # A fault with no <bee:> frame degrades the whole statement to
        # generic execution rather than raising to the caller.
        db = _small_db()
        expected = _select(db, bees=False)
        rel = db.relation("t")
        inner = rel.bee.gcl.fn

        def plain_wrapper(raw, sections):   # no bee-attributable frame
            raise RuntimeError("anonymous fault")

        rel.bee.gcl.fn = plain_wrapper
        assert _select(db) == expected
        bees = db.resilience.report()["bees"]
        assert "STMT:unattributed" in bees
        rel.bee.gcl.fn = inner

    def test_shield_off_exposes_raw_fault(self):
        db = _small_db(BeeSettings.all_bees().enabling(shield=False))
        rel = db.relation("t")
        rel.bee.gcl = _raising_copy(rel.bee.gcl, "test", ChaosInjector())
        from repro.resilience.errors import ChaosFault

        with pytest.raises(ChaosFault):
            _select(db)


class TestQuarantineLifecycle:
    def test_consecutive_faults_quarantine_then_probe_readmits(self):
        db = _small_db()
        expected = _select(db, bees=False)
        rel = db.relation("t")
        good = rel.bee.gcl
        rel.bee.gcl = _raising_copy(good, "test", ChaosInjector())

        # Every faulting statement still returns correct rows.
        for _ in range(CONSECUTIVE_FAILURES):
            assert _select(db) == expected
        health = db.resilience.health_or_none("GCL_t")
        assert health.quarantined
        assert health.window == BACKOFF_BASE
        fired_at_quarantine = health.failures

        # While quarantined: admissions denied, bee never invoked.
        for _ in range(health.window - 1):
            assert _select(db) == expected
        assert health.failures == fired_at_quarantine

        # Repair the bee; the next admission is the probe and succeeds.
        rel.bee.gcl = good
        assert _select(db) == expected
        assert not health.quarantined
        assert not health.probing

    def test_failed_probe_doubles_window(self):
        db = _small_db()
        rel = db.relation("t")
        rel.bee.gcl = _raising_copy(rel.bee.gcl, "test", ChaosInjector())
        expected = _select(db, bees=False)
        health = None
        for _ in range(CONSECUTIVE_FAILURES + BACKOFF_BASE + 1):
            assert _select(db) == expected
            health = db.resilience.health_or_none("GCL_t")
        assert health.quarantines == 2
        assert health.window == BACKOFF_BASE * 2

    def test_drop_table_clears_quarantine(self):
        db = _small_db()
        _fail(db.resilience, key="GCL_t", n=CONSECUTIVE_FAILURES)
        _fail(db.resilience, key="SCL_t", n=CONSECUTIVE_FAILURES)
        assert db.resilience.quarantined() == ["GCL_t", "SCL_t"]
        db.drop_table("t")
        assert db.resilience.quarantined() == []

    def test_invalidation_clears_query_bee_quarantine(self):
        # The hiveaudit invalidation edge (ALTER and friends) must also
        # clear quarantine state for query bees: the routines it
        # described no longer exist.
        db = _small_db()
        _fail(db.resilience, key="EVP:Cmp('<', qty, 25)", n=3)
        _fail(db.resilience, key="GCL_t", n=3)
        db.bee_module.invalidate_query_bees()
        assert db.resilience.quarantined() == ["GCL_t"]

    def test_stats_exposes_resilience_report(self):
        db = _small_db()
        _fail(db.resilience, key="GCL_t", n=1)
        stats = db.stats()
        assert "bees" in stats and "resilience" in stats
        assert stats["resilience"]["faults"] == 1
        assert "gcl/exception" in stats["resilience"]["by_site"]


class TestQueryTimeout:
    def _join_db(self) -> Database:
        db = Database(BeeSettings.all_bees())
        db.sql("CREATE TABLE t1 (k1 int NOT NULL, a int NOT NULL)")
        db.sql("CREATE TABLE t2 (k2 int NOT NULL, b int NOT NULL)")
        # All keys equal: the equi-join degenerates to a cross product
        # (400 x 400 = 160k output rows).
        db.copy_from("t1", [[1, i] for i in range(400)])
        db.copy_from("t2", [[1, i] for i in range(400)])
        return db

    def test_pathological_join_times_out_and_db_stays_usable(self):
        db = self._join_db()
        before = db.ledger.total
        with pytest.raises(QueryTimeout):
            db.sql(
                "SELECT a, b FROM t1 JOIN t2 ON k1 = k2", timeout=0.001
            )
        assert db.ledger.total == before      # ledger rolled back
        assert db._deadline is None           # statement budget cleared
        rows = db.sql("SELECT a FROM t1 WHERE a < 3").rows
        assert sorted(tuple(r) for r in rows) == [(0,), (1,), (2,)]

    def test_generous_timeout_passes(self):
        db = self._join_db()
        result = db.sql(
            "SELECT a, b FROM t1 JOIN t2 ON k1 = k2 WHERE a < 1 AND b < 1",
            timeout=60.0,
        )
        assert [tuple(r) for r in result.rows] == [(0, 0)]


class TestTornWAL:
    def test_every_truncation_offset_of_final_record(self, tmp_path):
        """Crash mid-append at every byte of the final record: recovery
        must keep all committed records and log the truncation."""
        registry = ResilienceRegistry()
        reference = tmp_path / "ref.wal"
        wal = BeeCacheWAL(reference)
        wal.log_delete("alpha")
        wal.commit()
        wal.log_delete("beta")
        text = reference.read_text()
        body = text[:-1]
        start = body.rfind("\n") + 1
        for cut in range(start + 1, len(text) + 1):
            path = tmp_path / f"cut_{cut}.wal"
            path.write_text(text[:cut])
            reopened = BeeCacheWAL(path, registry)
            records = reopened.committed_records()
            assert [r["relation"] for r in records] == ["alpha"], (
                f"committed records lost at cut={cut}"
            )
        # Every true tear (unterminated partial) was logged.
        assert registry.wal_truncations >= len(text) - start - 1

    def test_repair_reterminates_torn_newline(self, tmp_path):
        path = tmp_path / "t.wal"
        wal = BeeCacheWAL(path)
        wal.log_delete("alpha")
        wal.commit()
        path.write_text(path.read_text()[:-1])   # only the newline torn
        reopened = BeeCacheWAL(path)
        assert [r["relation"] for r in reopened.committed_records()] == ["alpha"]
        assert reopened.path.read_text().endswith("\n")

    def test_midfile_corruption_still_raises(self, tmp_path):
        from repro.bees.walcache import WALCorruptionError

        path = tmp_path / "t.wal"
        wal = BeeCacheWAL(path)
        wal.log_delete("alpha")
        wal.commit()
        path.write_text(path.read_text().replace("delete", "detele"))
        with pytest.raises(WALCorruptionError):
            BeeCacheWAL(path).committed_records()

    def test_wal_lane(self):
        lane = run_wal_lane(seed=7, rounds=4)
        assert lane["ok"]
        assert lane["truncations"] == 4


class TestServerLane:
    def test_server_sites_are_catalogued(self):
        server_sites = {name for name, s in SITES.items() if s.server}
        assert server_sites == {
            "server-client-disconnect", "server-gate-held",
            "server-fsync-fail", "server-kill-mid-commit",
        }

    def test_kill_mid_commit_recovers_prefix_state(self):
        from repro.resilience.serverlane import _lane_kill_mid_commit

        lane = _lane_kill_mid_commit(seed=3)
        assert lane["ok"], lane["failures"]
        assert lane["truncations"] > 0

    def test_fsync_failure_degrades_not_corrupts(self):
        from repro.resilience.serverlane import _lane_fsync_fail

        lane = _lane_fsync_fail(seed=3)
        assert lane["ok"], lane["failures"]
        assert lane["wal_failures"] == 1

    def test_unserialized_selftest_sees_torn_reads(self):
        from repro.resilience.serverlane import run_unserialized_selftest

        verdict = run_unserialized_selftest()
        assert verdict["caught"], verdict
        assert verdict["mismatches"]
        assert verdict["gated_detections"] == []


@pytest.fixture(scope="module")
def tiny_tpch():
    from repro.workloads.tpch.dbgen import TPCHGenerator
    from repro.workloads.tpch.loader import generate_rows

    from repro.resilience.campaign import _expected_outcomes

    rows = generate_rows(TPCHGenerator(0.001, 20120401))
    return rows, _expected_outcomes(rows)


class TestCampaign:
    def test_site_catalog_is_stable(self):
        assert {"gcl-raise", "evp-wrong-type", "stale-epoch",
                "budget-overrun", "section-flip"} <= set(SITES)

    def test_generation_fault_site_passes(self, tiny_tpch):
        rows, expected = tiny_tpch
        result = run_site("evp-gen-raise", rows, expected, seed=1)
        assert result.ok, (result.mismatches, result.escapes)
        assert result.fired > 0

    def test_stale_epoch_site_detects_missed_invalidation(self, tiny_tpch):
        rows, expected = tiny_tpch
        result = run_site("stale-epoch", rows, expected, seed=1)
        assert result.ok, (result.mismatches, result.escapes)

    def test_self_test_catches_unshielded_escape(self, tiny_tpch):
        rows, expected = tiny_tpch
        from repro.resilience.campaign import _site_settings

        unshielded = _site_settings(SITES["gcl-raise"]).enabling(shield=False)
        result = run_site(
            "gcl-raise", rows, expected, seed=1, settings=unshielded
        )
        assert result.escapes, "unshielded raising bee must escape"
