"""Hive Gate server: sessions, isolation, WAL group commit, protocol.

The concurrency contract under test: an 8-ish-client mixed workload
must (a) never error, (b) never observe a torn write, and (c) leave a
schedule whose single-threaded replay reproduces every statement's
fingerprint — the serialized-oracle equivalence the server's
one-statement gate and sequencing exist to provide.  Around that core:
snapshot tripwires, admission control, durability degradation,
torn-tail recovery, and the socket protocol.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.bees.settings import BeeSettings
from repro.db import Database
from repro.resilience.serverlane import (
    PAIRS,
    _expected_rows,
    _flip_sql,
    _table_rows,
    build_gate_db,
)
from repro.server.core import (
    HiveServer,
    ServerOverloadedError,
    SessionClosedError,
    SnapshotViolation,
)
from repro.server.locks import HiveLocks
from repro.server.oracle import replay_schedule, statement_fingerprint
from repro.server.protocol import HiveClient, HiveListener, RemoteStatementError
from repro.server.wal import DataWAL, GroupCommitter, recover_database
from repro.sql.parser import parse
from repro.sql.session import SQLResult, classify_statement


@pytest.fixture()
def gate():
    db = build_gate_db()
    server = HiveServer(db)
    yield db, server
    db.close()


# -- sessions and statement plumbing -----------------------------------------


class TestSessions:
    def test_session_lifecycle_and_stats(self, gate):
        db, server = gate
        with server.session() as session:
            assert session.sql("SELECT COUNT(*) FROM gate_ledger").rows \
                == [(2 * PAIRS,)]
            assert session.sql(_flip_sql(0)).status == "UPDATE 2"
            session.sql(
                "CREATE TABLE gate_aux (k int NOT NULL, v int NOT NULL)"
            )
        stats = server.stats_snapshot()
        assert stats["sessions_opened"] == stats["sessions_closed"] == 1
        assert stats["reads"] == stats["writes"] == stats["ddl"] == 1
        assert stats["errors"] == 0
        assert stats["durability"] == "none"

    def test_closed_session_refuses_statements(self, gate):
        _db, server = gate
        session = server.session()
        session.close()
        session.close()  # idempotent
        with pytest.raises(SessionClosedError):
            session.sql("SELECT 1 FROM gate_ledger")

    def test_statement_errors_are_counted_not_fatal(self, gate):
        _db, server = gate
        with server.session() as session:
            with pytest.raises(Exception):
                session.sql("SELECT nope FROM missing_table")
            assert session.sql(_flip_sql(1)).status == "UPDATE 2"
        assert server.stats.errors == 1
        assert server.stats.writes == 1

    def test_classify_statement_kinds(self):
        read, rels = classify_statement(
            parse("SELECT a.x FROM alpha a JOIN beta b ON a.x = b.x")
        )
        assert read == "read" and rels == ("alpha", "beta")
        kind, rels = classify_statement(
            parse("UPDATE alpha SET x = 1 WHERE x = 2")
        )
        assert kind == "write" and rels == ("alpha",)
        kind, rels = classify_statement(
            parse("CREATE TABLE gamma (x int NOT NULL)")
        )
        assert kind == "ddl" and rels == ("gamma",)

    def test_database_context_manager_shuts_server_down(self):
        with Database(BeeSettings.future().enabling(parallel=False)) as db:
            server = HiveServer(db)
            session = server.session()
        assert session.closed
        assert db._server is None
        db.close()  # idempotent after __exit__

    def test_stats_server_section_is_deep_copied(self, gate):
        db, server = gate
        snapshot = db.stats()["server"]
        snapshot["statements"] = 999
        snapshot["group_commit"]["batches"] = 999
        assert server.stats.statements == 0
        assert db.stats()["server"]["statements"] == 0


# -- snapshot isolation ------------------------------------------------------


class TestIsolation:
    def test_monotonicity_violation_detected(self, gate):
        _db, server = gate
        with server.session() as session:
            session.sql("SELECT SUM(qty) FROM gate_ledger")
            (uid, version), = [
                session._last_versions["gate_ledger"]
            ]  # noqa: asserts single pin tuple unpack
            session._last_versions["gate_ledger"] = (uid, version + 10)
            with pytest.raises(SnapshotViolation) as exc:
                session.sql("SELECT SUM(qty) FROM gate_ledger")
            assert exc.value.kind == "monotonicity"
        assert server.stats.snapshot_violations == 1

    def test_hive_locks_cover_every_registry_guard(self):
        assert HiveLocks().verify() == []

    def test_read_modify_write_across_statements_loses_an_update(self, gate):
        """Isolation is per statement.  Two sessions each read a balance
        and write back a value computed from it; neither statement is
        torn, yet one deposit vanishes — the anomaly a multi-statement
        transaction would prevent, demonstrated rather than denied."""
        _db, server = gate
        read = "SELECT qty FROM gate_ledger WHERE id = 0"
        with server.session() as alice, server.session() as bob:
            start = alice.sql(read).rows[0][0]
            seen_by_alice = alice.sql(read).rows[0][0]
            seen_by_bob = bob.sql(read).rows[0][0]
            alice.sql(
                f"UPDATE gate_ledger SET qty = {seen_by_alice + 10} WHERE id = 0"
            )
            bob.sql(
                f"UPDATE gate_ledger SET qty = {seen_by_bob + 5} WHERE id = 0"
            )
            final = bob.sql(read).rows[0][0]
        assert server.stats.snapshot_violations == 0
        assert server.stats.errors == 0
        assert final == start + 5          # alice's +10 is lost
        assert final != start + 15         # what serializable would give


# -- the concurrency contract ------------------------------------------------


class TestConcurrentEquivalence:
    def test_threaded_mixed_workload_replays_serially(self):
        db = build_gate_db()
        server = HiveServer(db)
        errors: list[str] = []

        def reader():
            with server.session() as session:
                for _ in range(12):
                    total = session.sql(
                        "SELECT SUM(qty) FROM gate_ledger"
                    ).rows[0][0]
                    if total != 0:
                        errors.append(f"torn sum {total}")

        def writer(pair: int):
            with server.session() as session:
                for _ in range(8):
                    session.sql(_flip_sql(pair))

        threads = [threading.Thread(target=reader) for _ in range(4)] + [
            threading.Thread(target=writer, args=(p,)) for p in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors == []
        assert server.stats.errors == 0
        assert server.stats.snapshot_violations == 0
        assert server.stats.statements == 4 * 12 + 4 * 8
        # Every writer ran an even flip count: back to the loaded state.
        assert _table_rows(db) == _expected_rows([])
        replay = replay_schedule(server.schedule, build_gate_db())
        assert replay["ok"], replay["divergences"]
        assert replay["replayed"] == server.stats.statements
        db.close()

    def test_replay_flags_divergence(self, gate):
        import dataclasses

        db, server = gate
        with server.session() as session:
            session.sql(_flip_sql(0))
            session.sql("SELECT SUM(qty) FROM gate_ledger")
        schedule = list(server.schedule)
        schedule[-1] = dataclasses.replace(
            schedule[-1], fingerprint="SELECT 1|bogus"
        )
        replay = replay_schedule(schedule, build_gate_db())
        assert not replay["ok"]
        assert len(replay["divergences"]) == 1

    def test_fingerprint_rounds_float_noise(self):
        a = SQLResult("SELECT 1", [(0.1 + 0.2,)], ["x"])
        b = SQLResult("SELECT 1", [(0.3,)], ["x"])
        assert statement_fingerprint(a) == statement_fingerprint(b)
        c = SQLResult("SELECT 1", [(0.31,)], ["x"])
        assert statement_fingerprint(a) != statement_fingerprint(c)


# -- admission control -------------------------------------------------------


class TestAdmission:
    def test_slot_exhaustion_refuses_after_timeout(self):
        db = build_gate_db()
        server = HiveServer(db, admission_timeout=0.05)
        server._admit()  # hold the gate
        try:
            with server.session() as session:
                with pytest.raises(ServerOverloadedError):
                    session.sql("SELECT SUM(qty) FROM gate_ledger")
        finally:
            server._release()
        assert server.stats.refused == 1
        with server.session() as session:
            session.sql("SELECT SUM(qty) FROM gate_ledger")
        db.close()

    def test_queue_pressure_sheds_reads_to_serial(self):
        db = build_gate_db()
        server = HiveServer(db, shed_threshold=0)
        with server.session() as session:
            assert session.sql(
                "SELECT SUM(qty) FROM gate_ledger"
            ).rows == [(0,)]
        # parallel is disabled in the lane settings, so the shed is a
        # no-op downgrade — but admission still reports the pressure.
        assert server.stats.queue_high_water == 1
        db.close()


# -- durability --------------------------------------------------------------


class TestDurability:
    def test_concurrent_committers_each_get_one_durable_record(
        self, tmp_path
    ):
        wal = DataWAL(tmp_path / "group.wal")
        committer = GroupCommitter(wal)
        start = threading.Barrier(8)

        def commit(i: int):
            start.wait()
            committer.commit({"op": "stmt", "seq": i, "session": i,
                              "sql": f"s{i}"})

        threads = [
            threading.Thread(target=commit, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        stats = committer.stats()
        assert stats["fsyncs"] == stats["records"] == 8
        assert stats["batches"] == 8 and stats["max_batch"] == 1
        assert [r["sql"] for r in wal.committed_statements()] == [
            f"s{i}" for i in range(8)
        ]

    def test_wal_round_trip_and_recovery(self, tmp_path):
        wal_path = tmp_path / "gate.wal"
        db = build_gate_db()
        server = HiveServer(db, wal_path)
        with server.session() as session:
            session.sql(_flip_sql(0))
            session.sql(_flip_sql(1))
            session.sql(_flip_sql(0))
        assert server.durability == "wal"
        server.shutdown()
        db.close()
        recovered, applied = recover_database(wal_path, build_gate_db)
        assert applied == 3
        assert _table_rows(recovered) == _expected_rows([1])
        recovered.close()

    def test_torn_tail_recovers_committed_prefix(self, tmp_path):
        wal_path = tmp_path / "gate.wal"
        db = build_gate_db()
        server = HiveServer(db, wal_path)
        with server.session() as session:
            for pair in (0, 1, 2):
                session.sql(_flip_sql(pair))
        server.shutdown()
        db.close()
        text = wal_path.read_text()
        # Cut inside the final group's COMMIT marker.
        wal_path.write_text(text[: len(text) - 4])
        recovered, applied = recover_database(wal_path, build_gate_db)
        assert applied == 2
        assert _table_rows(recovered) == _expected_rows([0, 1])
        assert recovered.resilience.wal_truncations == 1
        recovered.close()

    def test_fsync_failure_degrades_but_keeps_serving(self, tmp_path):
        db = build_gate_db()
        server = HiveServer(db, tmp_path / "gate.wal")
        with server.session() as session:
            session.sql(_flip_sql(0))
            with server.locks.wal_lock:
                server.wal._chaos_fsync_fail = 1
            assert session.sql(_flip_sql(1)).status == "UPDATE 2"
            assert server.durability == "degraded"
            assert session.sql(_flip_sql(2)).status == "UPDATE 2"
        assert server.stats.wal_failures == 1
        assert any(
            e["event"] == "wal_fsync_failed"
            for e in db.resilience.report()["events"]
        )
        db.close()


# -- the wire protocol -------------------------------------------------------


class TestProtocol:
    def test_round_trip_error_recovery_and_disconnect(self, gate):
        db, server = gate
        listener = HiveListener(server)
        try:
            with HiveClient(listener.address) as client:
                result = client.sql("SELECT SUM(qty) FROM gate_ledger")
                assert result.rows == [(0,)]
                with pytest.raises(RemoteStatementError) as exc:
                    client.sql("SELECT x FROM nowhere")
                assert exc.value.kind
                # The connection survives a statement error.
                assert client.sql(_flip_sql(0)).status == "UPDATE 2"
            deadline = 100
            while server.sessions_active and deadline:
                deadline -= 1
                threading.Event().wait(0.01)
            assert server.sessions_active == 0
        finally:
            listener.close()

    def test_malformed_request_is_a_statement_error(self, gate):
        _db, server = gate
        listener = HiveListener(server)
        try:
            conn = socket.create_connection(listener.address)
            with conn, conn.makefile("r", encoding="utf-8") as reader:
                conn.sendall(b"this is not json\n")
                response = json.loads(reader.readline())
                assert response["ok"] is False
                conn.sendall(
                    (json.dumps({"sql": _flip_sql(3)}) + "\n").encode()
                )
                assert json.loads(reader.readline())["ok"] is True
        finally:
            listener.close()
