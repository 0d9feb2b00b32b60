"""Server lane: Hive Gate chaos under real concurrency.

The campaign's per-site harness is single-session by design; the four
``server=True`` chaos sites need clients, a gate, and a WAL to hurt.
Every lane here runs against the same **balanced-pair** scratch
relation: ``gate_ledger(id, pair, qty)`` holds one ``+q`` and one
``-q`` row per pair, so ``SUM(qty) = 0`` is an invariant that every
committed statement preserves — the flip ``UPDATE ... SET qty = 0 - qty
WHERE pair = P`` negates both rows of a pair atomically.  A non-zero
sum is therefore *proof* of a torn read or a corrupted recovery, which
gives each lane a self-checking workload:

* **client disconnect** — sockets reset (``SO_LINGER 0`` → RST) with a
  statement in flight; the server must count the disconnect, close the
  session, keep the invariant, and keep serving other clients.
* **gate held** — a statement holding the admission gate must make the
  next one a clean ``ServerOverloadedError`` refusal after
  ``admission_timeout``, never a stuck session; service resumes the
  moment the gate is released.
* **fsync failure** — a commit's fsync raises mid-run; durability
  degrades (the server says so) while statements keep succeeding, and
  the on-disk WAL stays a valid committed prefix that still recovers.
* **kill mid-commit** — the WAL is torn at a seeded offset inside the
  final commit group; :func:`~repro.server.wal.recover_database` must
  repair the tear and land exactly on a statement-prefix state.

:func:`run_unserialized_selftest` is the lane's harness proof: with
the admission gate *bypassed* and a drowsy row writer holding a flip
half done, a concurrent reader must observe the torn state (a non-zero
sum or a :class:`~repro.server.core.SnapshotViolation`); through the
gate, the identical schedule must be clean.  A harness that cannot see
the fault the gate prevents would prove nothing by passing.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import tempfile
import threading
import time
from pathlib import Path

from repro.bees.settings import BeeSettings
from repro.resilience.chaos import SERVER_LANE_TABLE, SITES, ChaosInjector

#: Balanced pairs loaded into the lane table (2 rows each).
PAIRS = 12

_GATE_DDL = (
    f"CREATE TABLE {SERVER_LANE_TABLE} (id int NOT NULL, "
    "pair int NOT NULL, qty int NOT NULL)"
)
_SUM_SQL = f"SELECT SUM(qty) FROM {SERVER_LANE_TABLE}"
_ROWS_SQL = f"SELECT id, pair, qty FROM {SERVER_LANE_TABLE}"


def _flip_sql(pair: int) -> str:
    return (
        f"UPDATE {SERVER_LANE_TABLE} SET qty = 0 - qty WHERE pair = {pair}"
    )


def _pair_qty(pair: int) -> int:
    return 10 + pair


def build_gate_db():
    """A fresh lane database: the *base backup* every recovery replays
    onto.  Setup runs outside any server so it is never WAL-logged —
    the WAL holds only the flips the lanes commit."""
    from repro.db import Database
    from repro.sql.session import execute_sql

    settings = BeeSettings.future().enabling(parallel=False)
    db = Database(settings)
    execute_sql(db, _GATE_DDL)
    rows = []
    for pair in range(PAIRS):
        qty = _pair_qty(pair)
        rows.append([2 * pair, pair, qty])
        rows.append([2 * pair + 1, pair, -qty])
    db.copy_from(SERVER_LANE_TABLE, rows)
    return db


def _table_rows(db) -> list[tuple]:
    from repro.sql.session import execute_sql

    return sorted(execute_sql(db, _ROWS_SQL).rows)


def _expected_rows(flips) -> list[tuple]:
    """The table contents after applying *flips* (a pair-number
    sequence) to the freshly loaded state."""
    counts: dict[int, int] = {}
    for pair in flips:
        counts[pair] = counts.get(pair, 0) + 1
    rows = []
    for pair in range(PAIRS):
        sign = -1 if counts.get(pair, 0) % 2 else 1
        qty = _pair_qty(pair)
        rows.append((2 * pair, pair, sign * qty))
        rows.append((2 * pair + 1, pair, sign * -qty))
    return sorted(rows)


def _fresh_server(wal_path=None, **kwargs):
    from repro.server.core import HiveServer

    db = build_gate_db()
    return db, HiveServer(db, wal_path, **kwargs)


def _sum_via(session) -> int:
    return session.sql(_SUM_SQL).rows[0][0]


# ----------------------------------------------------------------------
# lanes


def _lane_disconnect(seed: int) -> dict:
    """RST-close connections with a flip in flight; the server must
    stay consistent and keep serving."""
    from repro.server.protocol import HiveClient, HiveListener

    site = SITES["server-client-disconnect"]
    chaos = ChaosInjector(seed)
    db, server = _fresh_server()
    listener = HiveListener(server)
    failures: list[str] = []
    rounds = 4
    with site.arm(chaos, server):
        for i in range(rounds):
            conn = socket.create_connection(listener.address)
            request = json.dumps({"sql": _flip_sql(i % PAIRS)}) + "\n"
            conn.sendall(request.encode())
            # SO_LINGER(on, 0): close() sends RST, not FIN — the
            # handler sees a genuine reset, not a polite EOF.
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            conn.close()
            chaos.fired[site.name] += 1
        def sessions_drained() -> bool:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if server.sessions_active == 0:
                    return True
                time.sleep(0.01)
            return False

        if not sessions_drained():
            failures.append("disconnected sessions never closed")
        # The server must still serve a well-behaved client, and every
        # flip — applied or not — preserved the invariant.
        with HiveClient(listener.address) as client:
            total = client.sql(_SUM_SQL).rows[0][0]
        if total != 0:
            failures.append(f"invariant broken after disconnects: {total}")
        # The handler closes that client's session asynchronously; wait
        # for it so the reported counters do not depend on thread timing.
        sessions_drained()
    evidence = site.triggered(chaos, server)
    stats = server.stats_snapshot()
    listener.close()
    db.close()
    if not evidence:
        failures.append("no disconnect was ever counted")
    return {
        "description": site.description,
        "rounds": rounds,
        "fired": chaos.fired[site.name],
        "disconnects": stats["disconnects"],
        "sessions_closed": stats["sessions_closed"],
        "failures": failures,
        "ok": not failures,
    }


def _lane_gate_held(seed: int) -> dict:
    """A held admission gate: statements are refused cleanly after the
    admission wait budget, nothing wedges, service resumes on release."""
    from repro.server.core import ServerOverloadedError

    site = SITES["server-gate-held"]
    chaos = ChaosInjector(seed)
    db, server = _fresh_server(admission_timeout=0.05)
    failures: list[str] = []
    refused = 0
    with server.session() as session:
        with site.arm(chaos, server):
            for sql in (_SUM_SQL, _flip_sql(0)):
                try:
                    session.sql(sql)
                except ServerOverloadedError:
                    refused += 1
                except Exception as exc:  # noqa: BLE001 — lane verdict
                    failures.append(
                        "expected ServerOverloadedError, got "
                        f"{type(exc).__name__}"
                    )
                else:
                    failures.append(f"statement ran past a held gate: {sql}")
        # Gate released: the same session must work immediately.
        try:
            if _sum_via(session) != 0:
                failures.append("invariant broken after gate release")
            session.sql(_flip_sql(1))
            session.sql(_flip_sql(1))
            if _sum_via(session) != 0:
                failures.append("invariant broken after recovery flips")
        except Exception as exc:  # noqa: BLE001 — lane verdict
            failures.append(f"service did not resume: {type(exc).__name__}")
    evidence = site.triggered(chaos, server)
    stats = server.stats_snapshot()
    db.close()
    if not evidence:
        failures.append("no refusal was ever counted")
    return {
        "description": site.description,
        "timed_out": refused,
        "fired": chaos.fired[site.name],
        "refused": stats["refused"],
        "failures": failures,
        "ok": not failures,
    }


def _lane_fsync_fail(seed: int) -> dict:
    """A commit's fsync fails once: durability degrades loudly, the
    server keeps serving, and the on-disk WAL stays a recoverable
    committed prefix."""
    from repro.server.wal import DataWAL, recover_database

    site = SITES["server-fsync-fail"]
    chaos = ChaosInjector(seed)
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        wal_path = Path(tmp) / "gate.wal"
        db, server = _fresh_server(wal_path)
        with server.session() as session:
            session.sql(_flip_sql(0))
            session.sql(_flip_sql(1))
            if server.durability != "wal":
                failures.append("durability not 'wal' before the fault")
            with site.arm(chaos, server):
                result = session.sql(_flip_sql(2))
            if result.status != "UPDATE 2":
                failures.append(f"degraded statement failed: {result.status}")
            if server.durability != "degraded":
                failures.append(
                    f"durability is {server.durability!r}, not 'degraded'"
                )
            # Still serving, still consistent — just not durable.
            session.sql(_flip_sql(3))
            if _sum_via(session) != 0:
                failures.append("invariant broken after fsync failure")
        evidence = site.triggered(chaos, server)
        stats = server.stats_snapshot()
        live_rows = _table_rows(db)
        server.shutdown()
        db.close()
        if live_rows != _expected_rows([0, 1, 2, 3]):
            failures.append("live state lost a committed flip")
        # The on-disk log must be a statement prefix ending at the
        # failed group: the two durable flips for sure, plus the failed
        # group's flip if its bytes landed before the fsync raised (a
        # real crash may or may not preserve them — both are valid
        # prefixes).  The post-degradation flip must NOT appear.
        logged = [r["sql"] for r in DataWAL(wal_path).committed_statements()]
        if logged not in (
            [_flip_sql(p) for p in (0, 1)],
            [_flip_sql(p) for p in (0, 1, 2)],
        ):
            failures.append(f"WAL is not a committed prefix: {logged}")
        recovered, applied = recover_database(wal_path, build_gate_db)
        if _table_rows(recovered) != _expected_rows(range(applied)):
            failures.append("recovery from the degraded WAL diverged")
        recovered.close()
    if not evidence:
        failures.append("wal_fsync_failed was never recorded")
    return {
        "description": site.description,
        "fired": chaos.fired[site.name],
        "wal_failures": stats["wal_failures"],
        "logged_statements": len(logged),
        "recovered_statements": applied,
        "failures": failures,
        "ok": not failures,
    }


def _lane_kill_mid_commit(seed: int) -> dict:
    """Tear the WAL inside the final commit group (the crash the group
    committer's one-fsync-per-group protocol makes survivable);
    recovery must land exactly on a statement-prefix state."""
    from repro.server.wal import recover_database

    site = SITES["server-kill-mid-commit"]
    chaos = ChaosInjector(seed)
    rng = random.Random(seed)
    failures: list[str] = []
    rounds, statements = 4, 6
    truncations = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(rounds):
            wal_path = Path(tmp) / f"gate_{i}.wal"
            db, server = _fresh_server(wal_path)
            flips = [rng.randrange(PAIRS) for _ in range(statements)]
            with site.arm(chaos, server), server.session() as session:
                for pair in flips:
                    session.sql(_flip_sql(pair))
            server.shutdown()
            db.close()
            # The kill: cut at a seeded byte offset inside the final
            # line (the last group's COMMIT marker or record).
            text = wal_path.read_text()
            body = text[:-1]
            start = body.rfind("\n") + 1
            cut = rng.randrange(start + 1, len(body) + 1)
            wal_path.write_text(text[:cut])
            chaos.fired[site.name] += 1
            recovered, applied = recover_database(wal_path, build_gate_db)
            truncations += recovered.resilience.wal_truncations
            if applied not in (statements - 1, statements):
                failures.append(f"round {i}: applied {applied} statements")
            if _table_rows(recovered) != _expected_rows(flips[:applied]):
                failures.append(f"round {i}: recovery is not a prefix state")
            recovered.close()
    if truncations == 0:
        failures.append("no tear was ever repaired — the kill never bit")
    return {
        "description": site.description,
        "rounds": rounds,
        "fired": chaos.fired[site.name],
        "truncations": truncations,
        "failures": failures,
        "ok": not failures,
    }


def run_server_lane(seed: int = 0) -> dict:
    """All four server sites; the campaign's ``server`` section."""
    lanes = {
        "server-client-disconnect": _lane_disconnect,
        "server-gate-held": _lane_gate_held,
        "server-fsync-fail": _lane_fsync_fail,
        "server-kill-mid-commit": _lane_kill_mid_commit,
    }
    sites = {name: lane(seed) for name, lane in lanes.items()}
    return {"sites": sites, "ok": all(r["ok"] for r in sites.values())}


# ----------------------------------------------------------------------
# harness self-test


def _torn_probe(gated: bool) -> list[str]:
    """Run one drowsy half-flip with a concurrent reader, each from its
    own thread; returns the detections (torn sums / snapshot violations
    / reader errors).  *gated* sends both through ``Session.sql``;
    otherwise both call the server's ungated ``_run`` directly."""
    import repro.engine.dml as dml
    from repro.server.core import HiveServer
    from repro.sql.session import Statement

    db = build_gate_db()
    server = HiveServer(db)
    started = threading.Event()
    resume = threading.Event()
    original = dml.RowWriter.write
    calls = {"n": 0}

    def drowsy(writer_, values, *rest):
        calls["n"] += 1
        if calls["n"] == 2:
            # One row of the pair is already rewritten and the other
            # deleted (UPDATE stages every new row first, so the window
            # is in the apply loop): this is the torn window.  Hold it
            # open until the reader has run or queued at the gate.
            started.set()
            resume.wait(timeout=1.5)
        return original(writer_, values, *rest)

    def run(session, sql):
        if gated:
            return session.sql(sql)
        return server._run(session, Statement(db, sql, db.settings), None)

    detections: list[str] = []
    writer_error: list[str] = []

    def write_flip():
        try:
            with server.session() as session:
                run(session, _flip_sql(0))
        except Exception as exc:  # noqa: BLE001 — probe verdict
            writer_error.append(type(exc).__name__)

    def read_sum():
        try:
            with server.session() as session:
                total = run(session, _SUM_SQL).rows[0][0]
            if total != 0:
                detections.append(f"torn-sum({total})")
        except Exception as exc:  # noqa: BLE001 — probe verdict
            detections.append(type(exc).__name__)

    dml.RowWriter.write = drowsy
    try:
        writer = threading.Thread(target=write_flip)
        writer.start()
        started.wait(timeout=2.0)
        reader = threading.Thread(target=read_sum)
        reader.start()
        deadline = time.monotonic() + 2.0
        while reader.is_alive() and not server._waiting \
                and time.monotonic() < deadline:
            time.sleep(0.001)
        resume.set()
        reader.join(timeout=5.0)
        writer.join(timeout=5.0)
    finally:
        dml.RowWriter.write = original
        db.close()
    detections.extend(writer_error)
    return detections


def run_unserialized_selftest(seed: int = 0) -> dict:
    """With the admission gate bypassed, the probe MUST see the torn
    half-flip; through the gate, the same schedule must be clean."""
    del seed  # the probe is event-coordinated, not seeded
    ungated = _torn_probe(gated=False)
    gated = _torn_probe(gated=True)
    return {
        "expected": "mismatches",
        "escapes": [],
        "mismatches": ungated,
        "gated_detections": gated,
        "caught": bool(ungated) and not gated,
    }
