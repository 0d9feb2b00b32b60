"""Durable DML: a statement-level data WAL, fsynced per commit.

The server logs every committed write statement (DML and DDL) to a
:class:`DataWAL` — the same CRC-framed, COMMIT-marked, torn-tail-
repairing format as the PR-5 bee-cache WAL (:class:`~repro.bees.walcache.WALFile`),
extended with real ``os.fsync`` durability.  Records are *logical*:
``{"op": "stmt", "seq": N, "session": S, "sql": ...}`` — replaying the
SQL in sequence order on a fresh base reproduces the database, which is
exactly what :func:`recover_database` does after a crash.

**Commit** (:class:`GroupCommitter`): the server admits one statement
at a time, so a commit is one group of one record: the record and its
COMMIT marker are written in one append and sealed by one fsync, under
``wal_lock``.  A crash between commits loses only an un-fsynced
statement, never tears a committed one.

An fsync failure poisons the committer: that commit and every later
one see :class:`WALSyncError`, and the server degrades durability
(keeps serving, stops logging) rather than pretending the disk still
promises anything.  The on-disk file remains a valid committed prefix.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from repro.bees.walcache import WALFile, _encode_record


class WALSyncError(Exception):
    """A commit's write or fsync failed; durability is gone."""


class DataWAL(WALFile):
    """The server's statement log: fsync-durable :class:`WALFile`.

    ``_chaos_fsync_fail`` is the chaos harness's one-shot hook: when
    positive, that many upcoming fsyncs raise ``OSError`` (armed only by
    the resilience server lane, under ``wal_lock``).
    """

    def __init__(self, path: str | Path, registry=None) -> None:
        super().__init__(path, registry)
        self._chaos_fsync_fail = 0
        self.fsyncs = 0

    @staticmethod
    def statement_record(seq: int, session: int, sql: str) -> dict:
        return {"op": "stmt", "seq": seq, "session": session, "sql": sql}

    def _sync(self, handle) -> None:
        if self._chaos_fsync_fail > 0:
            self._chaos_fsync_fail -= 1
            raise OSError("chaos: fsync failed")
        os.fsync(handle.fileno())
        self.fsyncs += 1

    def append_group(self, records: list[dict]) -> None:
        """Write *records* + COMMIT in one append, sealed by one fsync."""
        self._append_group([_encode_record(record) for record in records])

    def committed_statements(self) -> list[dict]:
        """Committed ``stmt`` records in sequence order."""
        records = [
            record for record in self.committed_records()
            if record.get("op") == "stmt"
        ]
        records.sort(key=lambda record: record["seq"])
        return records


class GroupCommitter:
    """Fsync-per-commit over a :class:`DataWAL`, poisoned on failure.

    ``commit(record)`` returns once *record* is on disk, or raises
    :class:`WALSyncError`.  The append and every bookkeeping field are
    guarded by *lock* — the database's materialized ``wal_lock`` — so
    the swarmcheck registry's ``wal_lock`` guard is literally the lock
    these writes happen under.
    """

    def __init__(self, wal: DataWAL, lock=None) -> None:
        self.wal = wal
        self._lock = lock or threading.RLock()
        self._broken: Exception | None = None
        self.records_logged = 0

    def commit(self, record: dict) -> None:
        with self._lock:
            if self._broken is not None:
                raise WALSyncError("data WAL is broken") from self._broken
            try:
                self.wal.append_group([record])
            except OSError as exc:
                self._broken = exc
                raise WALSyncError("commit fsync failed") from exc
            self.records_logged += 1

    def stats(self) -> dict:
        """Group-commit counters; every commit is a batch of one."""
        with self._lock:
            return {
                "batches": self.records_logged,
                "fsyncs": self.wal.fsyncs,
                "records": self.records_logged,
                "max_batch": min(self.records_logged, 1),
                "broken": self._broken is not None,
            }


def recover_database(wal_path: str | Path, base_factory):
    """Rebuild a database after a crash: base + committed WAL replay.

    *base_factory* returns a fresh database in the pre-crash *loaded*
    state (the base backup: schema + bulk-loaded data that predate the
    WAL).  The WAL is opened — repairing any torn tail, with the
    truncation logged to the database's resilience registry — and every
    committed statement is re-executed in sequence order.  Returns
    ``(db, applied)``.
    """
    from repro.sql.session import execute_sql

    db = base_factory()
    wal = DataWAL(wal_path, registry=db.resilience)
    applied = 0
    for record in wal.committed_statements():
        execute_sql(db, record["sql"])
        applied += 1
    return db, applied
