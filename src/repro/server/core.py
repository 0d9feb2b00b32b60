"""Hive Gate: the multi-client, fault-tolerant statement server.

:class:`HiveServer` is the multi-client front-end over one
:class:`repro.db.Database`.  Every statement gets:

* **admission control** — one gate that admits **one** statement at a
  time, a bounded wait queue with backpressure: at most ``queue_limit``
  statements wait, and past that — or past ``admission_timeout`` — the
  server *refuses* (``ServerOverloadedError``) rather than building
  unbounded latency.  Under queue pressure it first degrades
  gracefully: reads are shed from the parallel tier to the serial
  vector tier before anything is refused.
* **statement-level isolation** — one admitted statement at a time is
  a serial schedule by construction.  Readers still pin each
  relation's ``(HeapFile.uid, version)`` epoch and verify the pins
  after the scan, and every session checks that a relation's version
  never goes backwards: those tripwires (``SnapshotViolation``) catch a
  statement that ran outside the gate.
* **durability** — committed write statements are logged to the data
  WAL (one fsync per commit); an fsync failure degrades durability
  (the server keeps serving and says so in ``stats()``) instead of
  corrupting the log.
* **a schedule** — every committed statement is recorded with its
  global sequence number and a result fingerprint, so the serialized
  oracle (:func:`repro.server.oracle.replay_schedule`) can replay the
  whole multi-session history single-threaded and assert equivalence.

Sessions (:class:`Session`) are the in-process client API; the socket
line protocol in :mod:`repro.server.protocol` wraps one session per
connection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

from repro.resilience.errors import QueryTimeout
from repro.server.locks import HiveLocks
from repro.server.wal import DataWAL, GroupCommitter, WALSyncError
from repro.sql.session import SQLResult, Statement


class ServerError(Exception):
    """Base class for server-level statement failures."""


class ServerOverloadedError(ServerError):
    """Admission control refused the statement (queue full or wait
    budget exhausted)."""


class ServerClosedError(ServerError):
    """The server is shut down; no new statements are admitted."""


class SessionClosedError(ServerError):
    """The session was closed; its handle cannot run statements."""


class SnapshotViolation(ServerError):
    """A pinned snapshot epoch moved under a reader (``torn-read``) or
    a relation's version went backwards across a session's statements
    (``monotonicity``).  Never raised through the admission gate — it is
    the tripwire the resilience self-test fires by running statements
    past it."""

    def __init__(self, kind: str, relation: str, pinned, observed) -> None:
        super().__init__(
            f"{kind} violation on {relation!r}: pinned {pinned}, "
            f"observed {observed}"
        )
        self.kind = kind
        self.relation = relation


# -- bookkeeping --------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleEntry:
    """One committed statement in the global schedule: replayed in
    ``seq`` order by the serialized oracle."""

    seq: int
    session: int
    sql: str
    kind: str
    fingerprint: str


@dataclass
class ServerStats:
    """Counters for ``db.stats()['server']``; all writes under
    ``server_lock``."""

    sessions_opened: int = 0
    sessions_closed: int = 0
    statements: int = 0
    reads: int = 0
    writes: int = 0
    ddl: int = 0
    errors: int = 0
    timeouts: int = 0
    # Always 0: the server has no lock wait left to time out.  Kept
    # because the spine benchmark reads it; a benchmark change retires
    # it.
    lock_timeouts: int = 0
    snapshot_violations: int = 0
    refused: int = 0
    sheds: int = 0
    disconnects: int = 0
    wal_failures: int = 0
    queue_high_water: int = 0

    def snapshot(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Session:
    """One client's handle on the server: serial statements, snapshot
    monotonicity tracking.  A session is used by one thread at a time
    (its fields are session-confined — the ``session`` pseudo-guard in
    the swarmcheck registry)."""

    def __init__(self, server: "HiveServer", session_id: int) -> None:
        self.server = server
        self.session_id = session_id
        self.closed = False
        self.statements = 0
        # relation -> (heap uid, last pinned version): a later statement
        # of this session must never see the same heap at an older
        # version.
        self._last_versions: dict[str, tuple[int, int]] = {}

    def sql(self, statement: str, timeout: float | None = None) -> SQLResult:
        if self.closed:
            raise SessionClosedError(f"session {self.session_id} is closed")
        self.statements += 1
        return self.server.execute(self, statement, timeout=timeout)

    def close(self) -> None:
        self.server._close_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class HiveServer:
    """The multi-client statement front-end over one database.

    The server is passive: client threads call :meth:`execute` (via
    :class:`Session`) and run the statement themselves once the
    admission gate has admitted it — one statement at a time, so the
    statement path takes no lock of its own.  Subsystem leaf locks
    (``server_lock``, ``wal_lock``, ...) are taken innermost (see
    docs/SERVER.md).
    """

    def __init__(
        self,
        db,
        wal_path=None,
        *,
        queue_limit: int = 32,
        shed_threshold: int = 2,
        admission_timeout: float | None = 10.0,
        statement_timeout: float | None = None,
    ) -> None:
        self.db = db
        self.locks: HiveLocks = db.locks
        self.queue_limit = queue_limit
        self.shed_threshold = shed_threshold
        self.admission_timeout = admission_timeout
        self.statement_timeout = statement_timeout
        self.stats = ServerStats()
        self.schedule: list[ScheduleEntry] = []
        self.wal: DataWAL | None = None
        self.committer: GroupCommitter | None = None
        if wal_path is not None:
            self.wal = DataWAL(wal_path, registry=db.resilience)
            self.committer = GroupCommitter(self.wal, self.locks.wal_lock)
        self._durable = self.committer is not None
        self._gate = threading.Condition(self.locks.server_lock)
        self._sessions: dict[int, Session] = {}
        self._next_session_id = 0
        self._seq = 0
        self._waiting = 0
        self._busy = False
        self._closed = False
        db._server = self

    # -- sessions ------------------------------------------------------------

    def session(self) -> Session:
        with self.locks.server_lock:
            if self._closed:
                raise ServerClosedError("server is shut down")
            self._next_session_id += 1
            session = Session(self, self._next_session_id)
            self._sessions[session.session_id] = session
            self.stats.sessions_opened += 1
            return session

    def _close_session(self, session: Session) -> None:
        with self.locks.server_lock:
            if session.closed:
                return
            session.closed = True
            self._sessions.pop(session.session_id, None)
            self.stats.sessions_closed += 1

    @property
    def sessions_active(self) -> int:
        with self.locks.server_lock:
            return len(self._sessions)

    @property
    def durability(self) -> str:
        """``wal`` (commits logged), ``degraded`` (fsync failed,
        logging stopped), or ``none`` (no WAL configured)."""
        if self.committer is None:
            return "none"
        return "wal" if self._durable else "degraded"

    def shutdown(self) -> None:
        """Stop admitting statements and close every session."""
        with self._gate:
            self._closed = True
            sessions = list(self._sessions.values())
            self._gate.notify_all()
        for session in sessions:
            self._close_session(session)

    # -- statements ----------------------------------------------------------

    def execute(self, session: Session, sql: str,
                timeout: float | None = None) -> SQLResult:
        """Admit, look up (or parse), run, log, and record one statement
        — through the same front door as ``db.sql()``
        (:class:`repro.sql.session.Statement`), which is what knows the
        statement's class."""
        budget = self.statement_timeout if timeout is None else timeout
        kind = None
        shed = self._admit()
        try:
            # Under queue pressure the statement runs (and is keyed)
            # without the parallel tier; a write's match plan never fans
            # out anyway (the tier declines ctid scans), so only a read
            # counts as shed.
            settings = self.db.settings
            shed = shed and settings.parallel
            if shed:
                settings = settings.enabling(parallel=False)
            statement = Statement(self.db, sql, settings)
            kind = statement.kind
            if kind == "read" and shed:
                with self.locks.server_lock:
                    self.stats.sheds += 1
            result = self._run(session, statement, budget)
        except QueryTimeout:
            with self.locks.server_lock:
                self.stats.errors += 1
                self.stats.timeouts += 1
            raise
        except SnapshotViolation:
            with self.locks.server_lock:
                self.stats.errors += 1
                self.stats.snapshot_violations += 1
            raise
        except Exception:  # noqa: BLE001 — counted, then re-raised
            with self.locks.server_lock:
                self.stats.errors += 1
            raise
        else:
            with self.locks.server_lock:
                self.stats.statements += 1
                if kind == "read":
                    self.stats.reads += 1
                elif kind == "write":
                    self.stats.writes += 1
                else:
                    self.stats.ddl += 1
            return result
        finally:
            self._release()

    def _run(self, session, statement, timeout) -> SQLResult:
        """Sequence, run, log if not a read, record.  Reached only
        between :meth:`_admit` and :meth:`_release`, so no other
        statement runs meanwhile; the pins check that."""
        reading = statement.kind == "read"
        pins = self._pin(session, statement.relations) if reading else {}
        seq = self._next_seq()
        result = statement.run(timeout)
        if reading:
            self._verify_pins(session, pins)
        else:
            self._log_write(seq, session, statement.sql)
            self._pin(session, statement.relations)
        self._record(seq, session, statement.sql, statement.kind, result)
        return result

    # -- snapshot pinning ----------------------------------------------------

    def _pin(self, session: Session,
             relations) -> dict[str, tuple[int, int]]:
        """Pin ``(heap uid, version)`` for every referenced relation and
        check monotonicity against the session's last pins."""
        pins: dict[str, tuple[int, int]] = {}
        for name in relations:
            try:
                heap = self.db.relation(name).heap
            except KeyError:
                continue
            epoch = (heap.uid, heap.version)
            last = session._last_versions.get(name)
            if last is not None and last[0] == epoch[0] \
                    and epoch[1] < last[1]:
                raise SnapshotViolation("monotonicity", name, last, epoch)
            pins[name] = epoch
            session._last_versions[name] = epoch
        return pins

    def _verify_pins(self, session: Session, pins: dict) -> None:
        """Re-read every pinned epoch after the statement: any movement
        means a writer ran during our read — a torn read."""
        for name, epoch in pins.items():
            try:
                heap = self.db.relation(name).heap
            except KeyError:
                observed = None
            else:
                observed = (heap.uid, heap.version)
            if observed != epoch:
                raise SnapshotViolation("torn-read", name, epoch, observed)

    # -- sequencing, WAL, schedule -------------------------------------------

    def _next_seq(self) -> int:
        """Global statement sequence, assigned *after* admission — so
        statements are sequenced in the order the gate admitted them,
        which is what makes replay-in-seq-order an equivalent serial
        history."""
        with self.locks.server_lock:
            self._seq += 1
            return self._seq

    def _log_write(self, seq: int, session: Session, sql: str) -> None:
        committer = self.committer
        if committer is None or not self._durable:
            return
        record = DataWAL.statement_record(seq, session.session_id, sql)
        try:
            committer.commit(record)
        except WALSyncError as exc:
            # Degrade durability, keep serving: the on-disk WAL is still
            # a valid committed prefix, we just stop extending it.
            with self.locks.server_lock:
                self._durable = False
                self.stats.wal_failures += 1
            self.db.resilience.record_event(
                "wal_fsync_failed", path=str(self.wal.path), error=str(exc)
            )

    def _record(self, seq, session, sql, kind, result) -> None:
        from repro.server.oracle import statement_fingerprint

        entry = ScheduleEntry(
            seq=seq,
            session=session.session_id,
            sql=sql,
            kind=kind,
            fingerprint=statement_fingerprint(result),
        )
        with self.locks.server_lock:
            self.schedule.append(entry)

    # -- admission control ---------------------------------------------------

    def _admit(self) -> bool:
        """Wait for the gate.  Returns whether the statement should shed
        to the serial tier (queue pressure)."""
        with self._gate:
            if self._closed:
                raise ServerClosedError("server is shut down")
            if self._waiting >= self.queue_limit:
                self.stats.refused += 1
                raise ServerOverloadedError(
                    f"admission queue full ({self.queue_limit} waiting)"
                )
            self._waiting += 1
            self.stats.queue_high_water = max(
                self.stats.queue_high_water, self._waiting
            )
            try:
                while self._busy:
                    if not self._gate.wait(self.admission_timeout):
                        self.stats.refused += 1
                        raise ServerOverloadedError(
                            "timed out waiting for the gate"
                        )
                    if self._closed:
                        raise ServerClosedError("server is shut down")
                self._busy = True
                return self._waiting > self.shed_threshold
            finally:
                self._waiting -= 1

    def _release(self) -> None:
        with self._gate:
            self._busy = False
            self._gate.notify()

    def note_disconnect(self) -> None:
        """Count a client that vanished mid-conversation (called by the
        protocol layer, which does no engine writes itself)."""
        with self.locks.server_lock:
            self.stats.disconnects += 1

    # -- reporting -----------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """The ``server`` section of ``db.stats()``."""
        with self.locks.server_lock:
            snapshot = self.stats.snapshot()
            snapshot["sessions_active"] = len(self._sessions)
            snapshot["durability"] = self.durability
            snapshot["schedule_length"] = len(self.schedule)
        snapshot["query_bees"] = self.db.bee_module.statement_statistics()
        snapshot["group_commit"] = (
            self.committer.stats() if self.committer is not None
            else {"batches": 0, "fsyncs": 0, "records": 0,
                  "max_batch": 0, "broken": False}
        )
        return snapshot
