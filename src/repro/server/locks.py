"""Materialized locks: swarmcheck's guard registry made real.

Swarmcheck's shared-state registry (PR 7) names a *guard* for every
shared-mutable field the engine writes on the ``db.sql()`` path —
``ledger_lock``, ``buffer_lock``, ``chunk_lock``, ``hive_lock``,
``resilience_lock``, ``catalog_lock``, ``relation_lock``,
``parallel_lock`` — but until the server existed those guards were a
plan, not objects.  :class:`HiveLocks` is the plan executed: one
attribute per declared guard name, each a live
:class:`threading.RLock`, reader/writer latch, or latch manager.  The
swarmcheck ``locks`` pass closes the loop both ways: every registry
guard must resolve to a lock attribute here, and every lock attribute
here must be named by at least one registry entry.

Lock order (documented in docs/SERVER.md, enforced by construction):

1. admission (``server_lock``, via the server's condition variable);
2. ``catalog_lock`` — shared for every statement, exclusive for DDL;
3. ``relation_lock`` — per-relation latches in sorted name order;
4. subsystem locks (``ledger_lock``, ``hive_lock``, ``wal_lock``, ...)
   taken innermost, never while waiting on 1–3.

Deadlock freedom follows: every statement acquires latches in one
globally sorted pass and subsystem locks are leaves.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import monotonic

#: Registry guard names that are disciplines, not lock objects:
#: ``session`` means session-confined (only the owning session thread
#: touches the field); ``latch-internal`` means the field is mutated
#: under the latch's own condition-variable lock; ``group-leader``
#: means mutated only by the elected group-commit leader (leadership —
#: a wal_lock-guarded flag — is the mutual exclusion); ``check-out``
#: means mutated only by the statement that took the owning query bee
#: out of ``BeeCache.query_bees`` (the atomic ``dict.pop`` is the
#: mutual exclusion, until the statement stores the bee back).
PSEUDO_GUARDS = frozenset({
    "session", "latch-internal", "group-leader", "check-out", "-", "",
})


class LockTimeout(Exception):
    """A latch was not acquired within the server's lock-wait budget."""

    def __init__(self, name: str, mode: str, timeout: float) -> None:
        super().__init__(
            f"timed out after {timeout:.3f}s waiting for {mode} latch "
            f"on {name!r}"
        )
        self.relation = name
        self.mode = mode


class RWLatch:
    """A shared/exclusive latch with writer preference and timeouts.

    Readers share; a writer excludes everything.  Waiting writers block
    new readers (writer preference) so DML cannot starve behind a
    steady reader stream.  Waits honour a deadline and raise
    :class:`LockTimeout` — the server turns that into a clean statement
    error instead of a stuck session.
    """

    def __init__(self, name: str = "?") -> None:
        self.name = name
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    # -- acquisition ---------------------------------------------------------

    def acquire_read(self, timeout: float | None = None) -> None:
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            while self._writer or self._writers_waiting:
                if not self._wait(deadline):
                    raise LockTimeout(self.name, "read", timeout or 0.0)
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: float | None = None) -> None:
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    if not self._wait(deadline):
                        raise LockTimeout(self.name, "write", timeout or 0.0)
                self._writer = True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    def _wait(self, deadline: float | None) -> bool:
        if deadline is None:
            self._cond.wait()
            return True
        remaining = deadline - monotonic()
        if remaining <= 0:
            return False
        return self._cond.wait(remaining)

    # -- context managers ----------------------------------------------------

    @contextmanager
    def read(self, timeout: float | None = None):
        self.acquire_read(timeout)
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self, timeout: float | None = None):
        self.acquire_write(timeout)
        try:
            yield self
        finally:
            self.release_write()


class RelationLatches:
    """Per-relation reader/writer latches, acquired in sorted name order.

    Sorted acquisition is the deadlock-freedom argument: every statement
    latches all the relations it references in one pass, by name, so no
    two statements ever hold latches in conflicting orders.  Unknown
    names get a latch on first touch (CREATE TABLE latches the name it
    is about to create).

    ``enabled=False`` turns every acquisition into a no-op — used only
    by the resilience self-test, which must demonstrate that the chaos
    harness detects the torn reads the latches exist to prevent.
    """

    def __init__(self, timeout: float | None = None,
                 enabled: bool = True) -> None:
        self.timeout = timeout
        self.enabled = enabled
        self._guard = threading.Lock()
        self._latches: dict[str, RWLatch] = {}

    def latch(self, name: str) -> RWLatch:
        with self._guard:
            latch = self._latches.get(name)
            if latch is None:
                latch = self._latches[name] = RWLatch(name)
            return latch

    @contextmanager
    def read(self, names, timeout: float | None = None):
        yield from self._acquire(names, "read", timeout)

    @contextmanager
    def write(self, names, timeout: float | None = None):
        yield from self._acquire(names, "write", timeout)

    def _acquire(self, names, mode: str, timeout: float | None):
        if not self.enabled:
            yield self
            return
        budget = self.timeout if timeout is None else timeout
        held: list[RWLatch] = []
        try:
            for name in sorted(set(names)):
                latch = self.latch(name)
                if mode == "read":
                    latch.acquire_read(budget)
                else:
                    latch.acquire_write(budget)
                held.append(latch)
            yield self
        finally:
            for latch in reversed(held):
                if mode == "read":
                    latch.release_read()
                else:
                    latch.release_write()


class HiveLocks:
    """Every declared guard from the swarmcheck registry, as an object.

    One instance per :class:`repro.db.Database`; the server shares it.
    The per-charge hot paths (ledger counter bumps) stay lock-free —
    single bytecode-level operations the GIL already serializes, losing
    at worst an accounting increment, never data — while every compound
    critical section (buffer-pool LRU maintenance, chunk-cache
    insert/evict, ledger snapshot/rollback, DDL, WAL grouping) runs
    under its named guard.
    """

    def __init__(self, lock_timeout: float | None = None,
                 latching: bool = True) -> None:
        self.ledger_lock = threading.RLock()
        self.buffer_lock = threading.RLock()
        self.chunk_lock = threading.RLock()
        self.hive_lock = threading.RLock()
        self.resilience_lock = threading.RLock()
        self.parallel_lock = threading.RLock()
        self.server_lock = threading.RLock()
        self.wal_lock = threading.RLock()
        self.catalog_lock = RWLatch("<catalog>")
        self.relation_lock = RelationLatches(lock_timeout, enabled=latching)

    def guard_objects(self) -> dict[str, object]:
        """Every materialized guard, by registry name."""
        return {
            name: obj for name, obj in vars(self).items()
            if isinstance(obj, (RWLatch, RelationLatches))
            or hasattr(obj, "acquire")
        }

    @staticmethod
    def registry_guards() -> set[str]:
        """Distinct non-pseudo guard names declared by swarmcheck."""
        from repro.swarmcheck.registry import REGISTRY, SHARED

        return {
            entry.guard for entry in REGISTRY
            if entry.scope == SHARED and entry.guard not in PSEUDO_GUARDS
        }

    def verify(self) -> list[str]:
        """Guard names declared in the registry with no live lock here."""
        objects = self.guard_objects()
        return sorted(
            guard for guard in self.registry_guards()
            if guard not in objects
        )
