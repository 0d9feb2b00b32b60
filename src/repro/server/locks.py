"""Materialized locks: swarmcheck's guard registry made real.

Swarmcheck's shared-state registry (PR 7) names a *guard* for every
shared-mutable field the engine writes on the ``db.sql()`` path —
``ledger_lock``, ``buffer_lock``, ``chunk_lock``, ``resilience_lock``,
``parallel_lock``, ``server_lock``, ``wal_lock`` — and
:class:`HiveLocks` is that plan executed: one attribute per declared
guard name, each a live :class:`threading.RLock`.  The swarmcheck
``locks`` pass closes the loop both ways: every registry guard must
resolve to a lock attribute here, and every lock attribute here must be
named by at least one registry entry.

The catalog, the relations and their storage, and the bee module are
not guarded by locks at all: the server's admission gate admits one
statement at a time (the ``gate`` pseudo-guard), so only one statement
ever touches them.  The leaf locks here cover what is also touched from
outside a statement — ``stats_snapshot()``, session bookkeeping, the
chaos hooks — and are never held while waiting on the gate.
"""

from __future__ import annotations

import threading

#: Registry guard names that are disciplines, not lock objects:
#: ``session`` means session-confined (only the owning session thread
#: touches the field); ``gate`` means mutated only by the one statement
#: the server's admission gate admits (or, without a server, by the one
#: ``db.sql()`` caller); ``check-out`` means mutated only by the
#: statement that took the owning query bee out of
#: ``BeeCache.query_bees``, until it stores the bee back.
PSEUDO_GUARDS = frozenset({"session", "gate", "check-out", "-", ""})


class HiveLocks:
    """Every declared lock guard from the swarmcheck registry, as an
    object.

    One instance per :class:`repro.db.Database`; the server shares it.
    The per-charge hot paths (ledger counter bumps) stay lock-free —
    single bytecode-level operations the GIL already serializes, losing
    at worst an accounting increment, never data — while every compound
    critical section (buffer-pool LRU maintenance, chunk-cache
    insert/evict, ledger snapshot/rollback, WAL append) runs under its
    named guard.
    """

    def __init__(self) -> None:
        self.ledger_lock = threading.RLock()
        self.buffer_lock = threading.RLock()
        self.chunk_lock = threading.RLock()
        self.resilience_lock = threading.RLock()
        self.parallel_lock = threading.RLock()
        self.server_lock = threading.RLock()
        self.wal_lock = threading.RLock()

    def guard_objects(self) -> dict[str, object]:
        """Every materialized guard, by registry name."""
        return {
            name: obj for name, obj in vars(self).items()
            if hasattr(obj, "acquire")
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
