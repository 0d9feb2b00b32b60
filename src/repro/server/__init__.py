"""Hive Gate: the fault-tolerant multi-client server front-end.

Lazy exports — ``repro.db`` imports :mod:`repro.server.locks` at
construction time, so this package must not import :mod:`repro.server.core`
(which imports ``repro.sql`` → ``repro.db``) eagerly.
"""

from __future__ import annotations

_EXPORTS = {
    "HiveLocks": "repro.server.locks",
    "DataWAL": "repro.server.wal",
    "GroupCommitter": "repro.server.wal",
    "WALSyncError": "repro.server.wal",
    "recover_database": "repro.server.wal",
    "HiveServer": "repro.server.core",
    "Session": "repro.server.core",
    "ServerStats": "repro.server.core",
    "ServerError": "repro.server.core",
    "ServerOverloadedError": "repro.server.core",
    "SessionClosedError": "repro.server.core",
    "SnapshotViolation": "repro.server.core",
    "statement_fingerprint": "repro.server.oracle",
    "replay_schedule": "repro.server.oracle",
    "HiveListener": "repro.server.protocol",
    "HiveClient": "repro.server.protocol",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, name)
