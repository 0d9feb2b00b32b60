"""Serialized oracle: replay a multi-session schedule single-threaded.

The server records every committed statement as a
:class:`~repro.server.core.ScheduleEntry` — global sequence number
(assigned after admission, i.e. in the order the gate admitted the
statements) plus a fingerprint of its result.  The oracle
replays the same SQL in sequence order on a *fresh* single-threaded
database and asserts every fingerprint matches: if the concurrent run
ever returned rows a serial execution could not have produced (a torn
read, a lost update, a double-applied write), the replay diverges.

Fingerprints canonicalize row order and round floats to nine
significant digits (reusing the differential oracle's
:func:`repro.oracle.normalize.sorted_canonical` discipline) so batch
interleaving and parallel-tier float re-association do not register as
divergence — value or count changes still do.
"""

from __future__ import annotations

from repro.oracle.normalize import sorted_canonical


def _canonical_value(value):
    if isinstance(value, float):
        return ("float", float(f"{value:.9g}"))
    return (type(value).__name__, value)


def statement_fingerprint(result) -> str:
    """A stable text form of one statement's result."""
    if result.status.startswith("SELECT") or result.status == "EXPLAIN":
        rows = sorted_canonical([tuple(row) for row in result.rows])
        body = repr([tuple(_canonical_value(v) for v in row)
                     for row in rows])
        return f"{result.status}|{body}"
    return result.status


def replay_schedule(schedule, db) -> dict:
    """Re-execute *schedule* in sequence order on *db*; compare results.

    *db* must be a fresh database in the same starting state the
    concurrent run began from.  Returns a report dict; ``ok`` means
    every replayed statement produced the fingerprint the concurrent
    execution recorded.
    """
    from repro.sql.session import execute_sql

    divergences = []
    replayed = 0
    for entry in sorted(schedule, key=lambda e: e.seq):
        try:
            result = execute_sql(db, entry.sql)
        except Exception as exc:  # noqa: BLE001 — divergence capture
            divergences.append({
                "seq": entry.seq,
                "sql": entry.sql,
                "expected": entry.fingerprint,
                "got": f"error:{type(exc).__name__}",
            })
            continue
        replayed += 1
        fingerprint = statement_fingerprint(result)
        if fingerprint != entry.fingerprint:
            divergences.append({
                "seq": entry.seq,
                "sql": entry.sql,
                "expected": entry.fingerprint,
                "got": fingerprint,
            })
    return {
        "statements": len(schedule),
        "replayed": replayed,
        "divergences": divergences,
        "ok": not divergences,
    }
