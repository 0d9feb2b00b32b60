"""DML paths: insert, update, delete, and COPY-style bulk loading.

The write path is where SCL (specialized fill) and tuple-bee creation live:
each inserted row is encoded by the SCL bee routine (or the generic
``heap_fill_tuple``), after the annotated attribute values are resolved to
a beeID through the relation bee's data sections.  The match scan of
UPDATE/DELETE deforms through the same admission a ``SeqScan`` uses (the
relation bee's GCL when enabled and healthy); the by-TID paths deform their
one tuple generically.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.cost import constants as C
from repro.engine.nodes import ExecContext, admit_deform
from repro.resilience.errors import BeeDegradeError, is_verification_refusal


class RowWriter:
    """Shared machinery for insert/COPY against one relation."""

    def __init__(self, db, relation_name: str) -> None:
        self.db = db
        self.rel = db.relation(relation_name)
        self.ledger = db.ledger
        settings = db.settings
        bee = self.rel.bee
        if settings.scl and bee is not None:
            shield = getattr(db, "shield", None)
            if shield is not None and getattr(settings, "shield", True):
                # Beeshield: per-call guard — fill is stateless, so a
                # faulting SCL is redone generically for that row.
                self._fill = shield.fill(bee.scl, self.rel.generic_filler)
            else:
                self._fill = bee.scl.fn      # charges its own cost
        else:
            self._fill = self.rel.generic_filler
        self._layout = self.rel.layout
        self._needs_bee_id = self._layout.has_beeid
        self._bee_key = self._layout.bee_key if self._needs_bee_id else None

    def encode(self, values: Sequence) -> bytes:
        """Resolve the tuple bee (if any) and encode the row."""
        values = list(values)
        if len(values) != self._layout.schema.natts:
            raise ValueError(
                f"row has {len(values)} values, relation "
                f"{self.rel.schema.name!r} has {self._layout.schema.natts}"
            )
        bee_id = 0
        if self._needs_bee_id:
            bee_id = self.db.bee_module.tuple_bee_id(
                self.rel.schema.name, self._bee_key(values)
            )
        return self._fill(values, bee_id)

    def write(self, values: Sequence, per_row_cost: int):
        """Encode, store, and index one row; returns its TID."""
        self.ledger.charge(per_row_cost)
        raw = self.encode(values)
        tid = self.rel.heap.insert(raw)
        self.rel.index_insert(list(values), tid)
        return tid


def insert_row(db, relation_name: str, values: Sequence):
    """Single-row INSERT; returns the new tuple's TID."""
    writer = RowWriter(db, relation_name)
    return writer.write(values, C.INSERT_PER_ROW)


def copy_from(db, relation_name: str, rows: Iterable[Sequence]) -> int:
    """Bulk load *rows* (the COPY path measured in Fig. 8); returns count."""
    writer = RowWriter(db, relation_name)
    count = 0
    for values in rows:
        writer.write(values, C.COPY_PER_ROW)
        count += 1
    return count


def _scan_matches(ctx: ExecContext, rel, predicate: Callable, generic: bool):
    """One pass of the match scan: ``[(tid, values)]`` of the rows
    *predicate* accepts."""
    if generic:
        deform, checked = rel.generic_deformer, False
    else:
        deform, checked = admit_deform(ctx, rel)
    sections = rel.sections_list()
    charge = ctx.ledger.charge
    natts = rel.layout.schema.natts
    matches = []
    for tid, raw in rel.heap.scan():
        charge(C.SEQSCAN_NEXT)
        values = deform(raw, sections)
        if checked and len(values) != natts:
            ctx.shield.fault("gcl", rel.bee.gcl.name, "arity")
        if predicate(values):
            matches.append((tid, values))
    return matches


def match_rows(db, rel, predicate: Callable) -> list:
    """The match scan of UPDATE/DELETE: ``[(tid, values)]`` for every
    live row of *rel* that *predicate* accepts.

    The scan mutates nothing, so under beeshield a fault in the
    specialized pass (a raising or wrong-arity GCL, a faulting EVP
    behind *predicate*) is recorded against the bee, the ledger is
    rolled back to the scan's start, and the scan is redone once with
    the generic deformer and ``predicate.generic`` (the bee-free twin a
    specialized predicate carries; a plain callable is its own twin).
    An exception not raised inside a bee is the caller's error.
    """
    ctx = ExecContext(db)
    shield = ctx.shield
    if shield is None:
        return _scan_matches(ctx, rel, predicate, generic=False)
    # Snapshot/rollback are multi-counter operations: under the server
    # they take the ledger lock, as the executor's statement retry does.
    with db.locks.ledger_lock:
        snapshot = db.ledger.snapshot()
    try:
        matches = _scan_matches(ctx, rel, predicate, generic=False)
    except BeeDegradeError as fault:
        shield.registry.record_failure(
            fault.bee, site=fault.site, kind=fault.kind, error=fault.original
        )
    except Exception as exc:  # noqa: BLE001 — the guard is the handler
        family, key = shield.attribute(exc, db.bee_module)
        if family is None or is_verification_refusal(exc):
            raise      # not raised inside a bee: the caller's error
        shield.registry.record_failure(
            key, site=family, kind="exception", error=exc
        )
    else:
        shield.statement_ok(ctx.shield_used)
        return matches
    with db.locks.ledger_lock:
        db.ledger.rollback_to(snapshot)
    predicate = getattr(predicate, "generic", predicate)
    return _scan_matches(ctx, rel, predicate, generic=True)


def delete_rows(db, relation_name: str, predicate) -> int:
    """Delete every row matching *predicate* (a values-list callable)."""
    rel = db.relation(relation_name)
    doomed = match_rows(db, rel, predicate)
    for tid, values in doomed:
        rel.heap.delete(tid)
        rel.index_delete(values, tid)
        db.ledger.charge(C.INSERT_PER_ROW // 2)
    return len(doomed)


def update_rows(db, relation_name: str, predicate, updater) -> int:
    """Update matching rows: *updater* maps old values to new values."""
    rel = db.relation(relation_name)
    writer = RowWriter(db, relation_name)
    matches = match_rows(db, rel, predicate)
    for tid, old_values in matches:
        new_values = updater(list(old_values))
        rel.heap.delete(tid)
        rel.index_delete(old_values, tid)
        writer.write(new_values, C.INSERT_PER_ROW)
    return len(matches)


def update_by_tid(db, relation_name: str, tid, new_values: Sequence):
    """Update one row identified by TID (index-driven OLTP path)."""
    rel = db.relation(relation_name)
    raw = rel.heap.fetch(tid, sequential=False)
    sections = rel.sections_list()
    old_values = rel.generic_deformer(raw, sections)
    writer = RowWriter(db, relation_name)
    rel.heap.delete(tid)
    rel.index_delete(old_values, tid)
    return writer.write(new_values, C.INSERT_PER_ROW)


def delete_by_tid(db, relation_name: str, tid) -> None:
    """Delete one row identified by TID, maintaining indexes."""
    rel = db.relation(relation_name)
    raw = rel.heap.fetch(tid, sequential=False)
    values = rel.generic_deformer(raw, rel.sections_list())
    rel.heap.delete(tid)
    rel.index_delete(values, tid)
    db.ledger.charge(C.INSERT_PER_ROW // 2)
