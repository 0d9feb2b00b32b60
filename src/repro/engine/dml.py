"""DML paths: insert, update, delete, and COPY-style bulk loading.

The write path is where SCL (specialized fill) and tuple-bee creation live:
each inserted row is encoded by the SCL bee routine (or the generic
``heap_fill_tuple``), after the annotated attribute values are resolved to
a beeID through the relation bee's data sections.  UPDATE/DELETE run in
two phases: the *match* is a plan — ``Filter(SeqScan(rel, ctid), qual)``,
executed on the tier stack like any SELECT and drained completely — and
the *apply* is the by-hand loop here over the ``(tid, values)`` pairs it
produced.  The by-TID paths deform their one tuple generically.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cost import constants as C
from repro.engine.expr import Expr, Opaque
from repro.engine.nodes import Filter, PlanNode, SeqScan
from repro.resilience.errors import CallerError
from repro.storage.heapfile import unpack_tid


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
        self._not_null = tuple(
            attr.attnum
            for attr in self._layout.schema.attributes
            if not attr.nullable
        )

    def encode(self, values: Sequence) -> bytes:
        """Check the row against the schema (arity, NOT NULL), resolve
        the tuple bee (if any) and encode it."""
        values = list(values)
        if len(values) != self._layout.schema.natts:
            raise ValueError(
                f"row has {len(values)} values, relation "
                f"{self.rel.schema.name!r} has {self._layout.schema.natts}"
            )
        if None in values:
            # Uncharged, like the arity check: a rejected row costs
            # nothing and a NULL-free one pays one C-level scan.
            for attnum in self._not_null:
                if values[attnum] is None:
                    attr = self._layout.schema.attributes[attnum]
                    raise ValueError(
                        f"NULL in column {attr.name!r} of relation "
                        f"{self.rel.schema.name!r}, which is NOT NULL"
                    )
        bee_id = 0
        if self._needs_bee_id:
            bee_id = self.db.bee_module.tuple_bee_id(
                self.rel.schema.name, self._bee_key(values)
            )
        return self._fill(values, bee_id)

    def write(self, values: Sequence, per_row_cost: int, raw: bytes | None = None):
        """Encode, store, and index one row; returns its TID.  *raw* is
        the row as :meth:`encode` already produced it (UPDATE encodes
        every new row before its first delete)."""
        self.ledger.charge(per_row_cost)
        if raw is None:
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


def match_plan(db, relation_name: str, qual) -> PlanNode:
    """The match phase of UPDATE/DELETE as a plan: a ctid-carrying scan
    of the relation under one ``Filter``.

    *qual* is a bound-ready expression over the relation's columns (it
    then gets whatever the statement's settings give any WHERE clause —
    EVP, a fused loop, a vector kernel), a plain ``values -> bool``
    callable (wrapped opaque: interpreted, uncharged, unfusable), or
    ``None`` for every row.
    """
    scan = SeqScan(relation_name, ctid=True)
    schema = db.relation(relation_name).schema
    scan.bind_schema(schema)
    if qual is None:
        return scan
    if not isinstance(qual, Expr):
        qual = Opaque(qual, schema.natts)
    return Filter(scan, qual)


def _matches(db, relation_name: str, qual, settings, timeout) -> list:
    """Run the match plan to completion: ``[(tid, values)]`` of the rows
    *qual* accepts, all of them before the caller's first write.  The
    plan goes through ``db.execute`` like a SELECT's, so tier stacking,
    beeshield's statement retry and the statement *timeout* are the
    executor's; an exception out of an opaque callable is the caller's.
    """
    plan = match_plan(db, relation_name, qual)
    try:
        rows = db.execute(plan, emit=False, settings=settings, timeout=timeout)
    except CallerError as wrapped:
        raise wrapped.__cause__ from None
    return [(unpack_tid(row[-1]), list(row[:-1])) for row in rows]


def delete_rows(
    db, relation_name: str, qual, settings=None, timeout=None
) -> int:
    """Delete every row matching *qual* (see :func:`match_plan`)."""
    doomed = _matches(db, relation_name, qual, settings, timeout)
    rel = db.relation(relation_name)
    for tid, values in doomed:
        rel.heap.delete(tid)
        rel.index_delete(values, tid)
        db.ledger.charge(C.INSERT_PER_ROW // 2)
    return len(doomed)


def update_rows(
    db, relation_name: str, qual, updater, settings=None, timeout=None
) -> int:
    """Update matching rows: *updater* maps old values to new values.

    Every new row is computed and encoded before the first delete, so a
    statement whose updater or encoder raises leaves the relation as it
    found it.
    """
    matches = _matches(db, relation_name, qual, settings, timeout)
    rel = db.relation(relation_name)
    writer = RowWriter(db, relation_name)
    staged = []
    for tid, old_values in matches:
        new_values = updater(list(old_values))
        staged.append((tid, old_values, new_values, writer.encode(new_values)))
    for tid, old_values, new_values, raw in staged:
        rel.heap.delete(tid)
        rel.index_delete(old_values, tid)
        writer.write(new_values, C.INSERT_PER_ROW, raw)
    return len(staged)


def update_by_tid(db, relation_name: str, tid, new_values: Sequence):
    """Update one row identified by TID (index-driven OLTP path)."""
    rel = db.relation(relation_name)
    raw = rel.heap.fetch(tid, sequential=False)
    sections = rel.sections_list()
    old_values = rel.generic_deformer(raw, sections)
    writer = RowWriter(db, relation_name)
    new_raw = writer.encode(new_values)     # may raise: before the delete
    rel.heap.delete(tid)
    rel.index_delete(old_values, tid)
    return writer.write(new_values, C.INSERT_PER_ROW, new_raw)


def delete_by_tid(db, relation_name: str, tid) -> None:
    """Delete one row identified by TID, maintaining indexes."""
    rel = db.relation(relation_name)
    raw = rel.heap.fetch(tid, sequential=False)
    values = rel.generic_deformer(raw, rel.sections_list())
    rel.heap.delete(tid)
    rel.index_delete(values, tid)
    db.ledger.charge(C.INSERT_PER_ROW // 2)
