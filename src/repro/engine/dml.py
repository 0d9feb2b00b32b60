"""DML paths: insert, update, delete, and COPY-style bulk loading.

The write path is where SCL (specialized fill) and tuple-bee creation live:
each inserted row is encoded by the SCL bee routine (or the generic
``heap_fill_tuple``), after the annotated attribute values are resolved to
a beeID through the relation bee's data sections.  UPDATE/DELETE run in
two phases: the *match* is a plan — ``Filter(SeqScan(rel, ctid), qual)``,
executed on the tier stack like any SELECT and drained completely
(:func:`matches`) — and the *apply* is the by-hand loop here over the
``(tid, values)`` pairs it produced (:func:`apply_update`,
:func:`apply_delete`).  The by-TID paths deform their one tuple
generically.
"""

from __future__ import annotations

import struct
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

    def _checked(self, values: Sequence) -> list:
        """*values* as a list, checked against the schema (arity, NOT
        NULL).  Uncharged: a rejected row costs nothing and a NULL-free
        one pays one C-level scan."""
        values = list(values)
        if len(values) != self._layout.schema.natts:
            raise ValueError(
                f"row has {len(values)} values, relation "
                f"{self.rel.schema.name!r} has {self._layout.schema.natts}"
            )
        if None in values:
            for attnum in self._not_null:
                if values[attnum] is None:
                    attr = self._layout.schema.attributes[attnum]
                    raise ValueError(
                        f"NULL in column {attr.name!r} of relation "
                        f"{self.rel.schema.name!r}, which is NOT NULL"
                    )
        return values

    def _refused(self, rows: list, error: struct.error) -> ValueError:
        """The caller's error for *rows* holding a value its column's
        type cannot (a fraction, or an out-of-range number, for an
        integer column), naming the first such column and the value.
        Built on the failure path only: the encoders raise
        ``struct.error``."""
        for values in rows:
            for attr in self._layout.schema.attributes:
                fmt = attr.sql_type.struct_fmt
                value = values[attr.attnum]
                if fmt and value is not None:
                    try:
                        struct.pack("<" + fmt, value)
                    except struct.error:
                        return ValueError(
                            f"column {attr.name!r} of relation "
                            f"{self.rel.schema.name!r} "
                            f"({attr.sql_type.name}) cannot hold {value!r}"
                        )
        return ValueError(str(error))

    def encode(self, values: Sequence) -> bytes:
        """Check the row against the schema, resolve the tuple bee (if
        any) and encode it."""
        values = self._checked(values)
        try:
            bee_id = 0
            if self._needs_bee_id:
                bee_id = self.db.bee_module.tuple_bee_id(
                    self.rel.schema.name, self._bee_key(values)
                )
            return self._fill(values, bee_id)
        except struct.error as error:
            raise self._refused([values], error) from error

    def encode_all(self, rows: Sequence[Sequence]) -> list[bytes]:
        """:meth:`encode` every row of a statement, or none: a row the
        schema rejects (arity, NOT NULL, a value its type cannot hold)
        takes back what filling the rows before it charged and leaves
        no tuple bee behind.  Data sections are append-only, so the
        rows are filled under the beeIDs they *will* get and the tuple
        bees created once every row is known to encode — in row order,
        which charges what encoding them one by one would."""
        checked = [self._checked(values) for values in rows]
        keys: list = []
        sections = None
        created: dict = {}
        charged = self.ledger.total
        try:
            if self._needs_bee_id:
                keys = [self._bee_key(values) for values in checked]
                sections = self.rel.bee.data_sections
            raws = []
            for i, values in enumerate(checked):
                bee_id = 0
                if sections is not None:
                    bee_id = sections.find(keys[i])
                    if bee_id is None:
                        bee_id = created.setdefault(
                            keys[i], len(sections) + len(created)
                        )
                raws.append(self._fill(values, bee_id))
        except struct.error as error:
            self.ledger.total = charged
            raise self._refused(checked, error) from error
        except Exception:
            self.ledger.total = charged
            raise
        name = self.rel.schema.name
        for key in keys:
            self.db.bee_module.tuple_bee_id(name, key)
        return raws

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


def insert_rows(db, relation_name: str, rows: Sequence[Sequence]) -> int:
    """A multi-row INSERT statement, all or nothing: every row is
    encoded before the first is stored (:meth:`RowWriter.encode_all`).
    A statement that succeeds charges what inserting its rows one by
    one would; a rejected one charges nothing."""
    writer = RowWriter(db, relation_name)
    for values, raw in zip(rows, writer.encode_all(rows)):
        writer.write(values, C.INSERT_PER_ROW, raw)
    return len(rows)


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


def matches(db, plan: PlanNode, settings=None, timeout=None) -> list:
    """Run match plan *plan* to completion: ``[(tid, values)]`` of the
    rows it accepts, all of them before the caller's first write.  The
    plan goes through ``db.execute`` like a SELECT's, so tier stacking,
    beeshield's statement retry and the statement *timeout* are the
    executor's; an exception out of an opaque callable is the caller's.
    """
    try:
        rows = db.execute(plan, emit=False, settings=settings, timeout=timeout)
    except CallerError as wrapped:
        raise wrapped.__cause__ from None
    return [(unpack_tid(row[-1]), list(row[:-1])) for row in rows]


def apply_delete(db, relation_name: str, doomed: list) -> int:
    """Delete the ``(tid, values)`` rows a match plan produced."""
    rel = db.relation(relation_name)
    for tid, values in doomed:
        rel.heap.delete(tid)
        rel.index_delete(values, tid)
        db.ledger.charge(C.INSERT_PER_ROW // 2)
    return len(doomed)


def delete_rows(
    db, relation_name: str, qual, settings=None, timeout=None
) -> int:
    """Delete every row matching *qual* (see :func:`match_plan`)."""
    plan = match_plan(db, relation_name, qual)
    return apply_delete(
        db, relation_name, matches(db, plan, settings, timeout)
    )


def apply_update(db, relation_name: str, matched: list, updater) -> int:
    """Update the ``(tid, values)`` rows a match plan produced:
    *updater* maps old values to new values.

    Every new row is computed and encoded before the first delete, so a
    statement whose updater or encoder raises leaves the relation as it
    found it.
    """
    rel = db.relation(relation_name)
    writer = RowWriter(db, relation_name)
    staged = []
    for tid, old_values in matched:
        new_values = updater(list(old_values))
        staged.append((tid, old_values, new_values, writer.encode(new_values)))
    for tid, old_values, new_values, raw in staged:
        rel.heap.delete(tid)
        rel.index_delete(old_values, tid)
        writer.write(new_values, C.INSERT_PER_ROW, raw)
    return len(staged)


def update_rows(
    db, relation_name: str, qual, updater, settings=None, timeout=None
) -> int:
    """Update the rows matching *qual* (see :func:`match_plan`) via
    *updater* (see :func:`apply_update`)."""
    plan = match_plan(db, relation_name, qual)
    return apply_update(
        db, relation_name, matches(db, plan, settings, timeout), updater
    )


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
