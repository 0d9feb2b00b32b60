"""Columnar chunks: heap pages decoded page-at-a-time into typed arrays.

A :class:`Chunk` is one relation's live tuples transposed into NumPy
columns — ``int64``/``float64``/``bool_`` for scalar types, ``object``
for CHAR/varchar — plus a boolean null mask per *nullable* attribute
(``None`` for NOT NULL columns, so generated kernels can skip the mask
statically).  NULL lanes hold a type-stable fill (``0``/``0.0``/
``False``/``""``) that vectorized primitives can run over safely; the
mask is consulted wherever NULL semantics matter.  ``tids`` holds each
row's packed tuple identifier (:func:`repro.storage.heapfile.pack_tid`):
what a ctid scan — the match phase of UPDATE/DELETE — reads as its
trailing column (:meth:`Chunk.with_ctid`).

Decode is page at a time, charging buffer access + ``PAGE_ACCESS`` per
page plus per-value decode work, exactly the costs the row tiers pay on
their first pass.  The per-tuple work is a *column sink* —
``sink(raws, sections, cols, nulls)`` appends one page of raw tuples
straight onto per-column lists: the relation bee's generated GCL column
sink when ``settings.gcl`` is on (:func:`repro.bees.routines.gcl.
generate_gcl_columns`), else :func:`reference_column_sink`, which runs
:meth:`repro.storage.layout.TupleLayout.decode` — the reference decoder
— per tuple.  Neither charges, so a decode costs the same either way.

The :class:`ChunkCache` then amortizes that across statements: entries
are keyed by the heap file's ``uid`` and validated against its mutation
``version`` and the relation's current layout *identity* (DDL builds a
new :class:`TupleLayout`, so a stale entry can never serve a
reannotated or altered relation).  A warm hit charges only
``VEC_CHUNK_HIT`` per page — the columnar chunk cache stands in for the
buffer pool on the vector path, which is where the tier's cold/warm
asymmetry comes from.  After a write, the entry is *patched* slot by
slot: on the pages whose mutation counter moved, the cached rows whose
tuples died are masked out and only the tuples born since are decoded;
everything else is runs of the arrays already held (:func:`_decode`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress
from operator import ne

import numpy as np

from repro.cost import constants as C
from repro.storage.heapfile import CTID_SLOT_BITS

#: struct format character -> ndarray dtype (strings stay object lanes).
_DTYPES = {"i": np.int64, "q": np.int64, "d": np.float64, "B": np.bool_}

#: struct format character -> NULL-lane fill value.
_FILLS = {"i": 0, "q": 0, "d": 0.0, "B": False}


@dataclass
class Chunk:
    """One relation's columns: ``cols[a]`` / ``nulls[a]`` per attnum."""

    cols: list
    nulls: list          # per attnum: bool ndarray, or None for NOT NULL
    n: int
    tids: np.ndarray | None = None   # int64 ctid per row (heap decodes)

    def with_ctid(self) -> "Chunk":
        """This chunk as a ctid scan's kernel reads it: ``tids`` as one
        more NOT NULL column, at index ``natts`` (shares the arrays)."""
        return Chunk(
            self.cols + [self.tids], self.nulls + [None], self.n, self.tids
        )


def _dtype_and_fill(sql_type):
    fmt = sql_type.struct_fmt
    if fmt:
        return _DTYPES[fmt], _FILLS[fmt]
    return object, ""    # CHAR(n) / varchar decode to str


def column_scratch(schema) -> tuple[list[list], list[list | None]]:
    """Empty per-column value lists and null-flag lists (``None`` for
    NOT NULL attributes) — what every column sink appends to."""
    return (
        [[] for _ in schema.attributes],
        [[] if attr.nullable else None for attr in schema.attributes],
    )


def _arrays(schema, col_lists: list, null_lists: list) -> tuple[list, list]:
    """Typed arrays for filled scratch lists: ``(cols, nulls)``.

    The one assembly step behind every chunk, whoever filled the lists
    (the relation bee's column sink, the reference sink, or
    :func:`chunk_from_rows`), so the validated representation is the
    executed one.
    """
    cols = [
        np.array(values, dtype=_dtype_and_fill(attr.sql_type)[0])
        for attr, values in zip(schema.attributes, col_lists)
    ]
    nulls = [
        None if flags is None else np.array(flags, dtype=np.bool_)
        for flags in null_lists
    ]
    return cols, nulls


def _tid_array(tids) -> np.ndarray:
    return np.array(tids, dtype=np.int64)


def chunk_from_rows(schema, rows: list, tids=None) -> Chunk:
    """Transpose schema-ordered *rows* (``None`` = NULL) into a chunk;
    *tids* are the rows' ctids when they have any.

    Shares the array assembly with page decode; the beecheck translation
    validator builds kernel inputs through it.
    """
    natts = schema.natts
    col_lists, null_lists = column_scratch(schema)
    fills = [_dtype_and_fill(attr.sql_type)[1] for attr in schema.attributes]
    for row in rows:
        for a in range(natts):
            value = row[a]
            if value is None:
                col_lists[a].append(fills[a])
                if null_lists[a] is not None:
                    null_lists[a].append(True)
            else:
                col_lists[a].append(value)
                if null_lists[a] is not None:
                    null_lists[a].append(False)
    cols, nulls = _arrays(schema, col_lists, null_lists)
    return Chunk(
        cols, nulls, len(rows), None if tids is None else _tid_array(tids)
    )


def reference_column_sink(layout):
    """The reference page decoder as a column sink.

    ``sink(raws, sections, cols, nulls)`` runs
    :meth:`~repro.storage.layout.TupleLayout.decode` on each raw tuple
    and appends the values to the per-column lists (NULL lanes get the
    type's fill and a ``True`` flag).  The stock path, the relation
    bee's slow path for NULL-bearing tuples, the fallback when its
    column sink is quarantined or faults, and beecheck's oracle.
    """
    decode = layout.decode
    read_bee_id = layout.read_bee_id
    has_beeid = layout.has_beeid
    fills = [
        _dtype_and_fill(attr.sql_type)[1] for attr in layout.schema.attributes
    ]

    def sink(raws, sections, cols, nulls) -> None:
        for raw in raws:
            values, isnull = decode(
                raw, sections[read_bee_id(raw)] if has_beeid else None
            )
            for a, value in enumerate(values):
                null = isnull[a]
                cols[a].append(fills[a] if null else value)
                if nulls[a] is not None:
                    nulls[a].append(null)

    return sink


def _flat(chunk: Chunk) -> list:
    """Every array of *chunk* in one list: columns, null masks (``None``
    for NOT NULL attributes), ``tids``."""
    return [*chunk.cols, *chunk.nulls, chunk.tids]


def freeze_chunk(chunk: Chunk) -> Chunk:
    """Mark every column/null/tid array read-only (in place; returns *chunk*).

    Cached chunks are shared across statements — and, once the morsel
    tier lands, across workers — so the arrays must be immutable after
    insertion.  Kernels never write their inputs (swarmcheck's escape
    pass proves it statically); the writeable flag turns any future
    violation into a hard ``ValueError`` at the write site instead of a
    silent cross-statement corruption.
    """
    for arr in _flat(chunk):
        if arr is not None:
            arr.setflags(write=False)
    return chunk


def _decode(rel, old: "_Entry | None" = None) -> "tuple[_Entry, int, int]":
    """Build *rel*'s chunk: decode its tuples, or only those *old* lacks.

    Heap pages are append-only — a slot is allocated once, at the page's
    end, and a delete only marks it dead — so what *old* does not know
    about a page whose mutation counter moved is exactly two things:
    which of its rows there have *died*, and which live tuples sit in
    slots at or past the slot count it was built at (*births*).  Deaths
    are a mask over the cached rows (``old.chunk.tids`` is sorted, so it
    is also the row -> page -> slot map); births alone go through the
    relation's column sink, one call per page that has any.  Each new
    column is one ``np.concatenate`` of *old*'s runs between dead rows
    and the decoded births, ``tids`` riding along as one more column.
    With no *old* every page is new and every live tuple a birth: one
    run, no splice — the full decode.

    Charges are per page, whatever was decoded: a dirty page costs what
    a first sequential scan pays (buffer access + ``PAGE_ACCESS``) plus
    the transpose work the row tiers never do (``VEC_CHUNK_BUILD`` per
    column, ``VEC_DECODE_PER_VALUE`` per value of every row it now
    holds, kept or born); a clean page costs ``VEC_CHUNK_HIT``, as on a
    cache hit.  Returns the new entry, the number of clean pages and
    the number of tuples decoded.
    """
    schema = rel.layout.schema
    heap = rel.heap
    pages = heap.pages
    sections = rel.sections_list()
    sink = rel.column_sink()
    access = heap.buffer_pool.access
    natts = schema.natts
    page_cost = C.PAGE_ACCESS + C.VEC_CHUNK_BUILD * natts
    row_cost = C.VEC_DECODE_PER_VALUE * natts
    page_versions = list(heap.page_versions)
    npages = len(page_versions)
    if old is None:
        known, old_rows, old_tids = 0, 0, None
        page_slots = [0] * npages
        dirty = range(npages)
    else:
        known, old_rows, old_tids = (
            len(old.page_versions), old.chunk.n, old.chunk.tids
        )
        page_slots = old.page_slots + [0] * (npages - known)
        dirty = [
            *compress(range(known), map(ne, page_versions, old.page_versions)),
            *range(known, npages),
        ]
    # The new chunk's rows, in order, as runs ``(source, lo, hi)`` of
    # *old*'s rows (source 0) and of the births (source 1); ``cursor``
    # is the first of *old*'s rows not yet placed or dropped.
    runs: list[tuple[int, int, int]] = []
    cursor = 0
    col_lists, null_lists = column_scratch(schema)
    tids: list[int] = []
    rows_priced = 0
    for pageno in dirty:
        access(heap.name, pageno, sequential=True)
        page = pages[pageno]
        page_base = pageno << CTID_SLOT_BITS          # pack_tid, inlined
        kept, hi = 0, old_rows       # a new page sits behind every old row
        if pageno < known:
            lo, hi = old_tids.searchsorted(
                (page_base, (pageno + 1) << CTID_SLOT_BITS)
            ).tolist()
            kept = hi - lo
            if kept:
                dead = page.dead_among(old_tids[lo:hi] - page_base)
                for row in (dead.nonzero()[0] + lo).tolist():
                    if row > cursor:
                        runs.append((0, cursor, row))
                    cursor = row + 1
                    kept -= 1
        first_born = len(tids)
        raws = []
        for slot, raw in page.live_tuples(page_slots[pageno]):
            raws.append(raw)
            tids.append(page_base | slot)
        page_slots[pageno] = page.nslots
        if raws:
            sink(raws, sections, col_lists, null_lists)
            if hi > cursor:
                runs.append((0, cursor, hi))
                cursor = hi
            if runs and runs[-1][0]:      # births of consecutive pages
                first_born = runs.pop()[1]
            runs.append((1, first_born, len(tids)))
        rows_priced += kept + len(raws)
    if old_rows > cursor:
        runs.append((0, cursor, old_rows))
    reused = npages - len(dirty)
    heap.ledger.charge(
        page_cost * len(dirty) + row_cost * rows_priced
        + C.VEC_CHUNK_HIT * reused
    )

    chunk = Chunk(
        *_arrays(schema, col_lists, null_lists), len(tids), _tid_array(tids)
    )
    if old is not None and runs:
        spliced = [
            None if born is None else np.concatenate(
                [(cached, born)[source][lo:hi] for source, lo, hi in runs]
            )
            for cached, born in zip(_flat(old.chunk), _flat(chunk))
        ]
        chunk = Chunk(
            spliced[:natts], spliced[natts:-1],
            sum(hi - lo for _source, lo, hi in runs), spliced[-1],
        )
    entry = _Entry(heap.version, rel.layout, chunk, page_versions, page_slots)
    return entry, reused, len(tids)


def decode_relation(rel) -> Chunk:
    """Decode every live tuple of *rel* into one chunk, page at a time.

    Charges mirror a first sequential scan (buffer access + PAGE_ACCESS
    per page) plus the transpose work the row tiers never pay:
    ``VEC_DECODE_PER_VALUE`` per decoded value and ``VEC_CHUNK_BUILD``
    per column per page for array assembly.  The per-tuple work is the
    relation's column sink: the relation bee's generated one when GCL
    is on and healthy, the reference decoder otherwise.
    """
    return _decode(rel)[0].chunk


@dataclass
class _Entry:
    """One cached chunk and what it was built from."""

    version: int          # heap.version at build time
    layout: object        # the TupleLayout *object* decoded under
    chunk: Chunk
    page_versions: list   # heap.page_versions at build time
    page_slots: list      # each page's slot count at build time


class ChunkCache:
    """Small LRU cache of per-relation chunks, maintained slot by slot.

    Keyed by ``HeapFile.uid`` (monotonic, never recycled); an entry
    serves only while the heap's ``version`` and the relation's layout
    object are the ones it was decoded under.  DML bumps the version —
    and the mutation counter of each page it touched, so the refresh
    visits those pages alone, drops the cached rows that died there and
    decodes the tuples born since (:func:`_decode`).  There is no
    threshold: a refresh with no entry to start from *is* the full
    decode.  ALTER/reannotate build a new layout and VACUUM a new heap
    (new ``uid``), so neither is ever patched from an old entry, without
    the cache having to observe DDL.
    """

    def __init__(self, capacity: int = 16, lock=None) -> None:
        self.capacity = capacity
        self._lock = lock if lock is not None else threading.RLock()
        self._entries: OrderedDict[int, _Entry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.pages_decoded = 0
        self.pages_reused = 0
        self.tuples_decoded = 0
        self.rows_reused = 0

    def get(self, rel) -> Chunk:
        """The current chunk for *rel*: cached, or refreshed and cached.

        Runs wholly under the cache's lock (the materialized
        ``chunk_lock`` guard): lookup, validation, LRU maintenance, and
        the decode itself — concurrent readers of a cold relation decode
        it once, not once each, and frozen chunks are shared read-only.
        A refresh that reuses rows is still a miss.
        """
        with self._lock:
            heap = rel.heap
            entry = self._entries.get(heap.uid)
            if entry is not None and entry.layout is not rel.layout:
                entry = None
            if entry is not None and entry.version == heap.version:
                self._entries.move_to_end(heap.uid)
                self.hits += 1
                heap.ledger.charge(C.VEC_CHUNK_HIT * max(1, heap.page_count))
                return entry.chunk
            self.misses += 1
            entry, reused, decoded = _decode(rel, entry)
            freeze_chunk(entry.chunk)
            self.pages_decoded += len(entry.page_versions) - reused
            self.pages_reused += reused
            self.tuples_decoded += decoded
            self.rows_reused += entry.chunk.n - decoded
            self._entries[heap.uid] = entry
            self._entries.move_to_end(heap.uid)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return entry.chunk

    def invalidate(self, uid: int | None = None) -> None:
        """Drop one heap's entry, or everything."""
        with self._lock:
            if uid is None:
                self._entries.clear()
            else:
                self._entries.pop(uid, None)

    def statistics(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "pages_decoded": self.pages_decoded,
                "pages_reused": self.pages_reused,
                "tuples_decoded": self.tuples_decoded,
                "rows_reused": self.rows_reused,
            }
