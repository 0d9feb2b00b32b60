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
asymmetry comes from.  After a write, the entry is *patched*: only the
pages whose per-page mutation counter moved are decoded again, the rest
are slices of the arrays already held (:func:`_decode`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import groupby

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


def freeze_chunk(chunk: Chunk) -> Chunk:
    """Mark every column/null/tid array read-only (in place; returns *chunk*).

    Cached chunks are shared across statements — and, once the morsel
    tier lands, across workers — so the arrays must be immutable after
    insertion.  Kernels never write their inputs (swarmcheck's escape
    pass proves it statically); the writeable flag turns any future
    violation into a hard ``ValueError`` at the write site instead of a
    silent cross-statement corruption.
    """
    for arr in (*chunk.cols, *chunk.nulls, chunk.tids):
        if arr is not None:
            arr.setflags(write=False)
    return chunk


def _decode(rel, old: "_Entry | None" = None) -> "tuple[_Entry, int]":
    """Build *rel*'s chunk: decode its pages, or only those *old* lacks.

    A page whose mutation counter equals the one *old* was built under
    holds the tuples it held then, so its rows are a slice of *old*'s
    frozen arrays; every other page (dirty or new) is decoded through
    the relation's column sink.  Consecutive clean pages become one
    slice and consecutive dirty pages one array, and the pieces are
    spliced with a single ``np.concatenate`` per column — ``tids``, built
    from each decoded tuple's ``(pageno, slot)``, rides along as one
    more column.  With no *old* every page is dirty: one piece, no
    splice — the full decode.

    Charges: a decoded page costs what a first sequential scan pays
    (buffer access + ``PAGE_ACCESS``) plus the transpose work the row
    tiers never do (``VEC_CHUNK_BUILD`` per column,
    ``VEC_DECODE_PER_VALUE`` per value); a reused page costs
    ``VEC_CHUNK_HIT``, as on a cache hit.  Returns the new entry and the
    number of pages it reused.
    """
    schema = rel.layout.schema
    heap = rel.heap
    sections = rel.sections_list()
    sink = rel.column_sink()
    access = heap.buffer_pool.access
    charge = heap.ledger.charge
    natts = schema.natts
    page_versions = list(heap.page_versions)
    old_versions = old.page_versions if old is not None else ()
    clean = [
        p < len(old_versions) and old_versions[p] == version
        for p, version in enumerate(page_versions)
    ]
    offsets = [0]
    pieces: list[tuple[list, list, np.ndarray]] = []
    rows = 0
    for reuse, run in groupby(range(len(clean)), key=clean.__getitem__):
        if reuse:
            pages = list(run)
            lo, hi = old.offsets[pages[0]], old.offsets[pages[-1] + 1]
            pieces.append((
                [col[lo:hi] for col in old.chunk.cols],
                [None if m is None else m[lo:hi] for m in old.chunk.nulls],
                old.chunk.tids[lo:hi],
            ))
            offsets.extend(rows + old.offsets[p + 1] - lo for p in pages)
            rows += hi - lo
            continue
        col_lists, null_lists = column_scratch(schema)
        tids: list[int] = []
        for pageno in run:
            access(heap.name, pageno, sequential=True)
            charge(C.PAGE_ACCESS + C.VEC_CHUNK_BUILD * natts)
            raws = []
            page_base = pageno << CTID_SLOT_BITS      # pack_tid, inlined
            for slot, raw in heap.pages[pageno].live_tuples():
                raws.append(raw)
                tids.append(page_base | slot)
            sink(raws, sections, col_lists, null_lists)
            charge(C.VEC_DECODE_PER_VALUE * natts * len(raws))
            rows += len(raws)
            offsets.append(rows)
        pieces.append(
            (*_arrays(schema, col_lists, null_lists), _tid_array(tids))
        )
    reused = sum(clean)
    if reused:
        charge(C.VEC_CHUNK_HIT * reused)

    if not pieces:      # no pages at all
        pieces.append(
            (*_arrays(schema, *column_scratch(schema)), _tid_array([]))
        )
    if len(pieces) == 1:
        cols, nulls, tid_array = pieces[0]
    else:
        cols = [np.concatenate([p[0][a] for p in pieces]) for a in range(natts)]
        nulls = [
            None if mask is None
            else np.concatenate([p[1][a] for p in pieces])
            for a, mask in enumerate(pieces[0][1])
        ]
        tid_array = np.concatenate([p[2] for p in pieces])
    entry = _Entry(
        heap.version, rel.layout, Chunk(cols, nulls, rows, tid_array),
        page_versions, offsets,
    )
    return entry, reused


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
    offsets: list         # row offset of each page's first tuple, + total


class ChunkCache:
    """Small LRU cache of per-relation chunks, maintained page by page.

    Keyed by ``HeapFile.uid`` (monotonic, never recycled); an entry
    serves only while the heap's ``version`` and the relation's layout
    object are the ones it was decoded under.  DML bumps the version —
    and the mutation counter of each page it touched, so the refresh
    re-decodes those pages alone and splices them into the retained
    arrays (:func:`_decode`).  There is no threshold: a refresh that
    finds every page dirty *is* the full decode.  ALTER/reannotate build
    a new layout and VACUUM a new heap (new ``uid``), so neither is ever
    patched from an old entry, without the cache having to observe DDL.
    """

    def __init__(self, capacity: int = 16, lock=None) -> None:
        self.capacity = capacity
        self._lock = lock if lock is not None else threading.RLock()
        self._entries: OrderedDict[int, _Entry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.pages_decoded = 0
        self.pages_reused = 0

    def get(self, rel) -> Chunk:
        """The current chunk for *rel*: cached, or refreshed and cached.

        Runs wholly under the cache's lock (the materialized
        ``chunk_lock`` guard): lookup, validation, LRU maintenance, and
        the decode itself — concurrent readers of a cold relation decode
        it once, not once each, and frozen chunks are shared read-only.
        A refresh that reuses pages is still a miss.
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
            entry, reused = _decode(rel, entry)
            freeze_chunk(entry.chunk)
            self.pages_decoded += len(entry.page_versions) - reused
            self.pages_reused += reused
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
            }
