"""Heap files: the paged storage behind each relation."""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.cost import constants
from repro.cost.ledger import Ledger
from repro.storage.buffer import BufferPool
from repro.storage.page import HeapPage, PageFullError


class TID(NamedTuple):
    """Tuple identifier: (page number, slot number)."""

    pageno: int
    slot: int


#: A *ctid* is a TID packed into one int — ``pageno << CTID_SLOT_BITS |
#: slot`` — so a scan can carry it as an ordinary NOT NULL integer
#: column (an int64 lane in the vector tier's chunks).  A page holds at
#: most ``PAGE_SIZE / 4`` line pointers, far below ``2 ** 16`` slots.
CTID_SLOT_BITS = 16


def pack_tid(pageno: int, slot: int) -> int:
    """The ctid of tuple ``(pageno, slot)``."""
    return pageno << CTID_SLOT_BITS | slot


def unpack_tid(ctid: int) -> TID:
    """The :class:`TID` a ctid names (inverse of :func:`pack_tid`)."""
    return TID(ctid >> CTID_SLOT_BITS, ctid & ((1 << CTID_SLOT_BITS) - 1))


class HeapFile:
    """A relation's pages, with charged access through the buffer pool."""

    #: Monotonic instance counter: ``uid`` keys derived caches (the vector
    #: tier's chunk cache) without the id()-recycling hazard.
    _next_uid = 0

    def __init__(self, name: str, ledger: Ledger, buffer_pool: BufferPool) -> None:
        self.name = name
        self.ledger = ledger
        self.buffer_pool = buffer_pool
        self.pages: list[HeapPage] = []
        self.live_count = 0
        HeapFile._next_uid += 1
        self.uid = HeapFile._next_uid
        #: Bumped on every mutation; derived caches validate against it.
        self.version = 0
        #: Per-page mutation counters, parallel to ``pages``: a cache that
        #: remembers the counters it was built from can tell which pages
        #: a ``version`` bump actually touched (pages are append-only and
        #: the counters only grow, so equal counter means same contents).
        self.page_versions: list[int] = []

    # -- modification ----------------------------------------------------------

    def insert(self, tuple_bytes: bytes) -> TID:
        """Append a tuple (filling the last page first); returns its TID."""
        if not self.pages:
            self.pages.append(HeapPage())
            self.page_versions.append(0)
            self.buffer_pool.install(self.name, 0)
        pageno = len(self.pages) - 1
        try:
            slot = self.pages[pageno].insert(tuple_bytes)
        except PageFullError:
            self.pages.append(HeapPage())
            self.page_versions.append(0)
            pageno += 1
            self.buffer_pool.install(self.name, pageno)
            slot = self.pages[pageno].insert(tuple_bytes)
        self.live_count += 1
        self.version += 1
        self.page_versions[pageno] += 1
        return TID(pageno, slot)

    def delete(self, tid: TID) -> None:
        """Mark the tuple at *tid* dead."""
        self.pages[tid.pageno].delete(tid.slot)
        self.live_count -= 1
        self.version += 1
        self.page_versions[tid.pageno] += 1

    def update(self, tid: TID, tuple_bytes: bytes) -> TID:
        """Delete the old version and insert the new one (append-style)."""
        self.delete(tid)
        return self.insert(tuple_bytes)

    # -- access ----------------------------------------------------------------

    def fetch(self, tid: TID, sequential: bool = False) -> bytes:
        """Read one tuple by TID, charging buffer access + page cost."""
        self.buffer_pool.access(self.name, tid.pageno, sequential=sequential)
        self.ledger.charge(constants.PAGE_ACCESS)
        return self.pages[tid.pageno].read(tid.slot)

    def scan(self) -> Iterator[tuple[TID, bytes]]:
        """Sequentially yield ``(tid, tuple_bytes)`` for live tuples.

        Charges one buffer access + PAGE_ACCESS per visited page; per-tuple
        costs (``heap_getnext``) are charged by the SeqScan executor node.
        """
        access = self.buffer_pool.access
        charge = self.ledger.charge
        name = self.name
        for pageno, page in enumerate(self.pages):
            access(name, pageno, sequential=True)
            charge(constants.PAGE_ACCESS)
            for slot, raw in page.live_tuples():
                yield TID(pageno, slot), raw

    @property
    def page_count(self) -> int:
        """Number of allocated pages (the relation's footprint)."""
        return len(self.pages)

    def size_bytes(self) -> int:
        """Total storage footprint in bytes."""
        return self.page_count * constants.PAGE_SIZE
