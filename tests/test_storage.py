"""Tests for pages, heap files, and the buffer pool."""

import numpy as np
import pytest

from repro.cost import Ledger
from repro.storage import BufferPool, HeapFile, HeapPage, PageFullError, PAGE_SIZE
from repro.storage.heapfile import TID


class TestHeapPage:
    def test_insert_and_read(self):
        page = HeapPage()
        slot = page.insert(b"hello tuple")
        assert page.read(slot) == b"hello tuple"

    def test_multiple_slots(self):
        page = HeapPage()
        slots = [page.insert(f"tuple-{i}".encode()) for i in range(10)]
        assert slots == list(range(10))
        for i, slot in enumerate(slots):
            assert page.read(slot) == f"tuple-{i}".encode()

    def test_free_space_decreases(self):
        page = HeapPage()
        before = page.free_space
        page.insert(b"x" * 100)
        assert page.free_space < before - 100

    def test_page_full(self):
        page = HeapPage()
        with pytest.raises(PageFullError):
            page.insert(b"x" * PAGE_SIZE)

    def test_fills_until_full(self):
        page = HeapPage()
        count = 0
        tuple_bytes = b"y" * 100
        try:
            while True:
                page.insert(tuple_bytes)
                count += 1
        except PageFullError:
            pass
        assert 70 <= count <= 80   # (8192 - 8) / (100 + 4)

    def test_delete_marks_dead(self):
        page = HeapPage()
        slot = page.insert(b"doomed")
        page.delete(slot)
        assert not page.is_live(slot)
        with pytest.raises(LookupError):
            page.read(slot)

    def test_live_tuples_skips_dead(self):
        page = HeapPage()
        keep = page.insert(b"keep")
        kill = page.insert(b"kill")
        page.delete(kill)
        assert [(slot, raw) for slot, raw in page.live_tuples()] == [
            (keep, b"keep")
        ]

    def test_live_tuples_from_a_slot(self):
        page = HeapPage()
        slots = [page.insert(bytes([65 + i])) for i in range(5)]
        page.delete(slots[3])
        assert list(page.live_tuples(2)) == [(2, b"C"), (4, b"E")]
        assert list(page.live_tuples(5)) == []

    def test_dead_among(self):
        page = HeapPage()
        slots = [page.insert(b"t%d" % i) for i in range(6)]
        page.delete(slots[1])
        page.delete(slots[4])
        dead = page.dead_among(np.array([0, 1, 4, 5]))
        assert dead.tolist() == [False, True, True, False]
        assert dead.base is None                # no view of page.data left
        page.insert(b"later")                   # the buffer is not pinned
        assert page.dead_among(np.array([], dtype=np.int64)).tolist() == []

    def test_out_of_range_slot(self):
        page = HeapPage()
        with pytest.raises(IndexError):
            page.read(0)
        with pytest.raises(IndexError):
            page.delete(5)

    def test_empty_tuple_rejected(self):
        with pytest.raises(ValueError):
            HeapPage().insert(b"")


@pytest.fixture
def heap():
    ledger = Ledger()
    pool = BufferPool(ledger, capacity_pages=64)
    return HeapFile("t", ledger, pool), ledger, pool


class TestHeapFile:
    def test_insert_returns_tids(self, heap):
        hf, _, _ = heap
        tids = [hf.insert(f"row{i}".encode()) for i in range(5)]
        assert all(isinstance(t, TID) for t in tids)
        assert hf.live_count == 5

    def test_spills_to_new_pages(self, heap):
        hf, _, _ = heap
        for i in range(200):
            hf.insert(b"z" * 200)
        assert hf.page_count > 1
        assert hf.size_bytes() == hf.page_count * PAGE_SIZE

    def test_scan_returns_all_live(self, heap):
        hf, _, _ = heap
        rows = {hf.insert(f"r{i}".encode()): f"r{i}".encode() for i in range(50)}
        scanned = dict(hf.scan())
        assert scanned == rows

    def test_fetch(self, heap):
        hf, _, _ = heap
        tid = hf.insert(b"target")
        assert hf.fetch(tid) == b"target"

    def test_delete_and_update(self, heap):
        hf, _, _ = heap
        tid = hf.insert(b"old")
        new_tid = hf.update(tid, b"new")
        assert hf.fetch(new_tid) == b"new"
        assert hf.live_count == 1
        with pytest.raises(LookupError):
            hf.fetch(tid)

    def test_scan_charges_page_costs(self, heap):
        hf, ledger, _ = heap
        hf.insert(b"a")
        before = ledger.total
        list(hf.scan())
        assert ledger.total > before


class TestBufferPool:
    def test_miss_then_hit(self):
        ledger = Ledger()
        pool = BufferPool(ledger, capacity_pages=4)
        assert pool.access("r", 0) is False      # miss
        assert ledger.seq_pages_read == 1
        assert pool.access("r", 0) is True       # hit
        assert ledger.pages_hit == 1

    def test_lru_eviction(self):
        ledger = Ledger()
        pool = BufferPool(ledger, capacity_pages=2)
        pool.access("r", 0)
        pool.access("r", 1)
        pool.access("r", 2)          # evicts page 0
        assert pool.access("r", 1) is True
        assert pool.access("r", 0) is False      # was evicted

    def test_lru_touch_refreshes(self):
        ledger = Ledger()
        pool = BufferPool(ledger, capacity_pages=2)
        pool.access("r", 0)
        pool.access("r", 1)
        pool.access("r", 0)          # refresh page 0
        pool.access("r", 2)          # evicts page 1 now
        assert pool.access("r", 0) is True

    def test_random_read_classified(self):
        ledger = Ledger()
        pool = BufferPool(ledger, capacity_pages=4)
        pool.access("r", 3, sequential=False)
        assert ledger.rand_pages_read == 1
        assert ledger.seq_pages_read == 0

    def test_warm_and_clear(self):
        ledger = Ledger()
        pool = BufferPool(ledger, capacity_pages=64)
        pool.warm("r", 10)
        assert pool.resident_pages == 10
        assert pool.access("r", 5) is True
        pool.clear()
        assert pool.resident_pages == 0
        assert pool.access("r", 5) is False

    def test_invalidate_relation(self):
        ledger = Ledger()
        pool = BufferPool(ledger, capacity_pages=64)
        pool.warm("a", 5)
        pool.warm("b", 5)
        pool.invalidate_relation("a")
        assert pool.access("a", 0) is False
        assert pool.access("b", 0) is True

    def test_install_does_not_charge(self):
        ledger = Ledger()
        pool = BufferPool(ledger, capacity_pages=4)
        pool.install("r", 0)
        assert ledger.seq_pages_read == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BufferPool(Ledger(), capacity_pages=0)
