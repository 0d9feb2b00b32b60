"""Tuple-bee data sections with slab allocation.

Distinct combinations of annotated attribute values are stored once, in a
clustered *data section* store per relation; tuples carry only a 2-byte
beeID.  New sections are found (or created) on insert by comparing the
incoming values against existing sections — the paper's memcmp scan over
"the few (maximally 256) possible values".  Slab allocation pre-carves
section slots in chunks so per-insert allocation stays cheap.
"""

from __future__ import annotations

from repro.cost import constants as C
from repro.cost.ledger import Ledger

SLAB_SIZE = 64
SOFT_CAP = 256


class DataSectionStore:
    """Per-relation store of distinct annotated-value tuples.

    Supports both O(1) lookup (a dict keyed by the value tuple — how a
    production system would memoize) and the charged memcmp-scan cost model
    the paper describes.  ``sections`` is indexable by beeID.
    """

    def __init__(self, relation: str, attr_names: tuple[str, ...]) -> None:
        self.relation = relation
        self.attr_names = attr_names
        self._slabs: list[list[tuple | None]] = []
        self._by_key: dict[tuple, int] = {}
        # ECC-style shadow of every section (sections are the *only*
        # copy of annotated attribute values, read by the generic and
        # bee paths alike); :meth:`scrub` repairs flipped entries from
        # it.  See repro.resilience (the "section-flip" chaos site).
        self._shadow: dict[int, tuple] = {}
        self.count = 0
        self.overflowed = False   # True once the soft cap was exceeded

    def _slab_slot(self, bee_id: int) -> tuple[list, int]:
        return self._slabs[bee_id // SLAB_SIZE], bee_id % SLAB_SIZE

    def get_or_create(self, key: tuple, ledger: Ledger | None = None) -> int:
        """Return the beeID for *key*, creating a new section if needed.

        Charges the memcmp scan (one comparison per existing section, up to
        the match) plus the clone cost when a new section is carved out.
        """
        existing = self._by_key.get(key)
        if existing is not None:
            if ledger is not None:
                # memcmp scan cost up to the hit position.
                ledger.charge_fn(
                    "tuple_bee_lookup", C.TUPLE_BEE_MEMCMP * (existing + 1)
                )
            return existing
        if ledger is not None:
            ledger.charge_fn(
                "tuple_bee_lookup",
                C.TUPLE_BEE_MEMCMP * self.count + C.TUPLE_BEE_CLONE,
            )
        bee_id = self.count
        if bee_id >= 65536:
            raise OverflowError(
                f"relation {self.relation!r} exceeded 65536 tuple bees; "
                "annotated attributes are not low-cardinality"
            )
        if bee_id % SLAB_SIZE == 0:
            self._slabs.append([None] * SLAB_SIZE)   # slab pre-allocation
        slab, slot = self._slab_slot(bee_id)
        slab[slot] = key
        self._by_key[key] = bee_id
        self._shadow[bee_id] = key
        self.count += 1
        if self.count > SOFT_CAP:
            self.overflowed = True
        return bee_id

    def find(self, key: tuple) -> int | None:
        """The beeID of *key* if it has a section; uncharged, creates
        nothing (:meth:`get_or_create` is the charged insert path)."""
        return self._by_key.get(key)

    def get(self, bee_id: int) -> tuple:
        """The value tuple stored in data section *bee_id*."""
        if not 0 <= bee_id < self.count:
            raise IndexError(
                f"beeID {bee_id} out of range for {self.relation!r} "
                f"(count={self.count})"
            )
        slab, slot = self._slab_slot(bee_id)
        value = slab[slot]
        assert value is not None
        return value

    def scrub(self) -> list[int]:
        """Verify every section against its shadow copy, repairing any
        divergence in place; returns the repaired beeIDs.

        Called by beeshield before scans of tuple-bee relations: a
        corrupted section would silently poison results on both the
        specialized and generic read paths, so it is the one fault class
        that must be repaired rather than degraded around.
        """
        repaired: list[int] = []
        for bee_id in range(self.count):
            slab, slot = self._slab_slot(bee_id)
            expected = self._shadow[bee_id]
            if slab[slot] != expected:
                slab[slot] = expected
                repaired.append(bee_id)
        if repaired:
            self._by_key = {
                key: bee_id for bee_id, key in self._shadow.items()
            }
        return repaired

    def as_list(self) -> list[tuple]:
        """All sections as a beeID-indexable list (the hot read path)."""
        out: list[tuple] = []
        for slab in self._slabs:
            for value in slab:
                if value is None:
                    return out
                out.append(value)
        return out

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"DataSectionStore({self.relation}, attrs={list(self.attr_names)}, "
            f"count={self.count})"
        )
