"""Slotted 8KB heap pages.

Pages follow the classic slotted layout: a header, a line-pointer array
growing downward from the header, and tuple data growing upward from the
end.  Tuples never span pages; a tuple larger than the usable page area is
rejected (the engine has no TOAST).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.cost import constants

PAGE_SIZE = constants.PAGE_SIZE
_HEADER_SIZE = 8            # lower(2), upper(2), nslots(2), flags(2)
_LINE_POINTER = struct.Struct("<HH")   # offset, length (length 0 == dead)


class PageFullError(Exception):
    """Raised when a tuple does not fit in the page's free space."""


class HeapPage:
    """One slotted heap page holding raw tuple bytes."""

    __slots__ = ("data", "nslots", "lower", "upper")

    def __init__(self) -> None:
        self.data = bytearray(PAGE_SIZE)
        self.nslots = 0
        self.lower = _HEADER_SIZE
        self.upper = PAGE_SIZE

    @property
    def free_space(self) -> int:
        """Bytes available for one more tuple plus its line pointer."""
        return max(0, self.upper - self.lower - _LINE_POINTER.size)

    def insert(self, tuple_bytes: bytes) -> int:
        """Store *tuple_bytes*; returns the slot number.

        Raises :class:`PageFullError` when the tuple does not fit.
        """
        length = len(tuple_bytes)
        if length == 0:
            raise ValueError("cannot store an empty tuple")
        if length + _LINE_POINTER.size > self.upper - self.lower:
            raise PageFullError(
                f"tuple of {length} bytes does not fit "
                f"(free={self.upper - self.lower})"
            )
        self.upper -= length
        self.data[self.upper : self.upper + length] = tuple_bytes
        _LINE_POINTER.pack_into(self.data, self.lower, self.upper, length)
        self.lower += _LINE_POINTER.size
        slot = self.nslots
        self.nslots += 1
        return slot

    def read(self, slot: int) -> bytes:
        """Return the tuple bytes stored in *slot*.

        Raises IndexError for out-of-range slots and LookupError for
        deleted slots.
        """
        if not 0 <= slot < self.nslots:
            raise IndexError(f"slot {slot} out of range (nslots={self.nslots})")
        offset, length = _LINE_POINTER.unpack_from(
            self.data, _HEADER_SIZE + slot * _LINE_POINTER.size
        )
        if length == 0:
            raise LookupError(f"slot {slot} is dead")
        return bytes(self.data[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Mark *slot* dead (space is not reclaimed; no VACUUM here)."""
        if not 0 <= slot < self.nslots:
            raise IndexError(f"slot {slot} out of range (nslots={self.nslots})")
        pointer_pos = _HEADER_SIZE + slot * _LINE_POINTER.size
        offset, _length = _LINE_POINTER.unpack_from(self.data, pointer_pos)
        _LINE_POINTER.pack_into(self.data, pointer_pos, offset, 0)

    def is_live(self, slot: int) -> bool:
        """True when *slot* holds a live (non-deleted) tuple."""
        if not 0 <= slot < self.nslots:
            return False
        _offset, length = _LINE_POINTER.unpack_from(
            self.data, _HEADER_SIZE + slot * _LINE_POINTER.size
        )
        return length > 0

    def live_tuples(self, start: int = 0):
        """Yield ``(slot, tuple_bytes)`` for every live tuple on the page
        in slot *start* or later."""
        data = self.data
        base = _HEADER_SIZE
        for slot in range(start, self.nslots):
            offset, length = _LINE_POINTER.unpack_from(
                data, base + slot * _LINE_POINTER.size
            )
            if length:
                yield slot, bytes(data[offset : offset + length])

    def dead_among(self, slots: np.ndarray) -> np.ndarray:
        """Boolean mask over *slots* (an integer array of allocated slot
        numbers): True where the slot's tuple has been deleted.

        One vectorised read of the line pointers' lengths.  The view of
        ``data`` (a live ``bytearray``) does not outlive the call: the
        fancy index copies.
        """
        lengths = np.frombuffer(
            self.data, dtype="<u2", count=2 * self.nslots, offset=_HEADER_SIZE
        )[1::2]
        return lengths[slots] == 0
