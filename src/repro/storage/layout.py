"""Physical tuple layout: aligned encode/decode with tuple-bee holes.

The on-"disk" tuple format mirrors PostgreSQL's heap tuple:

* header byte 0: infomask (``HAS_NULLS``, ``HAS_BEEID`` flags),
* header byte 1: ``hoff`` — offset of the data area,
* optional 2-byte little-endian beeID (tuple-bee relations),
* optional null bitmap (one bit per *stored* attribute),
* data area, starting at ``hoff`` (8-byte aligned), attributes laid out in
  order with per-type alignment; varlena values are a 4-byte length prefix
  plus payload; NULL values occupy no space.

A :class:`TupleLayout` is built per relation per database.  When tuple bees
are enabled for the relation, annotated attributes are *not stored* in the
tuple at all — their values live in the bee's data section and the stored
beeID selects which (the paper's Section IV-A storage saving, the source of
the cold-cache I/O win in Fig. 5).
"""

from __future__ import annotations

import struct

from repro.catalog.schema import RelationSchema
from repro.catalog.types import align_offset

INFOMASK_HAS_NULLS = 0x01
INFOMASK_HAS_BEEID = 0x02

# Header geometry.  The bee code generators (``repro.bees.routines``) emit
# these as literals into specialized source, and beecheck verifies every
# generated literal against this single source of truth — keep the codec,
# the generators, and the verifier reading from here.
HEADER_INFOMASK_BYTE = 0    # byte 0: infomask flags
HEADER_HOFF_BYTE = 1        # byte 1: hoff (data-area offset)
HEADER_FIXED_BYTES = 2      # infomask + hoff
BEEID_OFFSET = 2            # little-endian uint16 beeID right after them
BEEID_LO_BYTE = BEEID_OFFSET
BEEID_HI_BYTE = BEEID_OFFSET + 1
BEEID_BYTES = 2
VARLENA_HEADER_BYTES = 4    # int32 length prefix of varlena values
HEADER_ALIGN = 8            # hoff is rounded up to this alignment

_BEEID_STRUCT = struct.Struct("<H")
_VARLEN_STRUCT = struct.Struct("<i")

# struct packers per scalar format character
_PACK = {fmt: struct.Struct("<" + fmt) for fmt in ("i", "q", "d", "B")}


class TupleLayout:
    """Encoder/decoder for one relation's physical tuples.

    Args:
        schema: the relation schema.
        bee_attrs: names of attributes hoisted into tuple-bee data sections
            (empty for stock databases and non-annotated relations).
    """

    def __init__(
        self, schema: RelationSchema, bee_attrs: tuple[str, ...] = ()
    ) -> None:
        unknown = [name for name in bee_attrs if name not in schema]
        if unknown:
            raise ValueError(
                f"bee attributes {unknown} not in relation {schema.name!r}"
            )
        self.schema = schema
        self.bee_attrs = tuple(bee_attrs)
        self._bee_set = frozenset(bee_attrs)
        self.stored_attrs = [
            attr for attr in schema.attributes if attr.name not in self._bee_set
        ]
        self.has_beeid = bool(bee_attrs)
        self.stored_nullable = any(attr.nullable for attr in self.stored_attrs)
        # Map bee attr name -> position within the data-section value tuple.
        self.bee_slot = {name: i for i, name in enumerate(self.bee_attrs)}
        # CHAR(n) bee attrs need canonicalization in bee_key: the stored
        # tuple path space-pads and then strips on decode, so the data
        # section must hold the stripped form (and enforce the width the
        # encoder would have enforced) for stock/bee bit-equivalence.
        self._bee_char_attrs = [
            (self.bee_slot[attr.name], attr)
            for attr in schema.attributes
            if attr.name in self._bee_set
            and not attr.sql_type.struct_fmt
            and attr.sql_type.attlen >= 0
        ]
        # Scalar bee attrs never meet the encoder's ``struct.pack``; bee_key
        # packs them once so a value the type cannot hold (a float or an
        # out-of-range int for INT) is refused as the stored path refuses it.
        self._bee_scalar_attrs = [
            (self.bee_slot[attr.name], _PACK[attr.sql_type.struct_fmt].pack)
            for attr in schema.attributes
            if attr.name in self._bee_set and attr.sql_type.struct_fmt
        ]
        # Cacheable offsets within the *stored* data area.
        self._stored_offsets = self._compute_stored_offsets()
        self._bitmap_bytes = (len(self.stored_attrs) + 7) // 8
        # decode's per-attribute metadata, read once per layout instead
        # of per tuple: (attnum, unpack_from or None, BOOL?, attlen,
        # cached offset or -1, attalign).
        self._decode_steps = tuple(
            (
                attr.attnum,
                _PACK[attr.sql_type.struct_fmt].unpack_from
                if attr.sql_type.struct_fmt else None,
                attr.sql_type.struct_fmt == "B",
                attr.sql_type.attlen,
                offset,
                attr.attalign,
            )
            for attr, offset in zip(self.stored_attrs, self._stored_offsets)
        )
        self._bee_targets = tuple(
            (schema.attnum(name), slot) for name, slot in self.bee_slot.items()
        )

    def __reduce__(self):
        # Everything else is derived, and some of it (bound struct
        # methods) does not pickle: a pool worker rebuilds it.
        return TupleLayout, (self.schema, self.bee_attrs)

    def _compute_stored_offsets(self) -> list[int]:
        """Fixed data-area offsets for stored attrs (-1 when not cacheable)."""
        offsets = []
        offset = 0
        known = True
        for attr in self.stored_attrs:
            if known:
                offset = align_offset(offset, attr.attalign)
                offsets.append(offset)
                if attr.attlen >= 0:
                    offset += attr.attlen
                else:
                    known = False
            else:
                offsets.append(-1)
        return offsets

    def stored_offset(self, stored_index: int) -> int:
        """Cacheable data-area offset of the i-th stored attr, or -1."""
        return self._stored_offsets[stored_index]

    def header_size(self, tuple_has_nulls: bool) -> int:
        """Aligned header length (``hoff``) for a tuple."""
        size = HEADER_FIXED_BYTES
        if self.has_beeid:
            size += BEEID_BYTES
        if tuple_has_nulls:
            size += self._bitmap_bytes
        return align_offset(size, HEADER_ALIGN)

    # -- encode ----------------------------------------------------------------

    def encode(
        self,
        values: list,
        isnull: list[bool] | None = None,
        bee_id: int = 0,
    ) -> bytes:
        """Serialize schema-ordered *values* into tuple bytes.

        Bee-resident attributes are skipped (their values are identified by
        *bee_id*).  ``isnull[i]`` marks NULLs; NULL values occupy no storage.
        """
        attrs = self.stored_attrs
        if isnull is None:
            stored_nulls = [False] * len(attrs)
            tuple_has_nulls = False
        else:
            stored_nulls = [isnull[attr.attnum] for attr in attrs]
            tuple_has_nulls = any(stored_nulls)
        hoff = self.header_size(tuple_has_nulls)
        out = bytearray(hoff)
        infomask = 0
        pos = HEADER_FIXED_BYTES
        if self.has_beeid:
            infomask |= INFOMASK_HAS_BEEID
            _BEEID_STRUCT.pack_into(out, pos, bee_id)
            pos += BEEID_BYTES
        if tuple_has_nulls:
            infomask |= INFOMASK_HAS_NULLS
            for i, is_null in enumerate(stored_nulls):
                if is_null:
                    out[pos + (i >> 3)] |= 1 << (i & 7)
        out[HEADER_INFOMASK_BYTE] = infomask
        out[HEADER_HOFF_BYTE] = hoff

        offset = 0
        for i, attr in enumerate(attrs):
            if tuple_has_nulls and stored_nulls[i]:
                continue
            value = values[attr.attnum]
            sql_type = attr.sql_type
            aligned = align_offset(offset, attr.attalign)
            if aligned > offset:
                out.extend(b"\x00" * (aligned - offset))
                offset = aligned
            if sql_type.struct_fmt:
                out.extend(_PACK[sql_type.struct_fmt].pack(value))
                offset += sql_type.attlen
            elif sql_type.attlen >= 0:  # CHAR(n)
                raw = value.encode() if isinstance(value, str) else bytes(value)
                if len(raw) > sql_type.attlen:
                    raise ValueError(
                        f"value too long for {attr.name} "
                        f"({len(raw)} > {sql_type.attlen})"
                    )
                out.extend(raw.ljust(sql_type.attlen, b" "))
                offset += sql_type.attlen
            else:  # varlena
                raw = value.encode() if isinstance(value, str) else bytes(value)
                out.extend(_VARLEN_STRUCT.pack(len(raw)))
                out.extend(raw)
                offset += VARLENA_HEADER_BYTES + len(raw)
        return bytes(out)

    # -- decode ----------------------------------------------------------------

    def decode(
        self, raw: bytes, bee_values: tuple | None = None
    ) -> tuple[list, list[bool]]:
        """Deserialize tuple bytes into schema-ordered values and null flags.

        *bee_values* supplies the data-section values for bee-resident
        attributes (in :attr:`bee_attrs` order); pass None for stock tuples.
        This is the reference decoder — the generic ``slot_deform_tuple``
        and the generated GCL routines must agree with it bit for bit.

        Like PostgreSQL's ``attcacheoff``, an attribute before the first
        varlena of a tuple without NULLs is read at its cached offset;
        the others realign the running offset.
        """
        natts = self.schema.natts
        values: list = [None] * natts
        isnull = [False] * natts
        infomask = raw[HEADER_INFOMASK_BYTE]
        hoff = raw[HEADER_HOFF_BYTE]
        pos = HEADER_FIXED_BYTES
        if infomask & INFOMASK_HAS_BEEID:
            pos += BEEID_BYTES
        has_nulls = bool(infomask & INFOMASK_HAS_NULLS)
        bitmap_start = pos

        offset = hoff
        for i, (attnum, unpack, is_bool, attlen, cached, align) in enumerate(
            self._decode_steps
        ):
            if has_nulls:
                if raw[bitmap_start + (i >> 3)] & (1 << (i & 7)):
                    isnull[attnum] = True
                    continue
                offset = (offset + align - 1) & -align
            elif cached >= 0:
                offset = hoff + cached
            else:
                offset = (offset + align - 1) & -align
            if unpack is not None:
                (value,) = unpack(raw, offset)
                if is_bool:
                    value = bool(value)
                offset += attlen
            elif attlen >= 0:
                # CHAR(n): trailing pad spaces are insignificant in SQL.
                value = raw[offset : offset + attlen].decode().rstrip(" ")
                offset += attlen
            else:
                (length,) = _VARLEN_STRUCT.unpack_from(raw, offset)
                start = offset + VARLENA_HEADER_BYTES
                value = raw[start : start + length].decode()
                offset += VARLENA_HEADER_BYTES + length
            values[attnum] = value

        if self._bee_targets:
            if bee_values is None:
                raise ValueError(
                    f"tuple of {self.schema.name!r} needs data-section values"
                )
            for attnum, slot in self._bee_targets:
                values[attnum] = bee_values[slot]
        return values, isnull

    def read_bee_id(self, raw: bytes) -> int:
        """Extract the stored beeID (valid only for tuple-bee layouts)."""
        if not raw[HEADER_INFOMASK_BYTE] & INFOMASK_HAS_BEEID:
            raise ValueError("tuple has no beeID")
        return _BEEID_STRUCT.unpack_from(raw, BEEID_OFFSET)[0]

    def bee_key(self, values: list) -> tuple:
        """Extract the data-section key (annotated values) from a row.

        CHAR(n) values are canonicalized exactly as the stored-tuple path
        would round-trip them (width-checked, trailing pad spaces stripped)
        so a bee-enabled database is value-identical to a stock one, and a
        scalar value its type cannot hold raises what encoding it would
        (``struct.error``).
        """
        schema = self.schema
        key = [values[schema.attnum(name)] for name in self.bee_attrs]
        for slot, pack in self._bee_scalar_attrs:
            if key[slot] is not None:
                pack(key[slot])
        for slot, attr in self._bee_char_attrs:
            value = key[slot]
            if not isinstance(value, str):
                continue
            raw_len = len(value.encode())
            if raw_len > attr.sql_type.attlen:
                raise ValueError(
                    f"value too long for {attr.name} "
                    f"({raw_len} > {attr.sql_type.attlen})"
                )
            key[slot] = value.rstrip(" ")
        return tuple(key)

    def __repr__(self) -> str:
        return (
            f"TupleLayout({self.schema.name}, stored={len(self.stored_attrs)}, "
            f"bee={list(self.bee_attrs)})"
        )
