"""SQL type system with physical-layout metadata.

Each type carries the catalog attributes micro-specialization keys on:
``attlen`` (fixed byte width, or -1 for varlena), ``attalign`` (physical
alignment), and whether the value is passed by value.  The set mirrors what
the TPC-H / TPC-C schemas need from PostgreSQL: int4, int8, float8 (standing
in for NUMERIC), bool, date (days since 1970-01-01 as int4), fixed CHAR(n),
and varlena VARCHAR(n)/TEXT.
"""

from __future__ import annotations

import datetime
import struct
from dataclasses import dataclass

_EPOCH = datetime.date(1970, 1, 1)


@dataclass(frozen=True)
class SQLType:
    """A SQL data type and its physical storage properties.

    Attributes:
        name: SQL-ish display name (``int4``, ``varchar(55)``, ...).
        attlen: fixed storage width in bytes, or -1 for varlena types.
        attalign: required byte alignment of the stored value.
        byval: True when the value fits in a register (pass-by-value).
        struct_fmt: ``struct`` format character for fixed scalar types,
            empty for CHAR(n)/varlena.
    """

    name: str
    attlen: int
    attalign: int
    byval: bool
    struct_fmt: str = ""

    @property
    def is_varlena(self) -> bool:
        """True for variable-length (varlena) types such as varchar."""
        return self.attlen == -1

    def __repr__(self) -> str:
        return f"SQLType({self.name})"


INT4 = SQLType("int4", 4, 4, True, "i")
INT8 = SQLType("int8", 8, 8, True, "q")
FLOAT8 = SQLType("float8", 8, 8, True, "d")
BOOL = SQLType("bool", 1, 1, True, "B")
DATE = SQLType("date", 4, 4, True, "i")


def char(n: int) -> SQLType:
    """Fixed-width CHAR(n): stored as exactly *n* bytes, space padded."""
    if n < 1:
        raise ValueError(f"char width must be >= 1, got {n}")
    return SQLType(f"char({n})", n, 1, False)


def varchar(n: int) -> SQLType:
    """Variable-width VARCHAR(n): stored as a 4-byte length + payload."""
    if n < 1:
        raise ValueError(f"varchar width must be >= 1, got {n}")
    return SQLType(f"varchar({n})", -1, 4, False)


TEXT = SQLType("text", -1, 4, False)

# NUMERIC in TPC-H is modelled as float8; keep a distinct display name so
# schemas read like the spec while sharing float8's physical behaviour.
NUMERIC = SQLType("numeric", 8, 8, True, "d")


def date_to_days(value: datetime.date) -> int:
    """Convert a date to its stored representation (days since epoch)."""
    return (value - _EPOCH).days


def days_to_date(days: int) -> datetime.date:
    """Convert a stored day count back to a date."""
    return _EPOCH + datetime.timedelta(days=days)


def align_offset(offset: int, alignment: int) -> int:
    """Round *offset* up to the next multiple of *alignment*.

    This is PostgreSQL's ``att_align_nominal``.  A layout computes its
    cached offsets (``attcacheoff``) with it once; the generic decode
    realigns inline only past the first varlena or in a tuple with
    NULLs, and specialized bees fold it into constants.
    """
    return (offset + alignment - 1) & ~(alignment - 1)


_STRUCTS: dict[str, struct.Struct] = {
    fmt: struct.Struct("<" + fmt) for fmt in ("i", "q", "d", "B")
}


def scalar_struct(sql_type: SQLType) -> struct.Struct:
    """Return the cached ``struct.Struct`` for a fixed scalar type."""
    if not sql_type.struct_fmt:
        raise ValueError(f"{sql_type.name} is not a scalar struct type")
    return _STRUCTS[sql_type.struct_fmt]
