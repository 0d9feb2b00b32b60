"""Outcome capture and normalization for differential comparison.

Every statement execution is reduced to an *outcome* triple the runner can
compare across engines:

* ``("rows", [...])`` — a SELECT's result rows,
* ``("status", "INSERT 3")`` — a DML/DDL completion tag,
* ``("error", "ValueError")`` — the exception *type name*.  Only the type
  is compared: the generic fill and a specialized bee raise the same
  exception class on bad input but with different messages (one from
  ``struct.pack``'s batched pack, one per attribute), and that wording
  difference is not a correctness divergence.

Row comparison tags each value with its type name so Python's cross-type
equalities (``True == 1 == 1.0``) cannot mask a divergence where one
engine returns an int and the other a float or bool.  Unordered results
compare as multisets; ORDER BY results compare as lists.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.sql.parser import parse
from repro.sql.session import execute_statement

Outcome = tuple  # ("rows", list[tuple]) | ("status", str) | ("error", str)


def run_statement(db, sql: str, bees=None) -> Outcome:
    """Execute *sql* on *db* through ``db.sql`` — the statement front
    door, so a shape seen before is served from its query bee — and
    capture the outcome (never raises).  *bees* is ``db.sql``'s
    per-statement toggle: ``False`` or an explicit :class:`BeeSettings`
    point."""
    return _outcome(lambda: db.sql(sql, bees=bees))


def run_adhoc(db, sql: str) -> Outcome:
    """Execute *sql* on *db* the ad hoc way — parse, plan, run; the
    query-bee cache neither consulted nor filled — and capture the
    outcome: the reference a cache-served statement is compared to."""
    return _outcome(lambda: execute_statement(db, parse(sql)))


def _outcome(execute) -> Outcome:
    try:
        result = execute()
    except Exception as exc:  # noqa: BLE001 — the comparison IS the handler
        return ("error", type(exc).__name__)
    if result.status.startswith("SELECT") or result.status == "EXPLAIN":
        return ("rows", [tuple(row) for row in result.rows])
    return ("status", result.status)


def tag_row(row: tuple) -> tuple:
    """Make a row comparable without cross-type equality surprises."""
    return tuple((type(v).__name__, v) for v in row)


def rows_equal(a: list[tuple], b: list[tuple], ordered: bool) -> bool:
    if len(a) != len(b):
        return False
    if ordered:
        return [tag_row(r) for r in a] == [tag_row(r) for r in b]
    return Counter(map(tag_row, a)) == Counter(map(tag_row, b))


def outcomes_equal(a: Outcome, b: Outcome, ordered: bool = False) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "rows":
        return rows_equal(a[1], b[1], ordered)
    return a[1] == b[1]


def sorted_canonical(rows: list[tuple]) -> list[tuple]:
    """Rows in a canonical order, insensitive to batch interleaving.

    The sort key rounds floats to nine significant digits so values
    that differ only in the last ulps (re-associated parallel partial
    sums) land in the same position on both sides; everything else
    sorts by its tagged repr.
    """

    def key(row: tuple) -> str:
        return repr(
            tuple(
                ("float", float(f"{v:.9g}")) if isinstance(v, float)
                else (type(v).__name__, v)
                for v in row
            )
        )

    return sorted(rows, key=key)


def _value_equivalent(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
    return a == b


def rows_equivalent(a: list[tuple], b: list[tuple]) -> bool:
    """Order-insensitive, float-tolerant row comparison.

    The comparator for any lane where batches may interleave and float
    aggregates re-associate (the parallel tier): rows are canonically
    sorted, then matched pairwise with exact equality on every value
    except floats, which compare via ``math.isclose`` (rel 1e-9,
    abs 1e-6) — type tags still apply, so an int/float flip is caught.
    """
    if len(a) != len(b):
        return False
    for ra, rb in zip(sorted_canonical(a), sorted_canonical(b)):
        if len(ra) != len(rb):
            return False
        if not all(_value_equivalent(u, v) for u, v in zip(ra, rb)):
            return False
    return True


def outcomes_equivalent(a: Outcome, b: Outcome) -> bool:
    """Like :func:`outcomes_equal` but with :func:`rows_equivalent` rows."""
    if a[0] != b[0]:
        return False
    if a[0] == "rows":
        return rows_equivalent(a[1], b[1])
    return a[1] == b[1]


def describe_outcome(outcome: Outcome, limit: int = 6) -> str:
    """Short human-readable rendering for divergence reports."""
    kind, payload = outcome
    if kind != "rows":
        return f"{kind}: {payload}"
    rows = payload
    shown = ", ".join(repr(r) for r in rows[:limit])
    suffix = f", … ({len(rows)} rows)" if len(rows) > limit else ""
    return f"rows[{len(rows)}]: {shown}{suffix}"


def canonical(outcome: Outcome) -> str:
    """Stable text form of an outcome, for the corpus fingerprint.

    Row order is canonicalized by sorting tagged reprs, so the fingerprint
    is insensitive to incidental iteration order but still pins every
    value (and its type) the stock engine produced.
    """
    kind, payload = outcome
    if kind != "rows":
        return f"{kind}|{payload}"
    parts = sorted(repr(tag_row(r)) for r in payload)
    return "rows|" + "|".join(parts)
