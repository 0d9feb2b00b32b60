"""Translation validation: specialized vs generic over enumerated tuples.

The lint/absint/costaudit passes prove the generated *source* well
formed; this lane validates the *translation* — the compiled routine is
executed against the generic reference path over an exhaustively
enumerated small-domain input set per layout:

* GCL vs ``layout.decode`` (+ NULL materialization) on encoded tuples,
  including null-bitmap tuples that must take the slow path and
  tuple-bee layouts with live data sections;
* SCL vs ``layout.encode``, byte for byte, including the error contract
  (an over-width ``CHAR(n)`` raises the same ``ValueError`` on both
  sides);
* EVP vs ``Expr.evaluate`` (the generic ``ExecQual``) over rows built
  from the predicate's own constants (plus perturbations and NULLs for
  the guarded variant).

Inputs are deterministic: one-hot sweeps (each attribute takes each of
its domain values while the others hold a default) plus co-prime strided
diagonals, capped at :data:`MAX_TUPLES` per routine.  Because compiled
bees charge the owning database's ledger when invoked, every execution
here runs under a guard that snapshots and restores the ledger — the
verification must be invisible to cost accounting.

This is also the lane that catches *runtime* tampering the static
passes cannot see (a wrapped ``fn`` whose source still looks pristine) —
exactly what the oracle's ``inject_bug`` self-test produces.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from repro.storage.heapfile import pack_tid
from repro.storage.layout import TupleLayout

#: Per-routine cap on enumerated inputs.
MAX_TUPLES = 300

#: Cap on reported findings per routine (one bad generator would
#: otherwise report every enumerated tuple).
MAX_FINDINGS = 5

#: beeID used for tuple-bee layouts — both bytes non-zero, so a routine
#: reading only the low byte cannot pass by accident.
_BEE_ID = 0x0102


# -- ledger isolation --------------------------------------------------------


@contextmanager
def ledger_guard(routine):
    """Run *routine* (and its slow path) without perturbing its ledger."""
    charge = (routine.namespace or {}).get("_charge")
    ledger = getattr(charge, "__self__", None)
    if ledger is None:
        yield
        return
    saved_total = ledger.total
    saved_fns = dict(ledger.by_function)
    saved_io = (ledger.seq_pages_read, ledger.rand_pages_read, ledger.pages_hit)
    try:
        yield
    finally:
        ledger.total = saved_total
        ledger.by_function.clear()
        ledger.by_function.update(saved_fns)
        ledger.seq_pages_read, ledger.rand_pages_read, ledger.pages_hit = (
            saved_io
        )


# -- input enumeration -------------------------------------------------------


def _type_domain(sql_type) -> list:
    fmt = sql_type.struct_fmt
    if fmt == "i":
        return [0, 1, -7, 2147483647, -2147483648]
    if fmt == "q":
        return [0, 1, -1, 9223372036854775807, -9223372036854775808]
    if fmt == "d":
        return [0.0, 1.5, -2.25, 1e16]
    if fmt == "B":
        return [False, True]
    if sql_type.attlen >= 0:  # CHAR(n)
        n = sql_type.attlen
        values = ["", "a"[:n], "ab"[:n], "x" * n]
        return list(dict.fromkeys(values))
    # varlena: exercise empty, short, multi-byte UTF-8 (len(str) != len(
    # bytes)), and a long tail that shifts every later offset.
    return ["", "x", "hello world", "héllo", "a" * 17]


def enumerate_rows(domains: list[list], cap: int = MAX_TUPLES) -> list[list]:
    """Deterministic small-domain enumeration: one-hot + strided diagonals."""
    n = len(domains)
    defaults = [d[min(1, len(d) - 1)] for d in domains]
    rows: list[list] = []
    seen: set[tuple] = set()

    def emit(row: list) -> bool:
        key = tuple(row)
        if key not in seen:
            seen.add(key)
            rows.append(row)
        return len(rows) >= cap

    if emit(list(defaults)):
        return rows
    for i, domain in enumerate(domains):
        for value in domain:
            row = list(defaults)
            row[i] = value
            if emit(row):
                return rows
    # Co-prime strides hit combinations one-hot sweeps cannot.
    for stride in (1, 3, 7, 11):
        for step in range(max(len(d) for d in domains) if domains else 0):
            row = [
                domains[i][(step * stride + i) % len(domains[i])]
                for i in range(n)
            ]
            if emit(row):
                return rows
    return rows


def _layout_rows(layout: TupleLayout) -> list[list]:
    domains = [_type_domain(attr.sql_type) for attr in layout.schema.attributes]
    return enumerate_rows(domains)


def _null_patterns(layout: TupleLayout) -> list[list[bool]]:
    """One-hot nullable patterns plus the all-nullable-NULL tuple."""
    nullable = [a.attnum for a in layout.schema.attributes if a.nullable]
    if not nullable:
        return []
    patterns = []
    for attnum in nullable:
        isnull = [False] * layout.schema.natts
        isnull[attnum] = True
        patterns.append(isnull)
    if len(nullable) > 1:
        isnull = [False] * layout.schema.natts
        for attnum in nullable:
            isnull[attnum] = True
        patterns.append(isnull)
    return patterns


def _strict_eq(a, b) -> bool:
    if type(a) is not type(b):
        return False
    return a == b


def _rows_eq(a: list, b: list) -> bool:
    return len(a) == len(b) and all(_strict_eq(x, y) for x, y in zip(a, b))


# -- GCL ---------------------------------------------------------------------


def validate_gcl(routine, layout: TupleLayout) -> list[str]:
    """Cross-check the compiled GCL against ``layout.decode``."""
    findings: list[str] = []
    bee_id = _BEE_ID if layout.has_beeid else 0
    with ledger_guard(routine):
        for values in _layout_rows(layout):
            if len(findings) >= MAX_FINDINGS:
                break
            bee_values = layout.bee_key(values) if layout.has_beeid else None
            sections = {bee_id: bee_values} if layout.has_beeid else {}
            raw = layout.encode(values, None, bee_id)
            expected, _ = layout.decode(raw, bee_values)
            try:
                got = routine.fn(raw, sections)
            except Exception as exc:  # noqa: BLE001 — a crash IS a finding
                findings.append(
                    f"raised {type(exc).__name__} on {values!r}: {exc}"
                )
                continue
            if not _rows_eq(got, expected):
                findings.append(
                    f"deform mismatch on {values!r}: got {got!r}, "
                    f"generic decode gives {expected!r}"
                )
        # Tuples with NULLs must escape to the generic slow path and
        # come back with NULLs materialized.
        base = _layout_rows(layout)[0]
        for isnull in _null_patterns(layout):
            if len(findings) >= MAX_FINDINGS:
                break
            values = [
                None if isnull[i] else base[i] for i in range(len(base))
            ]
            raw = layout.encode(values, isnull, bee_id)
            bee_values = layout.bee_key(values) if layout.has_beeid else None
            sections = {bee_id: bee_values} if layout.has_beeid else {}
            expected, exp_null = layout.decode(raw, bee_values)
            expected = [
                None if exp_null[i] else expected[i]
                for i in range(len(expected))
            ]
            try:
                got = routine.fn(raw, sections)
            except Exception as exc:  # noqa: BLE001
                findings.append(
                    f"raised {type(exc).__name__} on NULL tuple "
                    f"{values!r}: {exc}"
                )
                continue
            if not _rows_eq(got, expected):
                findings.append(
                    f"slow-path mismatch on {values!r}: got {got!r}, "
                    f"generic decode gives {expected!r}"
                )
    return findings


def validate_gcl_cols(routine, layout: TupleLayout) -> list[str]:
    """Cross-check the compiled GCL column sink against the reference
    decoder (:func:`~repro.bees.vector.chunks.reference_column_sink`)
    over one page holding every enumerated tuple, NULL-bearing ones
    (which must take the slow path, in order) included."""
    from repro.bees.vector.chunks import column_scratch, reference_column_sink

    bee_id = _BEE_ID if layout.has_beeid else 0
    rows = _layout_rows(layout)
    nullables = [
        ([None if isnull[i] else rows[0][i] for i in range(len(isnull))], isnull)
        for isnull in _null_patterns(layout)
    ]
    # NULL-bearing tuples go between the others, not after them.
    tuples = [(values, None) for values in rows]
    for at, entry in enumerate(nullables):
        tuples.insert(min(2 * at + 1, len(tuples)), entry)
    # One beeID for the page: the section, not the tuple, holds the bee
    # attributes' values, so every tuple decodes to rows[0]'s.
    raws = [layout.encode(values, isnull, bee_id) for values, isnull in tuples]
    sections = (
        {bee_id: layout.bee_key(rows[0])} if layout.has_beeid else {}
    )

    want_cols, want_nulls = column_scratch(layout.schema)
    reference_column_sink(layout)(raws, sections, want_cols, want_nulls)
    got_cols, got_nulls = column_scratch(layout.schema)
    try:
        routine.fn(raws, sections, got_cols, got_nulls)
    except Exception as exc:  # noqa: BLE001 — a crash IS a finding
        return [f"raised {type(exc).__name__} over {len(raws)} tuples: {exc}"]
    findings: list[str] = []
    for a, (got, want) in enumerate(zip(got_cols, want_cols)):
        if not _rows_eq(got, want):
            findings.append(
                f"column {a} mismatch: got {got[:4]!r}..., reference "
                f"decoder gives {want[:4]!r}... ({len(got)}/{len(want)} rows)"
            )
    if got_nulls != want_nulls:
        findings.append("null flags differ from the reference decoder's")
    return findings[:MAX_FINDINGS]


# -- SCL ---------------------------------------------------------------------


def validate_scl(routine, layout: TupleLayout) -> list[str]:
    """Cross-check the compiled SCL against ``layout.encode``."""
    findings: list[str] = []
    bee_id = _BEE_ID if layout.has_beeid else 0
    with ledger_guard(routine):
        for values in _layout_rows(layout):
            if len(findings) >= MAX_FINDINGS:
                break
            expected = layout.encode(values, None, bee_id)
            try:
                got = routine.fn(values, bee_id)
            except Exception as exc:  # noqa: BLE001
                findings.append(
                    f"raised {type(exc).__name__} on {values!r}: {exc}"
                )
                continue
            if got != expected:
                findings.append(
                    f"fill mismatch on {values!r}: got {got!r}, generic "
                    f"encode gives {expected!r}"
                )
        # NULLs escape to the generic fill.
        base = _layout_rows(layout)[0]
        for isnull in _null_patterns(layout):
            if len(findings) >= MAX_FINDINGS:
                break
            values = [
                None if isnull[i] else base[i] for i in range(len(base))
            ]
            expected = layout.encode(values, isnull, bee_id)
            try:
                got = routine.fn(values, bee_id)
            except Exception as exc:  # noqa: BLE001
                findings.append(
                    f"raised {type(exc).__name__} on NULL tuple "
                    f"{values!r}: {exc}"
                )
                continue
            if got != expected:
                findings.append(
                    f"slow-path fill mismatch on {values!r}"
                )
        # Error contract: an over-width CHAR(n) raises ValueError on
        # both sides (behavior-identical including on bad input).
        for attr in layout.schema.attributes:
            sql_type = attr.sql_type
            if sql_type.struct_fmt or sql_type.attlen < 0:
                continue
            values = list(_layout_rows(layout)[0])
            values[attr.attnum] = "y" * (sql_type.attlen + 1)
            try:
                layout.encode(values, None, bee_id)
                continue  # bee-resident CHAR: encode never sees it
            except ValueError:
                pass
            try:
                routine.fn(values, bee_id)
                findings.append(
                    f"over-width {attr.name} accepted; generic encode "
                    f"raises ValueError"
                )
            except ValueError:
                pass
            except Exception as exc:  # noqa: BLE001
                findings.append(
                    f"over-width {attr.name} raised {type(exc).__name__}, "
                    f"generic encode raises ValueError"
                )
            break  # one witness attr suffices
    return findings


# -- EVP ---------------------------------------------------------------------


def _evp_domains(expr, guarded: bool) -> dict[int, list]:
    """Per-column value domains mined from the predicate's own constants."""
    from repro.engine import expr as E

    domains: dict[int, set] = {}

    def feed(index: int, value) -> None:
        bucket = domains.setdefault(index, set())
        if isinstance(value, bool):
            bucket.update([True, False])
        elif isinstance(value, (int, float)):
            bucket.update([value, value + 1, value - 1, 0])
        elif isinstance(value, str):
            bucket.update([value, "", value + "z"])

    def col_of(node):
        return node.index if isinstance(node, E.Col) else None

    stack = [expr]
    cols: set[int] = set()
    while stack:
        node = stack.pop()
        if isinstance(node, E.Col):
            cols.add(node.index)
        elif isinstance(node, (E.Cmp, E.Arith)):
            for side, other in (
                (node.left, node.right),
                (node.right, node.left),
            ):
                index = col_of(side)
                if index is not None and isinstance(other, E.Const):
                    feed(index, other.value)
        elif isinstance(node, E.Between):
            index = col_of(node.arg)
            if index is not None:
                feed(index, node.low)
                feed(index, node.high)
        elif isinstance(node, E.InList):
            index = col_of(node.arg)
            if index is not None:
                for value in node.values:
                    feed(index, value)
        elif isinstance(node, E.Like):
            index = col_of(node.arg)
            if index is not None:
                probe = node.pattern.replace("%", "x").replace("_", "y")
                feed(index, probe)
                feed(index, "@no-match@")
        stack.extend(node.children())

    out: dict[int, list] = {}
    for index in cols:
        values = sorted(domains.get(index, set()), key=repr)
        if not values:
            values = [0, 1, 2]
        if guarded:
            values = [None, *values]
        out[index] = values
    return out


def validate_evp(routine, expr) -> list[str]:
    """Cross-check the compiled EVP against ``Expr.evaluate``.

    Inputs where the interpreter raises are discarded rather than
    compared (statement-level errors are the oracle's lane); a routine
    that raises where the interpreter returns a value is a finding, since
    both variants evaluate only what the interpreter evaluates.
    """
    guarded = re.search(r"\n    t\d+ = ", routine.source) is not None
    domains_by_col = _evp_domains(expr, guarded)
    if not domains_by_col:
        cols, domains = [], []
    else:
        cols = sorted(domains_by_col)
        domains = [domains_by_col[c] for c in cols]
    width = (max(cols) + 1) if cols else 1

    findings: list[str] = []
    with ledger_guard(routine):
        for combo in enumerate_rows(domains) if domains else [[]]:
            if len(findings) >= MAX_FINDINGS:
                break
            row = [0] * width
            for col, value in zip(cols, combo):
                row[col] = value
            try:
                expected = expr.evaluate(row)
            except Exception:  # noqa: BLE001 — out of contract
                continue
            try:
                got = routine.fn(row)
            except Exception as exc:  # noqa: BLE001
                findings.append(
                    f"raised {type(exc).__name__} on row {row!r} where the "
                    f"interpreter returns {expected!r}"
                )
                continue
            if not _strict_eq(got, expected):
                findings.append(
                    f"predicate mismatch on row {row!r}: got {got!r}, "
                    f"interpreter gives {expected!r}"
                )
    return findings


# -- EVJ / AGG / IDX ---------------------------------------------------------

_RE_EVJ_COMPARE_PAIR = re.compile(
    r"if \(outer\[(\d+)\] != inner\[(\d+)\]\) return false;"
)
_RE_EVJ_RETURN = re.compile(r"return (true|false);")


def validate_evj(routine) -> list[str]:
    """Simulate the cloned C template against the join-type semantics.

    The template is C text, never executed in-process, so validation
    *interprets* it: walk the comparison lines in order, short-circuit
    on the first mismatching pair, fall through to the final return.
    The reference is the join identity itself — emit iff the keys all
    match, inverted for anti joins (a match suppresses emission).
    """
    compares = [
        (int(a), int(b))
        for a, b in _RE_EVJ_COMPARE_PAIR.findall(routine.source)
    ]
    finals = _RE_EVJ_RETURN.findall(routine.source)
    if not finals:
        return ["template has no fall-through return"]
    fallthrough = finals[-1] == "true"

    def simulate(outer, inner) -> bool:
        for a, b in compares:
            if outer[a] != inner[b]:
                return False
        return fallthrough

    def reference(outer, inner) -> bool:
        match = all(
            outer[k] == inner[k] for k in range(routine.n_keys)
        )
        # Anti joins emit via probe-miss bookkeeping, never through the
        # match path — the template must report False for every pair.
        return match and routine.join_type != "anti"

    width = max(routine.n_keys, 1)
    base = list(range(width))
    pairs = [(base, list(base))]
    for k in range(routine.n_keys):
        off = list(base)
        off[k] = -99
        pairs.append((base, off))
        pairs.append((off, base))
    findings: list[str] = []
    for outer, inner in pairs:
        if len(findings) >= MAX_FINDINGS:
            break
        got = simulate(outer, inner)
        expected = reference(outer, inner)
        if got != expected:
            findings.append(
                f"template emits {got} for outer={outer!r} "
                f"inner={inner!r}; {routine.join_type} join semantics "
                f"require {expected}"
            )
    return findings


def validate_agg(routine, specs, assume_not_null: bool = False) -> list[str]:
    """Cross-check the compiled transition against the generic HashAgg loop.

    Both sides accumulate over the same enumerated row stream into fresh
    accumulator lists; after every row the visible results must agree.
    The reference replicates ``repro.engine.agg.HashAgg`` exactly: count(*)
    advances unconditionally, count(arg) skips NULL arguments, other
    aggregates delegate NULL handling to the accumulator.
    """
    domains_by_col: dict[int, list] = {}
    for spec in specs:
        if spec.arg is not None:
            for col, values in _evp_domains(
                spec.arg, guarded=not assume_not_null
            ).items():
                merged = domains_by_col.setdefault(col, [])
                merged.extend(v for v in values if v not in merged)
    cols = sorted(domains_by_col)
    domains = [domains_by_col[c] for c in cols]
    width = (max(cols) + 1) if cols else 1

    specialized = [spec.make_state() for spec in specs]
    generic = [spec.make_state() for spec in specs]
    findings: list[str] = []
    with ledger_guard(routine):
        for combo in enumerate_rows(domains) if domains else [[], []]:
            if len(findings) >= MAX_FINDINGS:
                break
            row = [0] * width
            for col, value in zip(cols, combo):
                row[col] = value
            try:
                routine.fn(row, specialized)
            except Exception as exc:  # noqa: BLE001
                findings.append(
                    f"raised {type(exc).__name__} on row {row!r}"
                )
                break
            for spec, state in zip(specs, generic):
                if spec.arg is None:
                    state.update(None)
                    continue
                value = spec.arg.evaluate(row)
                if value is not None or spec.func != "count":
                    state.update(value)
            got = [state.result() for state in specialized]
            expected = [state.result() for state in generic]
            if not _rows_eq(got, expected):
                findings.append(
                    f"accumulators diverge after row {row!r}: got "
                    f"{got!r}, generic transition gives {expected!r}"
                )
                break
    return findings


def validate_idx(routine, key_indexes) -> list[str]:
    """Cross-check the compiled key extractor against plain subscripting."""
    width = max(key_indexes, default=0) + 1
    rows = [
        [i * 10 + col for col in range(width)] for i in range(4)
    ]
    rows.append([None] * width)
    rows.append([f"s{col}" for col in range(width)])
    findings: list[str] = []
    with ledger_guard(routine):
        for row in rows:
            if len(findings) >= MAX_FINDINGS:
                break
            expected = tuple(row[i] for i in key_indexes)
            try:
                got = routine.fn(row)
            except Exception as exc:  # noqa: BLE001
                findings.append(
                    f"raised {type(exc).__name__} on row {row!r}"
                )
                continue
            if got != expected:
                findings.append(
                    f"key extraction mismatch on row {row!r}: got "
                    f"{got!r}, expected {expected!r}"
                )
    return findings


# -- PIPE --------------------------------------------------------------------


def _batches_eq(a: list, b: list) -> bool:
    return len(a) == len(b) and all(_rows_eq(x, y) for x, y in zip(a, b))


def _pipe_qual_pass(spec, row) -> bool:
    """The generic Filter admission rule: only a strict ``True`` passes."""
    return spec.qual is None or spec.qual.evaluate(row) is True


def _pipe_eval_all(spec, row) -> None:
    """Dry-run every spec expression over *row* (raises out-of-contract)."""
    if spec.qual is not None and spec.qual.evaluate(row) is not True:
        return  # rejected rows never reach the sink expressions
    for expr in spec.output or ():
        expr.evaluate(row)
    for expr in spec.group_exprs:
        expr.evaluate(row)
    for agg in spec.aggs:
        if agg.arg is not None:
            agg.arg.evaluate(row)


def _pipe_reference(spec, rows: list, table: dict) -> list:
    """The unfused Volcano semantics over decoded *rows* (non-agg sinks)."""
    out: list = []
    for row in rows:
        if not _pipe_qual_pass(spec, row):
            continue
        if spec.sink == "rows":
            if spec.output is None:
                out.append(list(row))
            else:
                out.append([e.evaluate(row) for e in spec.output])
            continue
        key = tuple(row[i] for i in spec.probe_idx)
        cands = () if None in key else table.get(key, ())
        if spec.join_type == "inner":
            for build_row in cands:
                out.append(list(row) + list(build_row))
        elif spec.join_type == "left":
            if cands:
                for build_row in cands:
                    out.append(list(row) + list(build_row))
            else:
                out.append(list(row) + [None] * spec.build_width)
        elif spec.join_type == "semi":
            if cands:
                out.append(list(row))
        else:  # anti
            if not cands:
                out.append(list(row))
    return out


def _pipe_reference_agg(spec, rows: list, groups: dict, make_states) -> None:
    """The generic HashAgg transition loop over decoded *rows*."""
    from repro.engine.agg import _COUNT_STAR

    for row in rows:
        if not _pipe_qual_pass(spec, row):
            continue
        key = tuple(e.evaluate(row) for e in spec.group_exprs)
        states = groups.get(key)
        if states is None:
            states = make_states()
            groups[key] = states
        for i, agg in enumerate(spec.aggs):
            if agg.arg is None:
                states[i].update(_COUNT_STAR)
                continue
            value = agg.arg.evaluate(row)
            if value is not None or agg.func != "count":
                states[i].update(value)


def _fused_candidates(spec) -> tuple[list, list, dict]:
    """The enumerated input of one fused spec: ``(raws, rows, sections)``.

    Every value row of the layout plus the NULL patterns, each encoded
    under its **own** beeID (so a whole batch can share one data-section
    dict) and canonicalized through ``layout.encode``/``decode`` so
    ``CHAR(n)`` padding and varlena round-trips match what a heap scan
    hands the executor.  A ctid spec's rows end in the tuple identifier
    of a made-up heap position — several pages, slot numbers repeating
    across them — so a routine that emits the wrong row's ctid, or
    mangles ``(pageno, slot)``, diverges from the reference.  Rows where
    the interpreter itself raises are dropped as out-of-contract, as in
    :func:`validate_evp`.
    """
    layout = spec.layout
    schema = layout.schema
    raws: list = []
    rows: list = []
    sections: dict = {}
    candidates = list(_layout_rows(layout))
    base = candidates[0]
    for isnull in _null_patterns(layout):
        candidates.append(
            [None if isnull[i] else base[i] for i in range(schema.natts)]
        )
    for n, values in enumerate(candidates):
        bee_id = 0x0101 + n if layout.has_beeid else 0
        isnull = [v is None for v in values]
        has_nulls = any(isnull)
        try:
            bee_values = layout.bee_key(values) if layout.has_beeid else None
            raw = layout.encode(values, isnull if has_nulls else None, bee_id)
        except (TypeError, ValueError):
            continue  # bee-resident NULLs etc.: not encodable, skip
        full, exp_null = layout.decode(raw, bee_values)
        row = [
            None if exp_null[i] else full[i] for i in range(schema.natts)
        ]
        if spec.ctid:
            row.append(pack_tid(1 + n // 3, n % 3))
        try:
            _pipe_eval_all(spec, row)
        except Exception:  # noqa: BLE001 — out of contract
            continue
        if layout.has_beeid:
            sections[bee_id] = bee_values
        raws.append(raw)
        rows.append(row)
    return raws, rows, sections


def _probe_table(spec, rows: list) -> dict:
    """A build table for a probe sink's validation run: hit (1 and 2
    candidates) and miss keys, deterministically, with build rows of the
    spec's width (empty for the other sinks)."""
    table: dict = {}
    if spec.sink != "probe":
        return table
    seen_keys: list = []
    for row in rows:
        key = tuple(row[i] for i in spec.probe_idx)
        if None not in key and key not in seen_keys:
            seen_keys.append(key)
    for j, key in enumerate(seen_keys):
        if j % 3 == 0:
            continue  # probe miss
        table[key] = [
            [f"b{j}.{c}.{i}" for i in range(spec.build_width)]
            for c in range(1 + j % 2)
        ]
    return table


def validate_pipeline(routine, spec) -> list[str]:
    """Cross-check the fused pipeline against the interpreted plan.

    One enumerated batch per layout (:func:`_fused_candidates`; a ctid
    spec's batch pairs each raw tuple with its row's identifier, as the
    tier's input does) is pushed through the compiled function and
    through a reference that replicates the unfused node semantics
    (``Filter`` admission, ``Project`` evaluation, ``HashJoin`` probe
    emission per join type, ``HashAgg`` transition) over the generically
    decoded rows.
    """
    findings: list[str] = []
    batch, decoded, sections = _fused_candidates(spec)
    table = _probe_table(spec, decoded)
    if spec.ctid:
        batch = [(raw, row[-1]) for raw, row in zip(batch, decoded)]

    with ledger_guard(routine):
        runs = [([], "empty batch"), (batch, "enumerated batch")]
        for batch_rows, label in runs:
            kept = decoded[: len(batch_rows)]
            if spec.sink == "agg":
                make_states = lambda: [a.make_state() for a in spec.aggs]  # noqa: E731
                got_groups: dict = {}
                exp_groups: dict = {}
                if not spec.group_exprs:
                    got_groups[()] = make_states()
                    exp_groups[()] = make_states()
                try:
                    routine.fn(batch_rows, sections, got_groups, make_states)
                except Exception as exc:  # noqa: BLE001
                    findings.append(
                        f"raised {type(exc).__name__} on {label}: {exc}"
                    )
                    continue
                _pipe_reference_agg(spec, kept, exp_groups, make_states)
                if set(got_groups) != set(exp_groups):
                    findings.append(
                        f"group keys diverge on {label}: got "
                        f"{sorted(map(repr, got_groups))}, generic gives "
                        f"{sorted(map(repr, exp_groups))}"
                    )
                    continue
                for key, states in got_groups.items():
                    got = [state.result() for state in states]
                    expected = [
                        state.result() for state in exp_groups[key]
                    ]
                    if not _rows_eq(got, expected):
                        findings.append(
                            f"accumulators diverge for group {key!r}: got "
                            f"{got!r}, generic transition gives {expected!r}"
                        )
                        if len(findings) >= MAX_FINDINGS:
                            break
                continue
            args = (batch_rows, sections)
            if spec.sink == "probe":
                args = (batch_rows, sections, table)
            try:
                got = routine.fn(*args)
            except Exception as exc:  # noqa: BLE001
                findings.append(
                    f"raised {type(exc).__name__} on {label}: {exc}"
                )
                continue
            expected = _pipe_reference(spec, kept, table)
            if not _batches_eq(got, expected):
                findings.append(
                    f"pipeline output diverges on {label}: "
                    f"{len(got)} rows vs {len(expected)} generic rows"
                    + next(
                        (
                            f"; first mismatch at {i}: got {g!r}, "
                            f"generic gives {e!r}"
                            for i, (g, e) in enumerate(zip(got, expected))
                            if not _rows_eq(g, e)
                        ),
                        "",
                    )
                )
    return findings


# -- VEC ---------------------------------------------------------------------


def _probe_builds(spec, rows: list) -> tuple[list, list]:
    """Build sides for a probe kernel's validation run: ``(build_idx,
    [(label, build rows)])``.

    Build rows have the spec's width, each probe key spread over the
    columns *build_idx* names: **mixed** (every third distinct non-NULL
    probe key misses, the others get one or two candidates), **all-hit**
    (every key one candidate or more) and **all-miss**.  Each also holds
    a NULL-keyed build row, which ``HashJoin`` must never store.
    """
    n_keys = len(spec.probe_idx)
    width = spec.build_width or n_keys
    build_idx = [j % width for j in range(n_keys)]
    keys: list = []
    for row in rows:
        key = tuple(row[i] for i in spec.probe_idx)
        if None not in key and key not in keys:
            keys.append(key)

    def build_row(key, tag: str) -> list:
        out = [f"b{tag}.{i}" for i in range(width)]
        for j, value in zip(build_idx, key):
            out[j] = value
        return out

    nulls = [build_row((None,) * n_keys, "null")]
    every = [
        (j, build_row(key, f"{j}.{c}"))
        for j, key in enumerate(keys)
        for c in range(1 + j % 2)
    ]
    return build_idx, [
        ("mixed", [row for j, row in every if j % 3] + nulls),
        ("all-hit", [row for _j, row in every] + nulls),
        ("all-miss", nulls),
    ]


def _hash_join(spec, rows: list, build_idx: list, build: list):
    """``HashJoin`` itself, generic, over the *rows* that pass the
    spec's qualification and *build*: ``(table, output)``, the table its
    build phase hashes (what the kernel probes) and the rows it emits."""
    from types import SimpleNamespace

    from repro.bees.settings import BeeSettings
    from repro.cost.ledger import Ledger
    from repro.engine.joins import HashJoin
    from repro.engine.nodes import ExecContext, ValuesNode

    natts = spec.layout.schema.natts
    width = len(build[0])
    probe_node = ValuesNode(     # the Filter the kernel fused
        [f"p{i}" for i in range(natts)],
        [row for row in rows if _pipe_qual_pass(spec, row)],
    )
    build_node = ValuesNode([f"b{i}" for i in range(width)], build)
    join = HashJoin(
        probe_node, build_node,
        [f"p{i}" for i in spec.probe_idx], [f"b{j}" for j in build_idx],
        spec.join_type,
    )
    ctx = ExecContext(SimpleNamespace(
        ledger=Ledger(), settings=BeeSettings.stock(), bee_module=None,
    ))
    return join.build_table(ctx, build_node), list(join.rows(ctx))


def _in_contract(conjuncts: list, row) -> bool:
    """False when one of *conjuncts* raises on *row* evaluated alone.  A
    vector kernel evaluates a conjunct over rows the interpreter never
    reaches it on (the whole-column mask; an object conjunct that cannot
    raise runs last), so it may raise on such a row where the
    interpreter does not: the shield degrades the statement there, and
    the row is out of contract."""
    try:
        for conjunct in conjuncts:
            conjunct.evaluate(row)
    except Exception:  # noqa: BLE001 — out of contract
        return False
    return True


def _split_runs(spec, rows: list) -> list:
    """Extra chunks for a kernel whose qual is split at its ``AND``
    (``[(rows, label)]``): **NULL-heavy** lanes (every nullable column
    NULL in two rows of three, staggered per column), and an **empty
    survivor** set — the rows on which the conjuncts that run over the
    whole chunk select nothing (the first object conjunct that runs
    last stands in for them in an all-late ``AND``), so each later
    conjunct runs over no survivors at all.  Rows out of contract
    (:func:`_in_contract`) are dropped."""
    from repro.bees.vector.codegen import _split_kinds

    schema = spec.layout.schema
    kinds = _split_kinds(spec.qual, schema)
    conjuncts = [c for _kind, c in kinds]
    early = [c for kind, c in kinds if kind != "late"] or conjuncts[:1]
    nullable = [
        i for i, attr in enumerate(schema.attributes) if attr.nullable
    ]
    heavy = [
        [None if i in nullable and (n + i) % 3 else v
         for i, v in enumerate(row)]
        for n, row in enumerate(rows)
    ]
    empty = [
        row for row in rows
        if _in_contract(conjuncts, row)
        and not all(c.evaluate(row) is True for c in early)
    ]
    return [
        (
            [row for row in heavy if _in_contract(conjuncts, row)],
            "NULL-heavy chunk",
        ),
        (empty, "chunk with no survivors"),
    ]


def validate_vector(routine, spec) -> list[str]:
    """Cross-check the columnar kernel against the interpreted plan.

    The candidate set is :func:`validate_pipeline`'s
    (:func:`_fused_candidates`), but the kernel consumes a
    :class:`repro.bees.vector.chunks.Chunk` built with the same
    ``chunk_from_rows`` assembly the runtime decoder uses (widened by
    the rows' identifiers for a ctid spec), and is invoked **once** per
    run over the whole chunk.  The rows sink compares against
    :func:`_pipe_reference`; the agg sink compares the kernel's finished
    rows (vector kernels group *and* finalize) against the finalized
    generic transition states, in first-seen group order on both sides.
    A probe kernel runs against ``HashJoin`` itself, row for row and in
    order, over each of :func:`_probe_builds`' build sides: it probes the
    table ``HashJoin`` hashed, with an entry added under every
    NULL-bearing probe key, so a kernel that leans on the table holding
    no NULL keys instead of guarding them matches rows ``HashJoin``
    never does.  A kernel whose qual is split at its ``AND`` also runs
    :func:`_split_runs`' chunks against the same references.  Rows out
    of contract for the kernel's conjuncts (:func:`_in_contract`) are
    dropped from every chunk.
    """
    from repro.bees.vector.chunks import chunk_from_rows
    from repro.bees.vector.codegen import _split_kinds, _vectorizable

    findings: list[str] = []
    schema = spec.layout.schema
    _raws, decoded, _sections = _fused_candidates(spec)
    if spec.qual is not None:
        conjuncts = [c for _kind, c in _split_kinds(spec.qual, schema)]
        decoded = [row for row in decoded if _in_contract(conjuncts, row)]
    runs: list = [([], "empty chunk", None), (decoded, "enumerated chunk", None)]
    if spec.qual is not None and not _vectorizable(spec.qual, schema):
        runs += [
            (rows, label, None) for rows, label in _split_runs(spec, decoded)
        ]
    if spec.sink == "probe":
        build_idx, builds = _probe_builds(spec, decoded)
        runs = [
            (rows, f"{label} with a {name} build", build)
            for rows, label, _ in runs
            for name, build in builds
        ]

    with ledger_guard(routine):
        for rows, label, build in runs:
            if spec.ctid:
                chunk = chunk_from_rows(
                    schema, [row[:-1] for row in rows],
                    tids=[row[-1] for row in rows],
                ).with_ctid()
            else:
                chunk = chunk_from_rows(schema, rows)
            args: tuple = (chunk.cols, chunk.nulls, chunk.n)
            if build is not None:
                table, expected = _hash_join(spec, rows, build_idx, build)
                table = dict(table)
                for row in rows:
                    key = tuple(row[i] for i in spec.probe_idx)
                    if None in key:
                        table[key] = [["poison"] * len(build[0])]
                args = (*args, table)
            try:
                got = routine.fn(*args)
            except Exception as exc:  # noqa: BLE001 — a crash IS a finding
                findings.append(
                    f"raised {type(exc).__name__} on {label}: {exc}"
                )
                continue
            if spec.sink == "agg":
                make_states = lambda: [a.make_state() for a in spec.aggs]  # noqa: E731
                exp_groups: dict = {}
                if not spec.group_exprs:
                    exp_groups[()] = make_states()
                _pipe_reference_agg(spec, rows, exp_groups, make_states)
                expected = [
                    list(key) + [state.result() for state in states]
                    for key, states in exp_groups.items()
                ]
            elif spec.sink == "rows":
                expected = _pipe_reference(spec, rows, {})
            if not _batches_eq(got, expected):
                findings.append(
                    f"vector output diverges on {label}: "
                    f"{len(got)} rows vs {len(expected)} generic rows"
                    + next(
                        (
                            f"; first mismatch at {i}: got {g!r}, "
                            f"generic gives {e!r}"
                            for i, (g, e) in enumerate(zip(got, expected))
                            if not _rows_eq(g, e)
                        ),
                        "",
                    )
                )
    return findings
