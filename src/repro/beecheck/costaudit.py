"""The static cost auditor: Figure 6's instruction counts, machine-checked.

The paper quantifies micro-specialization by executed-instruction deltas
(Figure 6); our bees carry that as ``BeeRoutine.cost``, charged per
invocation.  This pass recomputes the cost **from the generated code
itself** — counting the reads/writes that actually appear in the AST and
pricing them with :mod:`repro.cost.constants` — and cross-checks three
sources that must agree:

* ``routine.cost`` (what the generator claims),
* ``namespace['_COST']`` (what the routine actually charges at runtime),
* the ``gcl_cost``/``scl_cost``/EVP cost formulas evaluated on the
  layout/expression (what the model says).

A generator that unrolls fewer attribute reads than it bills for — or
bills fewer than it emits — is flagged without running the routine.  As
a final sanity band, the routine's *real* bytecode size (``dis``) must
scale with the virtual cost: straight-line specialized code has a narrow
instructions-per-virtual-instruction ratio, so a wildly short or long
body betrays a cost model that has drifted from the code shape.
"""

from __future__ import annotations

import ast
import dis
import re

from repro.cost import constants as C
from repro.storage.layout import TupleLayout

#: Plausibility band for len(bytecode) / virtual cost.  Calibrated over
#: every TPC-H/TPC-C GCL/SCL and an EVP corpus (observed 0.19–1.97);
#: the band leaves ~3x headroom on both sides so it only trips on
#: structural drift (e.g. a routine billing for work it never emits),
#: not on CPython bytecode changes.
BYTECODE_RATIO_MIN = 0.06
BYTECODE_RATIO_MAX = 6.0

_RE_VL_READ = re.compile(r"ln = _VL\.unpack_from\(raw, off\)\[0\]")
_RE_SCALAR_READ = re.compile(r"v\d+ = _S\d+\.unpack_from\(raw, off\)\[0\]")
_RE_CHAR_READ = re.compile(
    r"v\d+ = raw\[off:off \+ \d+\]\.decode\(\)\.rstrip\(' '\)"
)
_RE_BEE_READ = re.compile(r"v\d+ = _bv\[\d+\]")
_RE_PREFIX = re.compile(r"(v\d+(?:, v\d+)*),? = _PREFIX\.unpack_from.*")

_RE_VL_WRITE = re.compile(r"b = values\[\d+\]\.encode\(\)")
_RE_PACK_WRITE = re.compile(r"out \+= _P\d+\.pack\(.*\)")
_RE_CHAR_WRITE = re.compile(r"out \+= _char\(values\[\d+\], \d+, '[^']*'\)")
_RE_PREFIX_PACK = re.compile(r"out \+= _PREFIX\.pack\((.*)\)")


def _stmt_texts(source: str) -> list[str]:
    tree = ast.parse(source)
    fn = tree.body[0]
    return [ast.unparse(stmt) for stmt in ast.walk(fn) if isinstance(
        stmt, (ast.Assign, ast.AugAssign)
    )]


def _bytecode_len(fn) -> int:
    return sum(1 for _ in dis.get_instructions(fn))


def _check_agreement(
    routine, recomputed: int, model: int, findings: list[str]
) -> None:
    declared = routine.cost
    charged = (routine.namespace or {}).get("_COST")
    if recomputed != declared:
        findings.append(
            f"AST recount gives cost {recomputed}, routine declares "
            f"{declared}"
        )
    if model != declared:
        findings.append(
            f"cost model gives {model}, routine declares {declared}"
        )
    if charged != declared:
        findings.append(
            f"routine charges _COST={charged!r} but declares {declared}"
        )


def _check_bytecode_band(routine, findings: list[str]) -> None:
    if routine.cost <= 0:
        findings.append(f"non-positive routine cost {routine.cost}")
        return
    ratio = _bytecode_len(routine.fn) / routine.cost
    if not (BYTECODE_RATIO_MIN <= ratio <= BYTECODE_RATIO_MAX):
        findings.append(
            f"bytecode/cost ratio {ratio:.2f} outside plausibility band "
            f"[{BYTECODE_RATIO_MIN}, {BYTECODE_RATIO_MAX}]"
        )


def audit_gcl(routine, layout: TupleLayout) -> list[str]:
    """Recount the GCL cost from the AST and cross-check all sources."""
    from repro.bees.routines.gcl import gcl_cost

    findings: list[str] = []
    try:
        texts = _stmt_texts(routine.source)
    except (SyntaxError, IndexError):
        return ["source does not parse"]

    n_varlena = sum(1 for t in texts if _RE_VL_READ.fullmatch(t))
    n_fixed = sum(1 for t in texts if _RE_SCALAR_READ.fullmatch(t))
    n_fixed += sum(1 for t in texts if _RE_CHAR_READ.fullmatch(t))
    n_bee = sum(1 for t in texts if _RE_BEE_READ.fullmatch(t))
    for t in texts:
        m = _RE_PREFIX.fullmatch(t)
        if m:
            n_fixed += len(m.group(1).split(","))

    # Emitted reads must cover the stored attributes exactly.
    stored = len(layout.stored_attrs)
    n_stored_varlena = sum(
        1 for a in layout.stored_attrs if a.attlen == -1
    )
    if n_fixed + n_varlena != stored or n_varlena != n_stored_varlena:
        findings.append(
            f"emitted reads (fixed={n_fixed}, varlena={n_varlena}) do not "
            f"cover the {stored} stored attributes "
            f"({n_stored_varlena} varlena)"
        )
    if n_bee != len(layout.bee_attrs):
        findings.append(
            f"emitted {n_bee} data-section reads for "
            f"{len(layout.bee_attrs)} bee attributes"
        )

    n_nullable = sum(1 for a in layout.stored_attrs if a.nullable)
    recomputed = (
        C.GCL_PROLOGUE
        + C.GCL_ISNULL_ZERO * ((layout.schema.natts + 7) // 8)
        + C.GCL_FIXED * n_fixed
        + C.GCL_VARLENA * n_varlena
        + C.GCL_TUPLE_BEE * n_bee
        + C.GCL_NULLABLE * n_nullable
    )
    _check_agreement(routine, recomputed, gcl_cost(layout), findings)
    _check_bytecode_band(routine, findings)
    return findings


def audit_scl(routine, layout: TupleLayout) -> list[str]:
    """Recount the SCL cost from the AST and cross-check all sources."""
    from repro.bees.routines.scl import scl_cost

    findings: list[str] = []
    try:
        texts = _stmt_texts(routine.source)
    except (SyntaxError, IndexError):
        return ["source does not parse"]

    n_varlena = sum(1 for t in texts if _RE_VL_WRITE.fullmatch(t))
    n_fixed = sum(1 for t in texts if _RE_PACK_WRITE.fullmatch(t))
    n_fixed += sum(1 for t in texts if _RE_CHAR_WRITE.fullmatch(t))
    for t in texts:
        m = _RE_PREFIX_PACK.fullmatch(t)
        if m:
            depth = 0
            n_args = 1
            for ch in m.group(1):
                if ch in "([":
                    depth += 1
                elif ch in ")]":
                    depth -= 1
                elif ch == "," and depth == 0:
                    n_args += 1
            n_fixed += n_args

    stored = len(layout.stored_attrs)
    n_stored_varlena = sum(1 for a in layout.stored_attrs if a.attlen == -1)
    if n_fixed + n_varlena != stored or n_varlena != n_stored_varlena:
        findings.append(
            f"emitted writes (fixed={n_fixed}, varlena={n_varlena}) do not "
            f"cover the {stored} stored attributes "
            f"({n_stored_varlena} varlena)"
        )

    n_nullable = sum(1 for a in layout.stored_attrs if a.nullable)
    recomputed = (
        C.SCL_PROLOGUE
        + C.SCL_FIXED * n_fixed
        + C.SCL_VARLENA * n_varlena
        + C.SCL_TUPLE_BEE * len(layout.bee_attrs)
        + C.SCL_NULLABLE * n_nullable
    )
    _check_agreement(routine, recomputed, scl_cost(layout), findings)
    _check_bytecode_band(routine, findings)
    return findings


def audit_evp(routine, expr) -> list[str]:
    """Cross-check the EVP cost against the expression tree."""
    from repro.engine import expr as E

    findings: list[str] = []
    model = C.EVP_PROLOGUE + expr.evp_cost
    try:
        tree = ast.parse(routine.source)
    except SyntaxError:
        return ["source does not parse"]

    # Every Col occurrence in the tree is exactly one row[...] load in the
    # straight-line body (both variants materialize each occurrence).
    n_loads = sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "row"
    )
    n_cols = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, E.Col):
            n_cols += 1
        stack.extend(node.children())
    if n_loads != n_cols:
        findings.append(
            f"{n_loads} row loads emitted for {n_cols} column references"
        )
    _check_agreement(routine, model, model, findings)
    _check_bytecode_band(routine, findings)
    return findings


_RE_EVJ_COMPARE_LINE = re.compile(
    r"^    if \(outer\[\d+\] != inner\[\d+\]\) return false;$", re.MULTILINE
)


def audit_evj(routine) -> list[str]:
    """Cross-check the EVJ per-compare cost against the cloned template.

    EVJ routines are C text, not compiled Python — there is no namespace
    ``_COST`` or bytecode to band-check.  Instead the declared
    ``cost_per_compare`` must equal the model, the template must contain
    exactly one comparison line per key, and the specialized cost must
    undercut the generic join's per-compare cost (otherwise cloning the
    template is a pessimization).
    """
    from repro.bees.routines.evj import GENERIC_JOIN

    findings: list[str] = []
    model = C.EVJ_DISPATCH + C.EVJ_COMPARE * routine.n_keys
    if routine.cost_per_compare != model:
        findings.append(
            f"cost model gives {model} per compare, routine declares "
            f"{routine.cost_per_compare}"
        )
    n_compares = len(_RE_EVJ_COMPARE_LINE.findall(routine.source))
    if n_compares != routine.n_keys:
        findings.append(
            f"{n_compares} comparison lines emitted for {routine.n_keys} "
            "join key(s)"
        )
    generic = GENERIC_JOIN.per_compare(routine.n_keys)
    if routine.cost_per_compare >= generic:
        findings.append(
            f"specialized compare costs {routine.cost_per_compare}, "
            f"generic costs {generic} — no win from the template"
        )
    return findings


def audit_agg(routine, specs, assume_not_null: bool = False) -> list[str]:
    """Recount the AGG transition cost from the AST and cross-check."""
    from repro.bees.routines.agg import (
        AGG_SPECIALIZED_PER_AGG,
        AGG_SPECIALIZED_PROLOGUE,
        agg_routine_cost,
    )

    findings: list[str] = []
    model = agg_routine_cost(specs, assume_not_null)
    try:
        tree = ast.parse(routine.source)
    except SyntaxError:
        return ["source does not parse"]
    n_updates = sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "update"
    )
    arg_cost = sum(
        spec.arg.evp_cost for spec in specs if spec.arg is not None
    )
    recomputed = (
        AGG_SPECIALIZED_PROLOGUE
        + AGG_SPECIALIZED_PER_AGG * n_updates
        + arg_cost
    )
    _check_agreement(routine, recomputed, model, findings)
    _check_bytecode_band(routine, findings)
    return findings


def audit_idx(routine, key_indexes) -> list[str]:
    """Recount the IDX key-extraction cost from the AST and cross-check."""
    from repro.bees.routines.idx import generic_idx_cost, idx_cost

    findings: list[str] = []
    model = idx_cost(len(key_indexes))
    try:
        tree = ast.parse(routine.source)
    except SyntaxError:
        return ["source does not parse"]
    n_loads = sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "values"
    )
    recomputed = idx_cost(n_loads)
    _check_agreement(routine, recomputed, model, findings)
    _check_bytecode_band(routine, findings)
    generic = generic_idx_cost(len(key_indexes))
    if routine.cost >= generic:
        findings.append(
            f"specialized extraction costs {routine.cost}, generic costs "
            f"{generic} — no win from specialization"
        )
    return findings


# -- PIPE --------------------------------------------------------------------

_RE_PIPE_VLDATA = re.compile(
    r"v(\d+) = raw\[off \+ \d+:off \+ \d+ \+ ln\]\.decode\(\)"
)
_RE_PIPE_APPEND = re.compile(r"_append\(\[(.*)\]\)")


def audit_pipeline(routine, spec) -> list[str]:
    """Recount the fused pipeline's batch-charge constants and cross-check.

    A pipeline charges from four namespace constants instead of one
    ``_COST``: ``_C0`` (per batch), ``_C1`` (per input row — the
    specialized next + pruned deform + qualification), and the per-sink
    ``_C2``/``_C3``/``_C4`` terms.  ``_C1`` is recounted from the AST the
    way :func:`audit_gcl` recounts a full deform — every read the source
    actually emits, priced by the GCL constants — and the sink terms are
    recomputed from the spec's own expressions.  No bytecode band: the
    loop shape amortizes differently from straight-line bees and the
    per-row cost is not the whole function's cost.
    """
    from repro.bees.routines.agg import AGG_SPECIALIZED_PER_AGG
    from repro.engine import expr as E

    findings: list[str] = []
    layout = spec.layout
    namespace = routine.namespace or {}
    try:
        texts = _stmt_texts(routine.source)
    except (SyntaxError, IndexError):
        return ["source does not parse"]

    if namespace.get("_C0") != C.PIPE_BATCH_OVERHEAD:
        findings.append(
            f"_C0={namespace.get('_C0')!r}, model gives "
            f"{C.PIPE_BATCH_OVERHEAD} per batch"
        )
    if namespace.get("_C1") != routine.cost:
        findings.append(
            f"routine charges _C1={namespace.get('_C1')!r} per row but "
            f"declares {routine.cost}"
        )

    # Recount the pruned deform from the emitted reads.
    n_varlena = sum(1 for t in texts if _RE_VL_READ.fullmatch(t))
    n_bee = sum(1 for t in texts if _RE_BEE_READ.fullmatch(t))
    fixed: set[int] = set()
    varlena: set[int] = set()
    for t in texts:
        if _RE_SCALAR_READ.fullmatch(t) or _RE_CHAR_READ.fullmatch(t):
            fixed.add(int(re.match(r"v(\d+)", t).group(1)))
            continue
        m = _RE_PIPE_VLDATA.fullmatch(t)
        if m:
            varlena.add(int(m.group(1)))
            continue
        m = _RE_PREFIX.fullmatch(t)
        if m:
            fixed.update(int(v.strip()[1:]) for v in m.group(1).split(","))
    n_nullable = sum(
        1
        for attnum in fixed | varlena
        if layout.schema.attributes[attnum].nullable
    )
    # The null-bitmap term is the deform's own: a column-free scan
    # (``COUNT(*)``) emits no read, so no deform and no bitmap test.
    bitmap = 0
    if fixed or n_varlena or n_bee:
        bitmap = C.GCL_ISNULL_ZERO * ((layout.schema.natts + 7) // 8)
    deform = (
        bitmap
        + C.GCL_FIXED * len(fixed)
        + C.GCL_VARLENA * n_varlena
        + C.GCL_TUPLE_BEE * n_bee
        + C.GCL_NULLABLE * n_nullable
    )
    qual_cost = spec.qual.evp_cost if spec.qual is not None else 0
    recomputed = C.PIPE_NEXT + deform + qual_cost
    if recomputed != routine.cost:
        findings.append(
            f"AST recount gives per-row cost {recomputed}, routine "
            f"declares {routine.cost}"
        )

    if spec.sink == "rows":
        if spec.output is None:
            n_out = spec.scan_width
            expr_cost = 0
        else:
            n_out = len(spec.output)
            expr_cost = sum(
                e.evp_cost
                for e in spec.output
                if not isinstance(e, E.Col)
            )
        model = C.PIPE_EMIT_BASE + C.PIPE_EMIT_PER_COLUMN * n_out + expr_cost
        if namespace.get("_C2") != model:
            findings.append(
                f"_C2={namespace.get('_C2')!r}, emission model gives {model}"
            )
        appends = [
            m for t in texts + _expr_texts(routine.source)
            for m in [_RE_PIPE_APPEND.fullmatch(t)] if m
        ]
        if appends:
            emitted = len(appends[0].group(1).split(","))
            if emitted != n_out:
                findings.append(
                    f"emits {emitted}-column rows, spec projects {n_out}"
                )
    elif spec.sink == "probe":
        checks = (
            ("_C2", C.JOIN_HASH_COMPUTE + C.JOIN_HASH_PROBE, "probe model"),
            ("_C3", C.EVJ_COMPARE * len(spec.probe_idx), "compare model"),
            ("_C4", C.JOIN_EMIT, "emit model"),
        )
        for key, model, what in checks:
            if namespace.get(key) != model:
                findings.append(
                    f"{key}={namespace.get(key)!r}, {what} gives {model}"
                )
    else:  # agg
        model = (
            C.AGG_HASH_LOOKUP
            + sum(e.evp_cost for e in spec.group_exprs)
            + AGG_SPECIALIZED_PER_AGG * len(spec.aggs)
            + sum(a.arg.evp_cost for a in spec.aggs if a.arg is not None)
        )
        if namespace.get("_C2") != model:
            findings.append(
                f"_C2={namespace.get('_C2')!r}, transition model gives "
                f"{model}"
            )
    return findings


def _expr_texts(source: str) -> list[str]:
    """Expression statements of the routine (``_append(...)`` calls)."""
    tree = ast.parse(source)
    return [
        ast.unparse(stmt)
        for stmt in ast.walk(tree.body[0])
        if isinstance(stmt, ast.Expr)
    ]


_RE_VEC_ZIP = re.compile(r"out = _zip_rows\(\[(.*)\]\)")
_RE_VEC_PROBE = re.compile(
    r"out = _probe\('(\w+)', table, \[(.*)\], \[(.*)\], cols, nulls, "
    r"(?:_idx|None)(, _PAD)?\)"
)

_RE_VEC_OBJECT = re.compile(
    r"(_E\d+)\.evaluate\(_r\)(?: is True)? for _r in "
    r"_materialize\(cols, nulls, (\w+), \(([\d, ]*)\)\)"
)


def _audit_split(routine, spec) -> list[str]:
    """The split qualification: ``_C1`` prices one interpreter pass of
    the whole qual per input row, so each of its object conjuncts must
    be evaluated exactly once — the ones that may raise first, in source
    order, then the ones that cannot, over the survivors (``_idx``) —
    each over rows that carry exactly the columns it reads."""
    from repro.bees.emit import referenced
    from repro.bees.vector.codegen import _split_kinds

    namespace = routine.namespace or {}
    kinds = _split_kinds(spec.qual, spec.layout.schema)
    expected = [c for kind, c in kinds if kind == "raising"]
    expected += [c for kind, c in kinds if kind == "late"]
    calls = _RE_VEC_OBJECT.findall(routine.source)
    got = [namespace.get(name) for name, _at, _used in calls]
    if len(got) != len(expected) or any(
        g is not e for g, e in zip(got, expected)
    ):
        return [
            f"object lane evaluates {got!r}, the split qual has object "
            f"conjuncts {expected!r} (raising first, then the rest)"
        ]
    findings = []
    for (name, at, used), conjunct in zip(calls, expected):
        acc: set = set()
        referenced(conjunct, acc)
        cols = tuple(int(i) for i in used.replace(",", " ").split())
        if cols != tuple(sorted(acc)):
            findings.append(
                f"{name} rows carry columns {cols}, it reads "
                f"{tuple(sorted(acc))}"
            )
        late = any(c is conjunct for kind, c in kinds if kind == "late")
        if late and at not in ("_idx", "None"):
            findings.append(f"{name} cannot raise but runs over {at}")
    return findings


def audit_vector(routine, spec) -> list[str]:
    """Recompute the vector kernel's charge constants and cross-check.

    A kernel charges once, from three namespace constants:
    ``_C0`` (per dispatch), ``_C1`` (per input row — the selection
    mask), and ``_C2`` (per selected row — the sink emission).  All
    three are recomputed from the spec through the same pricing helpers
    codegen uses, so a tampered constant (or a generator whose pricing
    drifts from the model) is caught without executing the kernel.  No
    bytecode band: whole-column kernels amortize across the chunk, so
    instruction count and per-row cost are unrelated by design.
    """
    from repro.bees.vector.codegen import (
        _expr_charge,
        _expr_nodes,
        _vectorizable,
    )

    findings: list[str] = []
    schema = spec.layout.schema
    namespace = routine.namespace or {}
    try:
        texts = _stmt_texts(routine.source)
    except (SyntaxError, IndexError):
        return ["source does not parse"]

    if namespace.get("_C0") != C.VEC_KERNEL_DISPATCH:
        findings.append(
            f"_C0={namespace.get('_C0')!r}, model gives "
            f"{C.VEC_KERNEL_DISPATCH} per dispatch"
        )
    if namespace.get("_C1") != routine.cost:
        findings.append(
            f"routine charges _C1={namespace.get('_C1')!r} per row but "
            f"declares {routine.cost}"
        )

    if spec.qual is None:
        qual_cost = 0
    elif _vectorizable(spec.qual, schema):
        qual_cost = C.VEC_KERNEL_PER_VALUE * _expr_nodes(spec.qual)
    else:
        qual_cost = spec.qual.generic_cost
        findings += _audit_split(routine, spec)
    recomputed = C.VEC_SELECT_PER_ROW + qual_cost
    if recomputed != routine.cost:
        findings.append(
            f"spec recount gives per-row cost {recomputed}, routine "
            f"declares {routine.cost}"
        )

    if spec.sink == "rows":
        if spec.output is None:
            n_out = spec.scan_width
            expr_cost = 0
        else:
            n_out = len(spec.output)
            expr_cost = sum(_expr_charge(e, schema) for e in spec.output)
        model = C.VEC_EMIT_BASE + C.VEC_EMIT_PER_COLUMN * n_out + expr_cost
        if namespace.get("_C2") != model:
            findings.append(
                f"_C2={namespace.get('_C2')!r}, emission model gives {model}"
            )
        zips = [m for t in texts for m in [_RE_VEC_ZIP.fullmatch(t)] if m]
        if zips:
            body = zips[0].group(1).strip()
            emitted = len(body.split(",")) if body else 0
            if emitted != n_out:
                findings.append(
                    f"emits {emitted}-column rows, spec projects {n_out}"
                )
    elif spec.sink == "probe":
        # _C2 still prices a probe and a full-width row per selected
        # row, though ``_probe`` materialises only the survivors: the
        # model clock is kept as it was and the gain is real-clock
        # only.  The call itself must be the spec's join.
        model = C.VEC_PROBE_PER_ROW + C.VEC_EMIT_PER_COLUMN * schema.natts
        if namespace.get("_C2") != model:
            findings.append(
                f"_C2={namespace.get('_C2')!r}, probe model gives {model}"
            )
        calls = [m for t in texts for m in [_RE_VEC_PROBE.fullmatch(t)] if m]
        if len(calls) != 1:
            findings.append(
                f"expected one 'out = _probe(...)' sink call, found "
                f"{len(calls)}"
            )
        else:
            kind, keys, key_nulls, pad = calls[0].groups()
            n_keys = len(spec.probe_idx)
            if kind != spec.join_type:
                findings.append(
                    f"probes as a {kind} join, spec says {spec.join_type}"
                )
            if len(keys.split(",")) != n_keys or (
                len(key_nulls.split(",")) != n_keys
            ):
                findings.append(
                    f"hands _probe key lanes [{keys}] / null lanes "
                    f"[{key_nulls}], spec probes {n_keys} keys"
                )
            if (pad is not None) != (spec.join_type == "left") or (
                pad and namespace.get("_PAD") != [None] * spec.build_width
            ):
                findings.append(
                    f"_PAD={namespace.get('_PAD')!r} for a {spec.join_type}"
                    f" join of build width {spec.build_width}"
                )
    else:  # agg
        n_args = sum(1 for a in spec.aggs if a.arg is not None)
        model = (
            C.VEC_GROUP_PER_ROW
            + C.VEC_EMIT_PER_COLUMN * (len(spec.group_exprs) + n_args)
            + sum(_expr_charge(e, schema) for e in spec.group_exprs)
            + sum(
                _expr_charge(a.arg, schema)
                for a in spec.aggs
                if a.arg is not None
            )
        )
        if namespace.get("_C2") != model:
            findings.append(
                f"_C2={namespace.get('_C2')!r}, transition model gives "
                f"{model}"
            )
    return findings
