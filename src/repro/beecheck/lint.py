"""The AST safety lint: every bee must *look like* a bee.

The paper constrains bee routines to short, self-contained, relocatable
code sequences (Section IV): the specializer unrolls the attribute loop,
folds per-attribute branching into constants, and leaves exactly one
escape to the generic slow path.  This pass parses ``BeeRoutine.source``
and enforces that shape syntactically:

* only whitelisted names and calls (``_charge``, ``_slow``, the
  ``_PREFIX``/``_S*``/``_P*``/``_VL`` data-section structs, section
  reads) may appear;
* the fast path is straight-line code — no loops, comprehensions, or
  residual per-attribute ``if``s survive specialization;
* the single slow-path escape is the first statement and is guarded by
  the header null flag (GCL) / a ``None`` scan (SCL);
* every GCL/SCL statement must match one of a closed grammar of shapes
  (matched against ``ast.unparse`` of the statement), so *any* tampering
  with the emitted arithmetic is rejected even when it is harmless
  Python.

EVP routines are predicate-shaped rather than offset-shaped, so they get
the structural rules (banned nodes, name/call whitelist, guard-free
straight-line body except ``CASE`` arm selection) without a per-statement
shape grammar.

Query-bee sources (EVP, AGG, PIPE, VEC) are *proto-bees*: one compiled
code object serves every routine of a shape, so the source may name
neither the routine nor a statement literal.  The ``def`` carries the
family prefix, the charge names the ``_NAME`` hole, literals are
``_K{n}`` holes, and the only parameters beyond the family's signature
are holes bound to themselves as defaults (``_K0=_K0``); what fills the
holes is the data section's business (:func:`lint_name_hole`, the
translation validator).
"""

from __future__ import annotations

import ast
import re

from repro.bees.routines.base import proto_entry
from repro.storage.layout import (
    BEEID_HI_BYTE,
    BEEID_LO_BYTE,
    HEADER_INFOMASK_BYTE,
    INFOMASK_HAS_NULLS,
    VARLENA_HEADER_BYTES,
)

# -- banned syntax ------------------------------------------------------------

_BANNED_NODES: tuple = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.ClassDef,
    ast.AsyncFunctionDef,
    ast.Yield,
    ast.YieldFrom,
    ast.Await,
    ast.Starred,
    ast.Delete,
    ast.Raise,
    ast.Assert,
    ast.NamedExpr,
)


_HOLE = re.compile(r"_NAME|_K\d+")


def _parse_routine(
    source: str,
    name: str,
    params: tuple[str, ...],
    findings: list[str],
    proto: bool = False,
) -> ast.FunctionDef | None:
    """Parse *source* and validate the module/function envelope.

    A *proto* source is named by its family prefix and may append hole
    parameters, each defaulting to the namespace entry of its own name.
    """
    if proto:
        name = proto_entry(name)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        findings.append(f"source does not parse: {exc}")
        return None
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        findings.append("source must define exactly one function")
        return None
    fn = tree.body[0]
    if fn.name != name:
        findings.append(f"function is named {fn.name!r}, expected {name!r}")
    args = fn.args
    names = tuple(a.arg for a in args.args)
    holes = names[len(params):] if proto else ()
    if (
        args.posonlyargs
        or args.kwonlyargs
        or args.vararg
        or args.kwarg
        or names != params + holes
        or (proto and len(args.defaults) != len(holes))
    ):
        findings.append(
            f"signature must be exactly ({', '.join(params)})"
            f"{' plus defaulted holes' if proto else ''}, got "
            f"({', '.join(names)})"
        )
    for hole, default in zip(holes, args.defaults):
        if not (
            _HOLE.fullmatch(hole)
            and isinstance(default, ast.Name)
            and default.id == hole
        ):
            findings.append(
                f"hole parameter must be bound to itself "
                f"(_K<n>=_K<n> / _NAME=_NAME), got "
                f"{hole}={ast.unparse(default)}"
            )
    if fn.decorator_list:
        findings.append("generated bees must not be decorated")
    return fn


def lint_name_hole(routine) -> list[str]:
    """The data-section half of the charge rule: a proto-bee charges
    ``_NAME``, so its namespace must bind that hole to the routine's own
    name — or its work lands on another routine's ledger line and its
    faults on another routine's health record."""
    filled = (routine.namespace or {}).get("_NAME")
    if filled != routine.name:
        return [f"_NAME hole holds {filled!r}, routine is {routine.name!r}"]
    return []


def _check_no_literals(
    fn: ast.FunctionDef, findings: list[str], what: str
) -> None:
    """A predicate-shaped proto-bee carries no statement literal: the
    only constants are the docstring, subscript indexes, and the
    ``None``/``True``/``False`` the three-valued logic tests against.
    An inlined literal is correct Python but a private shape — one code
    object per distinct value instead of one per predicate."""
    body = fn.body[1:] if fn.body and _is_docstring(fn.body[0]) else fn.body
    indexes = {
        id(node.slice)
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript)
    }
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Constant)
                and id(node) not in indexes
                and not any(node.value is k for k in (None, True, False))
            ):
                findings.append(
                    f"{what} inlines literal {node.value!r}; statement "
                    "constants belong in _K<n> holes"
                )


def _check_banned(fn: ast.FunctionDef, findings: list[str]) -> None:
    for node in ast.walk(fn):
        if isinstance(node, _BANNED_NODES):
            findings.append(
                f"banned construct {type(node).__name__} on the fast path"
            )
        elif isinstance(node, ast.FunctionDef) and node is not fn:
            findings.append("nested function definition on the fast path")


def _check_names(
    fn: ast.FunctionDef,
    allowed: re.Pattern,
    findings: list[str],
    methods: frozenset | None = None,
) -> None:
    if methods is None:
        methods = _METHODS
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not allowed.fullmatch(node.id):
            findings.append(f"name {node.id!r} is not bee-whitelisted")
        elif isinstance(node, ast.Attribute) and node.attr not in methods:
            findings.append(f"method .{node.attr}() is not bee-whitelisted")


#: Methods generated code may invoke (on data-section structs and on
#: values being decoded/encoded).
_METHODS = frozenset(
    {"unpack_from", "pack", "decode", "encode", "rstrip", "match"}
)


# -- determinism --------------------------------------------------------------

#: Identifiers (names or attributes) whose presence in generated source
#: means the bee reads ambient state or nondeterminism: wall clocks,
#: RNGs, process-specific identity (``id``/``hash`` vary per run), the
#: environment, and filesystem/introspection escapes.  A bee's output
#: must be a pure function of its arguments and its frozen data section
#: — anything else breaks replay, golden snapshots, and (once morsels
#: land) cross-worker result agreement.
_NONDET_IDENTIFIERS = frozenset({
    "time", "perf_counter", "monotonic", "process_time", "clock",
    "random", "randint", "randrange", "getrandbits", "shuffle", "urandom",
    "id", "hash", "uuid", "uuid4",
    "os", "environ", "getenv", "putenv",
    "datetime", "date", "today", "now", "utcnow",
    "globals", "locals", "vars", "input", "open", "print",
})

#: The C-text (EVJ) equivalent: ambient-state calls a cloned template
#: must never contain.
_EVJ_NONDET = re.compile(
    r"\b(time|clock|rand|srand|random|drand48|getenv|getpid|gettimeofday)"
    r"\s*\("
)


def lint_determinism(source: str, c_text: bool = False) -> list[str]:
    """Ban nondeterminism / ambient-state reads in generated bee source.

    The family name whitelists already reject unknown identifiers; this
    rule is the independent, family-agnostic statement of *why* a class
    of them can never be whitelisted, so a future family (or a loosened
    whitelist) cannot quietly admit a clock or RNG read.
    """
    if c_text:
        return [
            f"nondeterministic/ambient call {match.group(1)!r} in C template"
            for match in _EVJ_NONDET.finditer(source)
        ]
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []  # unparsable source is the family lint's finding
    findings: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _NONDET_IDENTIFIERS:
            findings.append(
                f"nondeterministic/ambient name {node.id!r} in bee source"
            )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _NONDET_IDENTIFIERS
        ):
            findings.append(
                f"nondeterministic/ambient attribute "
                f".{node.attr} in bee source"
            )
    return findings


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _match_shapes(
    body: list[ast.stmt],
    shapes: list[re.Pattern],
    findings: list[str],
    what: str,
) -> None:
    for stmt in body:
        text = ast.unparse(stmt)
        if not any(shape.fullmatch(text) for shape in shapes):
            findings.append(f"{what} statement has no allowed shape: {text!r}")


# -- GCL ---------------------------------------------------------------------

_V = r"v\d+"
_VLB = VARLENA_HEADER_BYTES

_GCL_GUARD = re.compile(
    rf"if raw\[{HEADER_INFOMASK_BYTE}\] & {INFOMASK_HAS_NULLS}:"
    r"\n    return _slow\(raw, sections\)"
)

_GCL_SHAPES = [
    re.compile(p)
    for p in (
        rf"_bv = sections\[raw\[{BEEID_LO_BYTE}\] \|"
        rf" raw\[{BEEID_HI_BYTE}\] << 8\]",
        rf"{_V} = _bv\[\d+\]",
        rf"{_V}(, {_V})*,? = _PREFIX\.unpack_from\(raw, \d+\)",
        rf"({_V}) = \1\.decode\(\)\.rstrip\(' '\)",
        rf"({_V}) = bool\(\1\)",
        r"off = \d+",
        r"off = off \+ \d+ & -\d+",
        r"ln = _VL\.unpack_from\(raw, off\)\[0\]",
        rf"{_V} = raw\[off \+ {_VLB}:off \+ {_VLB} \+ ln\]\.decode\(\)",
        rf"off = off \+ {_VLB} \+ ln",
        rf"{_V} = _S\d+\.unpack_from\(raw, off\)\[0\]",
        rf"{_V} = raw\[off:off \+ \d+\]\.decode\(\)\.rstrip\(' '\)",
        r"off = off \+ \d+",
    )
]

_GCL_RETURN = re.compile(rf"return \[{_V}(, {_V})*\]")

_GCL_NAMES = re.compile(
    r"v\d+|off|ln|raw|sections|_bv|_PREFIX|_VL|_S\d+|_slow|_charge|_COST|bool"
)


def lint_gcl(source: str, name: str) -> list[str]:
    """Lint one generated GCL routine; returns finding messages."""
    return _lint_offsets_routine(
        source,
        name,
        params=("raw", "sections"),
        guard=_GCL_GUARD,
        shapes=_GCL_SHAPES,
        final=_GCL_RETURN,
        names=_GCL_NAMES,
        what="GCL",
    )


# -- GCL column sink ----------------------------------------------------------
#
# The column sink is the GCL body inside a page loop: per-column append
# binders, ``for raw in raws``, the same null-flag guard (escaping to the
# reference column sink), the unrolled deform statements, then one append
# per attribute.  The envelope is checked here; the deform statements
# are checked by rewriting the routine into the row sink it was emitted
# beside and running the GCL grammar (and, in absint, the offset proofs)
# on that — one grammar, two sinks.

_GCLC_GUARD = (
    f"if raw[{HEADER_INFOMASK_BYTE}] & {INFOMASK_HAS_NULLS}:"
    "\n    _slow((raw,), sections, cols, nulls)\n    continue"
)
_GCLC_BIND_COL = re.compile(r"a(\d+) = cols\[(\d+)\]\.append")
_GCLC_BIND_NULL = re.compile(r"n(\d+) = nulls\[(\d+)\]\.append")
_GCLC_PUT = re.compile(rf"a(\d+)\(({_V})\)")
_GCLC_FLAG = re.compile(r"n(\d+)\(False\)")

_GCLC_NAMES = re.compile(
    r"v\d+|a\d+|n\d+|off|ln|raw|raws|sections|cols|nulls|_bv|_PREFIX|_VL"
    r"|_S\d+|_slow|bool"
)


def gcl_cols_as_row_source(
    source: str, name: str
) -> tuple[str | None, list[int], list[str]]:
    """Check the column sink's envelope and rewrite it as a row sink.

    Returns ``(row_source, nullable, findings)``: the GCL row-sink
    source with the same deform statements (``None`` when the envelope
    is too broken to rewrite), the attnums the routine keeps null flags
    for, and the envelope findings.  The rewritten return list is built
    from the appends as emitted, so an attribute appended to the wrong
    column shows up as a misordered row to the GCL checks.
    """
    findings: list[str] = []
    fn = _parse_routine(
        source, name, ("raws", "sections", "cols", "nulls"), findings
    )
    if fn is None:
        return None, [], findings
    _check_names(fn, _GCLC_NAMES, findings, _METHODS | {"append"})
    body = list(fn.body)
    if body and _is_docstring(body[0]):
        body = body[1:]
    if not body or not isinstance(body[-1], ast.For):
        findings.append("column sink must end in the page loop")
        return None, [], findings

    def binders(pattern: re.Pattern, stmts: list[str], what: str) -> list[int]:
        found = []
        for text in stmts:
            m = pattern.fullmatch(text)
            if m is None or m.group(1) != m.group(2):
                findings.append(f"bad {what} binder: {text!r}")
            else:
                found.append(int(m.group(1)))
        return found

    prologue = [ast.unparse(stmt) for stmt in body[:-1]]
    n_cols = sum(1 for text in prologue if text.startswith("a"))
    columns = binders(_GCLC_BIND_COL, prologue[:n_cols], "column")
    nullable = binders(_GCLC_BIND_NULL, prologue[n_cols:], "null-flag")
    if columns != list(range(len(columns))) or nullable != sorted(set(nullable)):
        findings.append(
            f"binders must cover columns 0..n in order, got {columns} "
            f"and null flags {nullable}"
        )

    loop = body[-1]
    if (
        ast.unparse(loop.target) != "raw"
        or ast.unparse(loop.iter) != "raws"
        or loop.orelse
    ):
        findings.append("page loop must be exactly 'for raw in raws'")
    stmts = list(loop.body)
    if not stmts or ast.unparse(stmts[0]) != _GCLC_GUARD:
        findings.append(
            "loop must open with the null-flag escape to the reference "
            "column sink"
        )
    stmts = stmts[1:]
    n_tail = len(columns) + len(nullable)
    tail = [ast.unparse(stmt) for stmt in stmts[len(stmts) - n_tail:]]
    puts = [_GCLC_PUT.fullmatch(text) for text in tail[:len(columns)]]
    flags = [_GCLC_FLAG.fullmatch(text) for text in tail[len(columns):]]
    if (
        len(stmts) < n_tail
        or None in puts
        or [int(m.group(1)) for m in puts] != columns
        or None in flags
        or [int(m.group(1)) for m in flags] != nullable
    ):
        findings.append(
            "loop must close with one append per column, in column "
            f"order, then one False per null-flag list; got {tail}"
        )
        return None, nullable, findings

    deform = "\n".join(ast.unparse(stmt) for stmt in stmts[:-n_tail])
    row_source = (
        f"def {name}(raw, sections):\n"
        f"    if raw[{HEADER_INFOMASK_BYTE}] & {INFOMASK_HAS_NULLS}:\n"
        "        return _slow(raw, sections)\n"
        f"    _charge({name!r}, _COST)\n"
        + "".join(f"    {line}\n" for line in deform.splitlines())
        + f"    return [{', '.join(m.group(2) for m in puts)}]\n"
    )
    return row_source, nullable, findings


def lint_gcl_cols(source: str, name: str) -> list[str]:
    """Lint one generated GCL column sink; returns finding messages."""
    row_source, _nullable, findings = gcl_cols_as_row_source(source, name)
    if row_source is not None:
        findings += lint_gcl(row_source, name)
    return findings


# -- SCL ---------------------------------------------------------------------

_ARG = r"(values\[\d+\]|int\(values\[\d+\]\)|_char\(values\[\d+\], \d+, '[^']*'\))"

_SCL_GUARD = re.compile(r"if None in values:\n    return _slow\(values, bee_id\)")

_SCL_SHAPES = [
    re.compile(p)
    for p in (
        r"out = bytearray\(_HDR\)",
        rf"out\[{BEEID_LO_BYTE}\] = bee_id & 255",
        rf"out\[{BEEID_HI_BYTE}\] = bee_id >> 8 & 255",
        rf"out \+= _PREFIX\.pack\({_ARG}(, {_ARG})*\)",
        r"off = \d+",
        r"pad = \(off \+ \d+ & -\d+\) - off",
        r"out \+= b'\\x00' \* pad",
        r"off = off \+ pad",
        r"b = values\[\d+\]\.encode\(\)",
        r"out \+= _VL\.pack\(len\(b\)\)",
        r"out \+= b",
        rf"off = off \+ {_VLB} \+ len\(b\)",
        rf"out \+= _P\d+\.pack\({_ARG}\)",
        rf"out \+= _char\(values\[\d+\], \d+, '[^']*'\)",
        r"off = off \+ \d+",
    )
]

_SCL_RETURN = re.compile(r"return bytes\(out\)")

_SCL_NAMES = re.compile(
    r"values|bee_id|out|off|pad|b|_HDR|_PREFIX|_VL|_P\d+|_char|_slow"
    r"|_charge|_COST|bytearray|bytes|int|len"
)


def lint_scl(source: str, name: str) -> list[str]:
    """Lint one generated SCL routine; returns finding messages."""
    return _lint_offsets_routine(
        source,
        name,
        params=("values", "bee_id"),
        guard=_SCL_GUARD,
        shapes=_SCL_SHAPES,
        final=_SCL_RETURN,
        names=_SCL_NAMES,
        what="SCL",
    )


def _lint_offsets_routine(
    source: str,
    name: str,
    params: tuple[str, ...],
    guard: re.Pattern,
    shapes: list[re.Pattern],
    final: re.Pattern,
    names: re.Pattern,
    what: str,
) -> list[str]:
    findings: list[str] = []
    fn = _parse_routine(source, name, params, findings)
    if fn is None:
        return findings
    _check_banned(fn, findings)
    _check_names(fn, names, findings)

    body = list(fn.body)
    if body and _is_docstring(body[0]):
        body = body[1:]
    if len(body) < 3:
        findings.append(f"{what} body too short to be a bee")
        return findings

    # Exactly one escape: the null/None guard, first.
    if not guard.fullmatch(ast.unparse(body[0])):
        findings.append(
            f"first statement must be the slow-path guard, got "
            f"{ast.unparse(body[0])!r}"
        )
    branches = [n for n in ast.walk(fn) if isinstance(n, ast.If)]
    if len(branches) != 1:
        findings.append(
            f"fast path must be branch-free apart from the guard "
            f"({len(branches)} if-statements found)"
        )
    returns = [n for n in ast.walk(fn) if isinstance(n, ast.Return)]
    if len(returns) != 2:
        findings.append(
            f"exactly two returns expected (escape + result), "
            f"found {len(returns)}"
        )

    # The charge must immediately follow the guard and name the routine.
    expected_charge = f"_charge('{name}', _COST)"
    if ast.unparse(body[1]) != expected_charge:
        findings.append(
            f"second statement must be {expected_charge!r}, got "
            f"{ast.unparse(body[1])!r}"
        )

    if not final.fullmatch(ast.unparse(body[-1])):
        findings.append(
            f"last statement must be the {what} return, got "
            f"{ast.unparse(body[-1])!r}"
        )

    _match_shapes(body[2:-1], shapes, findings, what)
    return findings


# -- EVP ---------------------------------------------------------------------

_EVP_NAMES = re.compile(
    r"row|t\d+|_K\d+|re\d+|in\d+|fn\d+|_charge|_COST|_NAME"
)
_EVP_TEMP = re.compile(r"t\d+")
#: Branch tests of the guarded variant: CASE arm selection, an AND/OR
#: still undecided, and a strict node's arguments so far not NULL.
_EVP_BRANCH_TEST = re.compile(
    r"t\d+ is True|t\d+ is not (?:False|True)"
    r"|t\d+ is not None(?: and t\d+ is not None)*"
)


def _lint_evp_stmt(stmt: ast.stmt, findings: list[str]) -> None:
    """EVP bodies are assignments to temps plus the guarded variant's
    branches (CASE arms, short-circuits), which only assign temps."""
    if isinstance(stmt, ast.Assign):
        if len(stmt.targets) != 1 or not (
            isinstance(stmt.targets[0], ast.Name)
            and _EVP_TEMP.fullmatch(stmt.targets[0].id)
        ):
            findings.append(
                f"EVP may only assign to t-temps: {ast.unparse(stmt)!r}"
            )
        return
    if isinstance(stmt, ast.If):
        if not _EVP_BRANCH_TEST.fullmatch(ast.unparse(stmt.test)):
            findings.append(
                f"EVP branch must test a temp, got "
                f"{ast.unparse(stmt.test)!r}"
            )
        for branch_stmt in stmt.body + stmt.orelse:
            _lint_evp_stmt(branch_stmt, findings)
        return
    findings.append(f"EVP statement kind not allowed: {ast.unparse(stmt)!r}")


def lint_evp(source: str, name: str) -> list[str]:
    """Lint one generated EVP routine (either variant)."""
    findings: list[str] = []
    fn = _parse_routine(source, name, ("row",), findings, proto=True)
    if fn is None:
        return findings
    _check_banned(fn, findings)
    _check_names(fn, _EVP_NAMES, findings)
    _check_no_literals(fn, findings, "EVP")

    body = list(fn.body)
    if body and _is_docstring(body[0]):
        body = body[1:]
    if len(body) < 2:
        findings.append("EVP body too short to be a bee")
        return findings

    expected_charge = "_charge(_NAME, _COST)"
    if ast.unparse(body[0]) != expected_charge:
        findings.append(
            f"first statement must be {expected_charge!r}, got "
            f"{ast.unparse(body[0])!r}"
        )
    if not isinstance(body[-1], ast.Return) or body[-1].value is None:
        findings.append("last statement must return the predicate value")
    for stmt in body[1:-1]:
        _lint_evp_stmt(stmt, findings)

    # `row` may only be read through constant-index subscripts.
    subscripted = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "row"
        ):
            if isinstance(node.slice, ast.Constant) and isinstance(
                node.slice.value, int
            ):
                subscripted.add(id(node.value))
            else:
                findings.append(
                    f"row index must be a constant int: {ast.unparse(node)!r}"
                )
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Name)
            and node.id == "row"
            and id(node) not in subscripted
        ):
            findings.append("row must be read as row[<constant int>]")
    return findings


# -- EVJ ---------------------------------------------------------------------

#: The full shape of a cloned EVJ template.  EVJ is the one bee kind kept
#: as C text (the paper pre-compiles the join-type combinations ahead of
#: time and only clones at preparation); the lint is therefore a
#: whole-source grammar rather than an AST walk.
_EVJ_TEMPLATE_RE = re.compile(
    r"/\* EVJ template: (\w+) join, (\d+) key\(s\) — dispatch folded,\n"
    r"   key comparison inlined \((\d+) instructions per candidate"
    r" pair\)\. \*/\n"
    r"static bool evj_(\w+)\(Datum \*outer, Datum \*inner\)\n"
    r"\{\n"
    r"((?:    if \(outer\[\d+\] != inner\[\d+\]\) return false;\n)*)"
    r"    return (?:true|false);(?:  /\* match suppresses emission \*/)?\n"
    r"\}\n"
)

_EVJ_JOIN_TYPES = ("inner", "left", "semi", "anti")


def lint_evj(source: str) -> list[str]:
    """Lint one cloned EVJ template (C text) against the template grammar."""
    findings: list[str] = []
    m = _EVJ_TEMPLATE_RE.fullmatch(source)
    if m is None:
        findings.append("EVJ source does not match the template grammar")
        return findings
    comment_type, _n_keys, _cost, fn_type = m.group(1), m.group(2), m.group(
        3
    ), m.group(4)
    if comment_type != fn_type:
        findings.append(
            f"header comment says {comment_type!r} join but the function "
            f"is evj_{fn_type}"
        )
    if fn_type not in _EVJ_JOIN_TYPES:
        findings.append(f"unknown join type {fn_type!r}")
    return findings


# -- AGG ---------------------------------------------------------------------

_AGG_NAMES = re.compile(
    r"row|states|t\d+|_K\d+|re\d+|in\d+|fn\d+|_charge|_COST|_NAME"
)
_AGG_METHODS = _METHODS | {"update"}
_AGG_GUARD_TEST = re.compile(r".+ is not None|t\d+ is True")


def _is_states_update(stmt: ast.stmt) -> bool:
    """``states[<const int>].update(<expr>)`` as an expression statement."""
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr == "update"
        and isinstance(stmt.value.func.value, ast.Subscript)
        and isinstance(stmt.value.func.value.value, ast.Name)
        and stmt.value.func.value.value.id == "states"
        and isinstance(stmt.value.func.value.slice, ast.Constant)
        and isinstance(stmt.value.func.value.slice.value, int)
        and len(stmt.value.args) == 1
        and not stmt.value.keywords
    )


def _lint_agg_stmt(stmt: ast.stmt, findings: list[str]) -> None:
    """AGG bodies: t-temp assignments, guards, and accumulator updates."""
    if isinstance(stmt, ast.Assign):
        if len(stmt.targets) != 1 or not (
            isinstance(stmt.targets[0], ast.Name)
            and _EVP_TEMP.fullmatch(stmt.targets[0].id)
        ):
            findings.append(
                f"AGG may only assign to t-temps: {ast.unparse(stmt)!r}"
            )
        return
    if _is_states_update(stmt):
        return
    if isinstance(stmt, ast.If):
        if not _AGG_GUARD_TEST.fullmatch(ast.unparse(stmt.test)):
            findings.append(
                f"AGG branch must be a NULL guard or CASE arm, got "
                f"{ast.unparse(stmt.test)!r}"
            )
        for branch_stmt in stmt.body + stmt.orelse:
            _lint_agg_stmt(branch_stmt, findings)
        return
    findings.append(f"AGG statement kind not allowed: {ast.unparse(stmt)!r}")


def lint_agg(source: str, name: str) -> list[str]:
    """Lint one generated AGG transition routine."""
    findings: list[str] = []
    fn = _parse_routine(
        source, name, ("row", "states"), findings, proto=True
    )
    if fn is None:
        return findings
    _check_banned(fn, findings)
    _check_names(fn, _AGG_NAMES, findings, methods=_AGG_METHODS)
    _check_no_literals(fn, findings, "AGG")
    for node in ast.walk(fn):
        if isinstance(node, ast.Return):
            findings.append(
                "AGG transitions mutate states and must not return"
            )

    body = list(fn.body)
    if body and _is_docstring(body[0]):
        body = body[1:]
    if len(body) < 2:
        findings.append("AGG body too short to be a bee")
        return findings
    expected_charge = "_charge(_NAME, _COST)"
    if ast.unparse(body[0]) != expected_charge:
        findings.append(
            f"first statement must be {expected_charge!r}, got "
            f"{ast.unparse(body[0])!r}"
        )
    for stmt in body[1:]:
        _lint_agg_stmt(stmt, findings)

    # `states` may only appear as the receiver of an accumulator update.
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "states"
            and not (
                isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, int)
            )
        ):
            findings.append(
                f"states index must be a constant int: {ast.unparse(node)!r}"
            )
    return findings


# -- PIPE --------------------------------------------------------------------

#: Pipeline bees are the one bee kind allowed a loop: exactly one batch
#: loop (``for raw in batch:``; ``for raw, v<natts> in batch:`` when the
#: scan carries ctid) plus, on the probe sink, the candidate emission
#: loop (``for _b in _cands:``).  Everything else stays banned.
_PIPE_BANNED: tuple = tuple(n for n in _BANNED_NODES if n is not ast.For)

_PIPE_PARAMS = {
    "rows": ("batch", "sections"),
    "probe": ("batch", "sections", "table"),
    "agg": ("batch", "sections", "groups", "make_states"),
}

_PIPE_CHARGE = {
    "rows": "_charge(_NAME, _C0 + _C1 * len(batch) + _C2 * len(out))",
    "probe": (
        "_charge(_NAME, _C0 + _C1 * len(batch) + _C2 * _np + "
        "_C3 * _nc + _C4 * len(out))"
    ),
    "agg": "_charge(_NAME, _C0 + _C1 * len(batch) + _C2 * _np)",
}

_PIPE_NAMES = re.compile(
    r"v\d+|t\d+|_K\d+|re\d+|in\d+|fn\d+|raw|batch|sections|out|row|off|ln"
    r"|_r|_bv|_slow|_charge|_NAME|_append|_PREFIX|_VL|_S\d+|_C[0-4]|_k|_st"
    r"|_cands|_get|_b|_np|_nc|_PAD|_CS|groups|make_states|table|bool|len"
)

_PIPE_METHODS = _METHODS | {"append", "get", "update"}

_PIPE_GUARD_TEST = re.compile(
    rf"raw\[{HEADER_INFOMASK_BYTE}\] & {INFOMASK_HAS_NULLS}"
)

_PIPE_SLOW_SHAPE = re.compile(rf"{_V} = _r\[\d+\]")

#: The inlined (pruned) relation-bee deform: the GCL offset grammar with
#: locals assigned instead of a list returned, plus the ``pass`` filler
#: for a deform that decodes nothing.
_PIPE_DEFORM_SHAPES = [
    re.compile(p)
    for p in (
        rf"_bv = sections\[raw\[{BEEID_LO_BYTE}\] \|"
        rf" raw\[{BEEID_HI_BYTE}\] << 8\]",
        rf"{_V} = _bv\[\d+\]",
        rf"{_V}(, {_V})*,? = _PREFIX\.unpack_from\(raw, \d+\)",
        rf"({_V}) = \1\.decode\(\)\.rstrip\(' '\)",
        rf"({_V}) = bool\(\1\)",
        r"off = \d+",
        r"off = off \+ \d+ & -\d+",
        r"ln = _VL\.unpack_from\(raw, off\)\[0\]",
        rf"{_V} = raw\[off \+ {_VLB}:off \+ {_VLB} \+ ln\]\.decode\(\)",
        rf"off = off \+ {_VLB} \+ ln",
        rf"{_V} = _S\d+\.unpack_from\(raw, off\)\[0\]",
        rf"{_V} = raw\[off:off \+ \d+\]\.decode\(\)\.rstrip\(' '\)",
        r"off = off \+ \d+",
        r"pass",
    )
]

_PIPE_PROLOGUE_SHAPES = [
    re.compile(p)
    for p in (
        r"out = \[\]",
        r"_append = out\.append",
        r"_np = 0",
        r"_nc = 0",
        r"_get = table\.get",
        r"_st = groups\[\(\)\]",
    )
]

#: Simple statements allowed inside the batch loop (after the NULL
#: guard): guarded-expression temps, the loop counters, and the three
#: sinks' emission/lookup statements.  Expression *text* is not pinned —
#: names and node kinds are already constrained, and semantic drift is
#: the translation validator's lane (as for EVP).
_PIPE_STMT_SHAPES = [
    re.compile(p)
    for p in (
        r"t\d+ = .+",
        r"_np \+= 1",
        r"_nc \+= len\(_cands\)",
        r"_append\(\[.*\]\)",
        r"_append\(row \+ _b\)",
        r"_append\(row \+ _PAD\)",
        r"_cands = _get\(\(.+\), \(\)\)(?: if .+ else \(\))?",
        r"row = \[.*\]",
        r"_k = \(.+\)",
        r"_st = groups\.get\(_k\)",
        r"_st = make_states\(\)",
        r"groups\[_k\] = _st",
        r"_st\[\d+\]\.update\(.+\)",
    )
]

#: If-tests allowed inside the loop beyond reject-and-continue: CASE arm
#: selection, an AND/OR still undecided, NULL guards, new-group
#: detection, and candidate presence.
_PIPE_IF_TEST = re.compile(
    r"t\d+ is True|t\d+ is not (?:False|True)|.+ is not None|_st is None"
    r"|_cands|not _cands"
)


def _lint_pipe_stmt(stmt: ast.stmt, findings: list[str]) -> None:
    """One statement of the batch-loop body (guard already consumed)."""
    if isinstance(stmt, ast.For):
        if not (
            isinstance(stmt.target, ast.Name)
            and stmt.target.id == "_b"
            and isinstance(stmt.iter, ast.Name)
            and stmt.iter.id == "_cands"
            and not stmt.orelse
        ):
            findings.append(
                f"PIPE inner loop must be 'for _b in _cands': "
                f"{ast.unparse(stmt)!r}"
            )
        for inner in stmt.body:
            _lint_pipe_stmt(inner, findings)
        return
    if isinstance(stmt, ast.If):
        rejects = (
            len(stmt.body) == 1
            and isinstance(stmt.body[0], ast.Continue)
            and not stmt.orelse
        )
        if rejects:
            return  # qualification / empty-candidate rejection
        if not _PIPE_IF_TEST.fullmatch(ast.unparse(stmt.test)):
            findings.append(
                f"PIPE branch test not allowed: {ast.unparse(stmt.test)!r}"
            )
        for inner in stmt.body + stmt.orelse:
            _lint_pipe_stmt(inner, findings)
        return
    if isinstance(stmt, ast.Continue):
        return
    text = ast.unparse(stmt)
    if not any(shape.fullmatch(text) for shape in _PIPE_STMT_SHAPES):
        findings.append(f"PIPE statement has no allowed shape: {text!r}")


def _lint_pipe_guard(stmt: ast.If, findings: list[str]) -> None:
    """The per-tuple NULL guard: slow-path escape, else inlined deform."""
    body = stmt.body
    if not body or ast.unparse(body[0]) != "_r = _slow(raw, sections)":
        findings.append(
            "PIPE NULL-guard slow path must start with "
            "'_r = _slow(raw, sections)'"
        )
        return
    for inner in body[1:]:
        text = ast.unparse(inner)
        if not _PIPE_SLOW_SHAPE.fullmatch(text):
            findings.append(
                f"PIPE slow-path statement has no allowed shape: {text!r}"
            )
    if not stmt.orelse:
        findings.append("PIPE NULL guard has no fast-path deform branch")
    _match_shapes(stmt.orelse, _PIPE_DEFORM_SHAPES, findings, "PIPE deform")


def lint_pipeline(
    source: str, name: str, sink: str, ctid_local: str | None = None
) -> list[str]:
    """Lint one generated pipeline routine against the fused-loop
    grammar.  *ctid_local* is the hoisted local (``v<natts>``) a ctid
    spec's batch loop must bind beside ``raw``; ``None`` for every other
    spec, whose loop must not bind one."""
    findings: list[str] = []
    if sink not in _PIPE_PARAMS:
        return [f"unknown pipeline sink {sink!r}"]
    fn = _parse_routine(
        source, name, _PIPE_PARAMS[sink], findings, proto=True
    )
    if fn is None:
        return findings
    for node in ast.walk(fn):
        if isinstance(node, _PIPE_BANNED):
            findings.append(
                f"banned construct {type(node).__name__} in pipeline body"
            )
        elif isinstance(node, ast.FunctionDef) and node is not fn:
            findings.append("nested function definition in pipeline body")
    _check_names(fn, _PIPE_NAMES, findings, methods=_PIPE_METHODS)

    body = list(fn.body)
    if body and _is_docstring(body[0]):
        body = body[1:]

    loops = [s for s in body if isinstance(s, ast.For)]
    if len(loops) != 1:
        findings.append(
            f"pipeline must have exactly one batch loop, found {len(loops)}"
        )
        return findings
    loop = loops[0]
    target = "raw" if ctid_local is None else f"(raw, {ctid_local})"
    if not (
        ast.unparse(loop.target) == target
        and isinstance(loop.iter, ast.Name)
        and loop.iter.id == "batch"
        and not loop.orelse
    ):
        findings.append(f"batch loop must be exactly 'for {target} in batch:'")

    _match_shapes(
        body[: body.index(loop)],
        _PIPE_PROLOGUE_SHAPES,
        findings,
        "PIPE prologue",
    )

    epilogue = body[body.index(loop) + 1 :]
    expected_charge = _PIPE_CHARGE[sink]
    if not epilogue or ast.unparse(epilogue[0]) != expected_charge:
        got = ast.unparse(epilogue[0]) if epilogue else "<missing>"
        findings.append(
            f"statement after the batch loop must be {expected_charge!r}, "
            f"got {got!r}"
        )
    returns = [n for n in ast.walk(fn) if isinstance(n, ast.Return)]
    if sink == "agg":
        if len(epilogue) != 1:
            findings.append(
                "agg pipeline must end at the batch charge "
                f"({len(epilogue)} statements after the loop)"
            )
        if returns:
            findings.append("agg pipelines mutate groups and must not return")
    else:
        if len(epilogue) != 2 or ast.unparse(epilogue[-1]) != "return out":
            findings.append("pipeline must end with 'return out'")
        if len(returns) != 1:
            findings.append(
                f"exactly one return expected, found {len(returns)}"
            )

    loop_body = list(loop.body)
    if (
        loop_body
        and isinstance(loop_body[0], ast.If)
        and _PIPE_GUARD_TEST.fullmatch(ast.unparse(loop_body[0].test))
    ):
        _lint_pipe_guard(loop_body.pop(0), findings)
    for stmt in loop_body:
        _lint_pipe_stmt(stmt, findings)
    return findings


# -- VEC ---------------------------------------------------------------------

#: Vector kernels are whole-column programs: loops are allowed only for
#: the agg sink's epilogues (bucket build / finalize; the probe sink is
#: key lanes plus one ``_probe`` call), and comprehensions carry the
#: object-lane and reduction work, so the pipeline bans are relaxed
#: accordingly.  As with EVP, expression text
#: is not pinned — names, loop shapes, and the charge line are; semantic
#: drift is the translation validator's lane.
_VEC_BANNED: tuple = tuple(
    node
    for node in _BANNED_NODES
    if node
    not in (ast.For, ast.ListComp, ast.SetComp, ast.GeneratorExp)
)

_VEC_PARAMS = {
    "rows": ("cols", "nulls", "n"),
    "probe": ("cols", "nulls", "n", "table"),
    "agg": ("cols", "nulls", "n"),
}

_VEC_CHARGE = "_charge(_NAME, _C0 + _C1 * n + _C2 * _m)"

_VEC_NAMES = re.compile(
    r"t\d+|_K\d+|_E\d+|_C[0-2]|cols|nulls|n|table|out|_np|_obj|_zip_rows"
    r"|_materialize|_probe|_div|_idx|_m|_r|_v|_b|_k|_ix|_i|_vals|_row|_buckets"
    r"|_charge|_NAME|_PAD|_NOSEL|len|range|sum|min|max|list|v"
)

_VEC_METHODS = frozenset(
    {
        "nonzero", "fromiter", "zeros", "bool_", "items", "append", "get",
        "evaluate",
    }
)

#: The only loops a kernel may contain, as (target, iterable) texts.
_VEC_LOOPS = (
    ("_i", "range(_m)"),          # agg bucket build
    ("(_k, _ix)", "_buckets.items()"),   # agg finalize
)


def lint_vector(
    source: str, name: str, sink: str, width: int | None = None
) -> list[str]:
    """Lint one generated vector kernel against the columnar grammar.
    *width* bounds the chunk columns it may read: the schema's, plus the
    ``tids`` column at index ``natts`` for a ctid spec."""
    findings: list[str] = []
    if sink not in _VEC_PARAMS:
        return [f"unknown vector sink {sink!r}"]
    fn = _parse_routine(
        source, name, _VEC_PARAMS[sink], findings, proto=True
    )
    if fn is None:
        return findings
    for node in ast.walk(fn):
        if isinstance(node, _VEC_BANNED):
            findings.append(
                f"banned construct {type(node).__name__} in vector kernel"
            )
        elif isinstance(node, ast.FunctionDef) and node is not fn:
            findings.append("nested function definition in vector kernel")
    _check_names(fn, _VEC_NAMES, findings, methods=_VEC_METHODS)

    # Loops only in the closed sink-epilogue set.
    for node in ast.walk(fn):
        if isinstance(node, ast.For):
            pair = (ast.unparse(node.target), ast.unparse(node.iter))
            if pair not in _VEC_LOOPS or node.orelse:
                findings.append(
                    f"vector loop not allowed: 'for {pair[0]} in {pair[1]}'"
                )

    # Chunk arrays may only be read at constant attribute numbers,
    # inside the scan's row.
    for node in ast.walk(fn):
        if not (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("cols", "nulls")
        ):
            continue
        index = node.slice
        if not (
            isinstance(index, ast.Constant) and isinstance(index.value, int)
        ):
            findings.append(
                f"chunk index must be a constant int: {ast.unparse(node)!r}"
            )
        elif width is not None and not 0 <= index.value < width:
            findings.append(
                f"chunk index outside the scan's {width} columns: "
                f"{ast.unparse(node)!r}"
            )

    body = list(fn.body)
    if body and _is_docstring(body[0]):
        body = body[1:]
    if len(body) < 3:
        findings.append("VEC body too short to be a kernel")
        return findings
    if ast.unparse(body[-2]) != _VEC_CHARGE:
        findings.append(
            f"second-to-last statement must be {_VEC_CHARGE!r}, got "
            f"{ast.unparse(body[-2])!r}"
        )
    if ast.unparse(body[-1]) != "return out":
        findings.append("vector kernel must end with 'return out'")
    returns = [node for node in ast.walk(fn) if isinstance(node, ast.Return)]
    if len(returns) != 1:
        findings.append(
            f"exactly one return expected, found {len(returns)}"
        )
    return findings


# -- IDX ---------------------------------------------------------------------

_IDX_NAMES = re.compile(r"values|_charge|_COST")


def lint_idx(source: str, name: str) -> list[str]:
    """Lint one generated IDX key extractor."""
    findings: list[str] = []
    fn = _parse_routine(source, name, ("values",), findings)
    if fn is None:
        return findings
    _check_banned(fn, findings)
    _check_names(fn, _IDX_NAMES, findings)

    body = list(fn.body)
    if body and _is_docstring(body[0]):
        body = body[1:]
    if len(body) != 2:
        findings.append(
            f"IDX body must be charge + return, got {len(body)} statements"
        )
        return findings
    expected_charge = f"_charge('{name}', _COST)"
    if ast.unparse(body[0]) != expected_charge:
        findings.append(
            f"first statement must be {expected_charge!r}, got "
            f"{ast.unparse(body[0])!r}"
        )
    ret = body[1]
    if not (isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple)):
        findings.append("IDX must end with a tuple return")
        return findings
    for element in ret.value.elts:
        if not (
            isinstance(element, ast.Subscript)
            and isinstance(element.value, ast.Name)
            and element.value.id == "values"
            and isinstance(element.slice, ast.Constant)
            and isinstance(element.slice.value, int)
        ):
            findings.append(
                f"IDX key element must be values[<constant int>]: "
                f"{ast.unparse(element)!r}"
            )
    return findings
