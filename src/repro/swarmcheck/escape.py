"""Pass 3 — escape analysis for cached chunk arrays.

A :class:`~repro.bees.vector.chunks.Chunk` entering the
:class:`~repro.bees.vector.chunks.ChunkCache` is shared by every
statement (and, later, every morsel worker) that scans the relation at
that heap version.  Safety requires that no code path mutates a column
or null-mask array after insertion.  Two proofs, belt and suspenders:

* **Static** — scan the vector-tier engine modules and every generated
  vector kernel for array mutation forms: subscript stores and
  augmented assignments rooted at ``cols``/``nulls`` (or ``Chunk``
  attribute paths), ``out=`` destination kwargs, mutating ndarray
  methods, and any ``setflags`` call that does not *freeze*
  (``write=False`` is the one legal form — freezing is monotone).
* **Runtime** — after the corpus's vector-tier databases ran the fuzz
  stream, assert every array in every cached chunk reports ``flags.writeable == False`` (the
  satellite freeze in ``ChunkCache.get`` makes accidental mutation an
  immediate ``ValueError`` rather than silent corruption).
"""

from __future__ import annotations

import ast

from repro.verify.report import Finding

#: Engine modules where chunk arrays live or flow.
VECTOR_MODULES = (
    "bees/vector/chunks.py",
    "bees/vector/codegen.py",
    "bees/drivers.py",
)

#: Array names that alias cached chunk columns in engine/kernel code.
_CHUNK_ROOTS = frozenset({"cols", "nulls", "arr", "mask"})

#: ndarray methods that mutate the array in place.
_ARRAY_MUTATORS = frozenset({
    "fill", "put", "resize", "itemset", "sort", "partition", "byteswap",
})


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _touches_chunk(node: ast.expr) -> bool:
    """True when the store target is (an element of) a chunk array:
    rooted at a chunk-array name, or an attribute path through
    ``.cols`` / ``.nulls`` / ``.tids``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in (
            "cols", "nulls", "tids",
        ):
            return True
    root = _root_name(node)
    return root in _CHUNK_ROOTS


def _freezing_setflags(call: ast.Call) -> bool:
    """``x.setflags(write=False)`` and nothing else."""
    if call.args or len(call.keywords) != 1:
        return False
    kw = call.keywords[0]
    return (
        kw.arg == "write"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is False
    )


class _EscapeScanner(ast.NodeVisitor):
    def __init__(self, where: str) -> None:
        self.where = where
        self.findings: list[Finding] = []

    def _flag(self, detail: str, lineno: int) -> None:
        self.findings.append(Finding(
            "escape", self.where, detail, self.where, lineno,
        ))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript) and _touches_chunk(target):
                self._flag(
                    f"subscript store into chunk array: "
                    f"{ast.unparse(target)} = ...", node.lineno,
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(
            node.target, (ast.Subscript, ast.Attribute)
        ) and _touches_chunk(node.target):
            self._flag(
                f"augmented assignment into chunk array: "
                f"{ast.unparse(node.target)}", node.lineno,
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Attribute):
            if fn.attr == "setflags" and not _freezing_setflags(node):
                self._flag(
                    f"non-freezing setflags on {ast.unparse(fn.value)}",
                    node.lineno,
                )
            elif fn.attr in _ARRAY_MUTATORS and _touches_chunk(fn.value):
                self._flag(
                    f"mutating ndarray method "
                    f"{ast.unparse(fn.value)}.{fn.attr}()", node.lineno,
                )
        for kw in node.keywords:
            if kw.arg == "out":
                self._flag(
                    "out= destination kwarg (writes into an existing "
                    "array)", node.lineno,
                )
        self.generic_visit(node)


def scan_modules(source) -> list[Finding]:
    """Static scan of the vector-tier engine modules."""
    findings: list[Finding] = []
    for module in VECTOR_MODULES:
        scanner = _EscapeScanner(module)
        scanner.visit(source.tree(module))
        findings.extend(scanner.findings)
    return findings


def scan_kernels(corpus) -> tuple[list[Finding], int]:
    """Static scan of every generated vector kernel in *corpus*."""
    findings: list[Finding] = []
    checked = 0
    for kind, routine in corpus:
        if kind != "vector":
            continue
        checked += 1
        try:
            tree = ast.parse(routine.source)
        except SyntaxError:
            continue  # purity pass reports unparsable source
        scanner = _EscapeScanner(routine.name)
        scanner.visit(tree)
        findings.extend(scanner.findings)
    return findings, checked


def check_entries(chunks) -> tuple[list, int]:
    """Assert every array of every cached chunk in *chunks* (``uid ->
    Chunk``) is frozen; returns ``(findings, arrays_checked)``."""
    findings: list[Finding] = []
    arrays = 0
    for uid, chunk in chunks.items():
        for i, arr in enumerate(chunk.cols):
            arrays += 1
            if arr.flags.writeable:
                findings.append(Finding(
                    "escape", f"chunk:{uid}",
                    f"cached column array {i} is WRITABLE",
                ))
        for i, mask in enumerate(chunk.nulls):
            if mask is None:
                continue
            arrays += 1
            if mask.flags.writeable:
                findings.append(Finding(
                    "escape", f"chunk:{uid}",
                    f"cached null mask {i} is WRITABLE",
                ))
        if chunk.tids is not None:
            arrays += 1
            if chunk.tids.flags.writeable:
                findings.append(Finding(
                    "escape", f"chunk:{uid}", "cached tid array is WRITABLE",
                ))
    return findings, arrays


def runtime_check(databases) -> tuple[list, int]:
    """Verify every array the corpus *databases* left in their chunk
    caches is frozen.  Returns ``(findings, arrays_checked)``."""
    findings: list[Finding] = []
    arrays = 0
    for db in databases:
        db_findings, db_arrays = check_entries({
            uid: entry.chunk
            for uid, entry in db.chunk_cache._entries.items()
        })
        findings.extend(db_findings)
        arrays += db_arrays
    if arrays == 0:
        findings.append(Finding(
            "escape", "chunk-cache",
            "runtime check found no cached chunks — the vector corpus "
            "did not exercise the ChunkCache",
        ))
    return findings, arrays


def run_escape(source, corpus, databases) -> tuple[list[Finding], dict]:
    """All three escape proofs; returns (findings, stats)."""
    findings = scan_modules(source)
    kernel_findings, kernels = scan_kernels(corpus)
    findings.extend(kernel_findings)
    runtime_findings, arrays = runtime_check(databases)
    findings.extend(runtime_findings)
    stats = {
        "modules_scanned": len(VECTOR_MODULES),
        "kernels_checked": kernels,
        "arrays_frozen": arrays,
    }
    return findings, stats
