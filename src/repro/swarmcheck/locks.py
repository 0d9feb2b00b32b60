"""Pass 4 — locks: the guard registry is materialized and honoured.

The earlier passes established *which* state is shared and *what* guard
each field needs; this pass closes the loop now that the Hive Gate
server exists:

1. **Resolution, both directions.**  Every non-pseudo ``guard:`` name
   in the shared-state registry must resolve to a live lock attribute
   on :class:`repro.server.locks.HiveLocks`, and every lock attribute
   there must be named by at least one registry entry — no phantom
   guards, no orphan locks.
2. **Guarded writes.**  In the server modules, every write to a field
   whose registry guard is a real lock must sit lexically inside a
   ``with`` over that lock (``self._gate`` counts for ``server_lock``
   and ``self._cond`` for ``wal_lock`` — both are condition variables
   *backed by* those locks).  Constructors are exempt: the object is
   unpublished.
3. **Engine under latch.**  Every ``statement.run`` call in the server
   core — the query-bee check-out, the execution and the check-in —
   must execute under the catalog latch, with the relation-latch mode
   matching the statement class: shared for reads, exclusive for
   writes, exclusive *catalog* latch for DDL.
4. **Sync before commit.**  The WAL group append must invoke the
   ``_sync`` durability hook before returning, and the data WAL's
   ``_sync`` must be a real ``os.fsync`` — a group commit that never
   reaches the platter is not a commit.

Static checks only — the analysis reads source, it does not take locks.
"""

from __future__ import annotations

import ast

from repro.server.locks import HiveLocks, PSEUDO_GUARDS
from repro.swarmcheck import registry as reg
from repro.verify.report import Finding

#: Modules whose writes the guarded-write check covers.
SERVER_MODULES = ("server/core.py", "server/wal.py", "server/locks.py")

#: Lock name -> context-manager spellings that prove the lock is held.
#: The condition variables are constructed over the named locks, so a
#: ``with self._gate`` / ``with self._cond`` block holds them.
GUARD_ALIASES: dict[str, tuple[str, ...]] = {
    "server_lock": ("server_lock", "_gate"),
    "wal_lock": ("wal_lock", "_cond"),
}

#: Relation-latch mode each statement-runner method must hold around
#: its ``statement.run`` call (all of them also need the catalog
#: latch, shared by default).
_LATCH_MODES = {
    "_execute_read": "relation_lock.read",
    "_execute_write": "relation_lock.write",
    "_execute_ddl": "catalog_lock.write",
}


def _with_ranges(tree) -> list[tuple[int, int, str]]:
    """``(first_line, last_line, items_text)`` for every ``with``."""
    ranges = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            text = "; ".join(
                ast.unparse(item.context_expr) for item in node.items
            )
            ranges.append((node.lineno, node.end_lineno or node.lineno, text))
    return ranges


def _held_at(ranges, lineno: int) -> list[str]:
    return [
        text for start, end, text in ranges if start <= lineno <= end
    ]


def _check_resolution(registry, findings: list) -> dict:
    locks = HiveLocks()
    objects = locks.guard_objects()
    declared = {
        entry.guard for entry in registry
        if entry.scope == reg.SHARED and entry.guard not in PSEUDO_GUARDS
    }
    for guard in sorted(declared - set(objects)):
        findings.append(Finding(
            "locks", guard,
            "registry guard resolves to no lock attribute on HiveLocks — "
            "a declared guard nobody can take is a plan, not a lock",
            "server/locks.py",
        ))
    for name in sorted(set(objects) - declared):
        findings.append(Finding(
            "locks", name,
            "HiveLocks attribute is named by no registry entry — an "
            "orphan lock guards nothing and hides a registry gap",
            "server/locks.py",
        ))
    return {
        "declared_guards": sorted(declared),
        "materialized": sorted(objects),
    }


def _check_guarded_writes(source, registry, findings: list) -> int:
    """Every server-module write to a lock-guarded field happens inside
    a ``with`` over its guard (or a condition variable backing it)."""
    from repro.swarmcheck import sharedstate as shared

    sites, _findings, _stats = shared.classify_writes(source, registry)
    ranges = {
        module: _with_ranges(source.tree(module))
        for module in SERVER_MODULES
    }
    by_key = {entry.key: entry for entry in registry}
    checked = 0
    for site in sites:
        if site.module not in ranges or not site.entry_key:
            continue
        entry = by_key.get(site.entry_key)
        if entry is None or entry.guard not in GUARD_ALIASES:
            continue
        if site.qualname.endswith(".__init__"):
            continue  # unpublished object under construction
        checked += 1
        held = _held_at(ranges[site.module], site.lineno)
        spellings = GUARD_ALIASES[entry.guard]
        if not any(
            spelling in text for text in held for spelling in spellings
        ):
            findings.append(Finding(
                "locks", site.entry_key,
                f"write in {site.qualname} to a field guarded by "
                f"{entry.guard!r} is not inside a `with` over that "
                "lock (held here: "
                f"{held or 'nothing'})",
                site.module, site.lineno,
            ))
    return checked


def _check_latched_execution(source, findings: list) -> int:
    """Every ``statement.run`` call sits under the catalog latch and
    the relation-latch mode its statement class requires.  The run is
    also where the statement's query bee is checked out and back in, so
    no DDL (exclusive catalog latch) can evict between the two."""
    tree = source.tree("server/core.py")
    ranges = _with_ranges(tree)
    calls = 0
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = (
                node.func.id if isinstance(node.func, ast.Name)
                else getattr(node.func, "attr", None)
            )
            if name != "run" or fn.name not in _LATCH_MODES:
                continue
            calls += 1
            held = _held_at(ranges, node.lineno)
            if not any("catalog_lock." in text for text in held):
                findings.append(Finding(
                    "locks", fn.name,
                    "statement.run executes outside the catalog latch",
                    "server/core.py", node.lineno,
                ))
            needed = _LATCH_MODES[fn.name]
            if not any(needed in text for text in held):
                findings.append(Finding(
                    "locks", fn.name,
                    f"statement.run in {fn.name} does not hold "
                    f"`{needed}` — its statement class requires it "
                    "(shared latches for reads, exclusive for writes, "
                    "exclusive catalog for DDL)",
                    "server/core.py", node.lineno,
                ))
    if calls < len(_LATCH_MODES):
        findings.append(Finding(
            "locks", "HiveServer",
            f"expected a statement.run call in each of "
            f"{sorted(_LATCH_MODES)}, found {calls} — the statement "
            "runner was restructured; update the locks pass",
            "server/core.py",
        ))
    return calls


def _calls_in(tree, cls: str, method: str, wanted: str) -> bool:
    """Does ``cls.method`` (source AST) contain a call spelled with
    *wanted* in its dotted name?"""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for fn in node.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == method):
                continue
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and wanted in ast.unparse(
                    call.func
                ):
                    return True
    return False


def _check_durability_chain(source, findings: list) -> None:
    """Group append calls the sync hook; the data WAL's hook fsyncs."""
    if not _calls_in(
        source.tree("bees/walcache.py"), "WALFile", "_append_group", "_sync"
    ):
        findings.append(Finding(
            "locks", "WALFile._append_group",
            "the group append never invokes the _sync durability hook — "
            "a COMMIT marker that can outrun the OS cache is an "
            "unsynced commit",
            "bees/walcache.py",
        ))
    if not _calls_in(
        source.tree("server/wal.py"), "DataWAL", "_sync", "fsync"
    ):
        findings.append(Finding(
            "locks", "DataWAL._sync",
            "the data WAL's durability hook performs no fsync — group "
            "commit would promise durability it does not have",
            "server/wal.py",
        ))


def run_locks(
    source, registry: tuple = reg.REGISTRY
) -> tuple[list[Finding], dict]:
    """Run the full pass; returns ``(findings, stats)``."""
    findings: list[Finding] = []
    resolution = _check_resolution(registry, findings)
    writes_checked = _check_guarded_writes(source, registry, findings)
    latched_calls = _check_latched_execution(source, findings)
    _check_durability_chain(source, findings)
    stats = {
        "declared_guards": resolution["declared_guards"],
        "materialized": resolution["materialized"],
        "guarded_writes_checked": writes_checked,
        "latched_run_sites": latched_calls,
    }
    return findings, stats
