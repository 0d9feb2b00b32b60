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
   — a condition variable *backed by* it — and ``self._lock`` for
   ``wal_lock``, the committer's handle on it).  Constructors are
   exempt: the object is unpublished.
3. **Engine behind the gate.**  Every ``statement.run`` call in the
   server core — the query-bee check-out, the execution and the
   check-in — must be reached only between ``_admit()`` and
   ``_release()``: that is what the ``gate`` pseudo-guard of every
   catalog, storage and bee-module entry promises.
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
#: The gate's condition variable is constructed over ``server_lock``
#: and the committer's ``_lock`` is ``wal_lock``, so a
#: ``with self._gate`` / ``with self._lock`` block holds them.
GUARD_ALIASES: dict[str, tuple[str, ...]] = {
    "server_lock": ("server_lock", "_gate"),
    "wal_lock": ("wal_lock", "_lock"),
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


def _self_calls(nodes) -> list[str]:
    """Names of the ``self.<method>(...)`` calls under *nodes*."""
    return [
        call.func.attr
        for node in nodes for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and ast.unparse(call.func.value) == "self"
    ]


def _check_gated_execution(source, findings: list) -> int:
    """Every ``statement.run`` call is reached only between the gate's
    ``_admit()`` and ``_release()``: it sits in a method that is called
    only from ``execute``'s ``try`` entered right after ``_admit()`` and
    closed by a ``finally`` that calls ``_release()``.  The run is also
    where the statement's query bee is checked out and back in, so no
    other statement can evict between the two."""
    tree = source.tree("server/core.py")
    methods = {
        fn.name: fn for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "HiveServer"
        for fn in node.body if isinstance(fn, ast.FunctionDef)
    }
    body = methods["execute"].body if "execute" in methods else []
    gated: list[str] = []
    for before, node in zip(body, body[1:]):
        if isinstance(node, ast.Try) and "_admit" in _self_calls([before]) \
                and "_release" in _self_calls(node.finalbody):
            gated += _self_calls(node.body)
    everywhere = _self_calls(methods.values())
    calls = 0
    for fn in methods.values():
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "run"):
                continue
            calls += 1
            if fn.name not in gated \
                    or everywhere.count(fn.name) != gated.count(fn.name):
                findings.append(Finding(
                    "locks", fn.name,
                    f"statement.run in {fn.name} is reached outside the "
                    "gate — only a method that execute alone calls "
                    "between _admit() and _release() may run a statement",
                    "server/core.py", node.lineno,
                ))
    if calls == 0:
        findings.append(Finding(
            "locks", "HiveServer",
            "found no statement.run call — the statement runner was "
            "restructured; update the locks pass",
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
    gated_calls = _check_gated_execution(source, findings)
    _check_durability_chain(source, findings)
    stats = {
        "declared_guards": resolution["declared_guards"],
        "materialized": resolution["materialized"],
        "guarded_writes_checked": writes_checked,
        "gated_run_sites": gated_calls,
    }
    return findings, stats
