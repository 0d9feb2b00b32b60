"""Bug-injection self-test: prove each pass catches its bug class.

Thirteen seeded violations — impure bees (scope escape, mutable
capture, parameter mutation, rogue call), unregistered shared-state
writes (a new engine field, a registry gap, a module-level global),
chunk escapes (kernel store, engine-module mutation, a writable cached
array), and lock violations (a phantom guard with no lock behind it, a
guarded write moved outside its lock, a group commit whose sync hook
was severed).  Each case must produce at least one finding from the
right pass; a silently-passing analyzer is worse than none, so every
MISSED case fails the whole run.
"""

from __future__ import annotations

import dataclasses

from repro.swarmcheck import escape as esc
from repro.swarmcheck import locks as lck
from repro.swarmcheck import purity as pur
from repro.swarmcheck import registry as reg
from repro.swarmcheck import sharedstate as shared


def _tampered(routine, old: str, new: str):
    """Copy *routine* with *old* replaced by *new* in its source.  The
    self-test only needs the source text — no recompile."""
    if old not in routine.source:
        raise AssertionError(
            f"tamper pattern {old!r} not found in {routine.name}"
        )
    return dataclasses.replace(
        routine, source=routine.source.replace(old, new, 1)
    )


def _caught(findings, pass_name: str) -> bool:
    return any(f.pass_name == pass_name for f in findings)


def run_selftest(source, corpus) -> dict[str, bool]:
    """Run every injection case; returns ``case -> caught``."""
    results: dict[str, bool] = {}
    by_kind: dict[str, object] = {}
    for kind, routine in corpus:
        by_kind.setdefault(kind, routine)

    # -- purity ------------------------------------------------------------
    pipe = next(
        routine for kind, routine in corpus
        if kind == "pipeline" and "    out = []" in routine.source
    )
    bad = _tampered(
        pipe, "    out = []",
        "    global _hits\n    _hits = _hits + 1\n    out = []",
    )
    results["purity-global-write"] = _caught(
        pur.check_routine("pipeline", bad), "purity"
    )

    evp = by_kind["evp"]
    mutable_ns = dict(evp.namespace or {})
    mutable_ns["_MEMO"] = {}
    bad = dataclasses.replace(evp, namespace=mutable_ns)
    results["purity-mutable-capture"] = _caught(
        pur.check_routine("evp", bad), "purity"
    )

    agg = by_kind["agg"]
    bad = _tampered(
        agg, "    _charge(", "    row[0] = None\n    _charge(",
    )
    results["purity-param-mutation"] = _caught(
        pur.check_routine("agg", bad), "purity"
    )

    bad = _tampered(
        evp, "    _charge(", "    open('/tmp/x')\n    _charge(",
    )
    results["purity-rogue-call"] = _caught(
        pur.check_routine("evp", bad), "purity"
    )

    # -- shared state ------------------------------------------------------
    # A new unregistered field written on the sql() path.
    text = source.text("db.py").replace(
        "        settings = self.resolve_settings(bees)",
        "        self.swarm_counter = 1\n"
        "        settings = self.resolve_settings(bees)",
        1,
    )
    assert "swarm_counter" in text
    patched = type(source)(overrides={"db.py": text})
    _sites, findings, _stats = shared.classify_writes(patched)
    results["shared-unregistered-field"] = _caught(findings, "shared-state")

    # A registry gap: drop the ChunkCache entries declaration.
    gapped = tuple(
        entry for entry in reg.REGISTRY
        if entry.key != "ChunkCache._entries"
    )
    _sites, findings, _stats = shared.classify_writes(
        source, registry=gapped
    )
    results["shared-registry-gap"] = _caught(findings, "shared-state")

    # A module-level global mutated from the execution path.
    text = source.text("engine/executor.py").replace(
        "def _run(",
        "_QUERY_COUNT = 0\n\n\n"
        "def _bump():\n"
        "    global _QUERY_COUNT\n"
        "    _QUERY_COUNT += 1\n\n\n"
        "def _run(",
        1,
    ).replace(
        '    """One execution attempt under fixed settings."""',
        '    """One execution attempt under fixed settings."""\n'
        "    _bump()",
        1,
    )
    assert "_bump()" in text
    patched = type(source)(overrides={"engine/executor.py": text})
    _sites, findings, _stats = shared.classify_writes(patched)
    results["shared-global-counter"] = _caught(findings, "shared-state")

    # -- escape ------------------------------------------------------------
    vec = by_kind["vector"]
    bad = _tampered(
        vec, "    _charge(", "    cols[0][0] = 0\n    _charge(",
    )
    findings, _checked = esc.scan_kernels([("vector", bad)])
    results["escape-kernel-store"] = _caught(findings, "escape")

    # An engine-module mutation: scrub a null in place after decode.
    text = source.text("bees/vector/chunks.py").replace(
        "    return chunk",
        "    chunk.cols[0][0] = 0\n    return chunk",
        1,
    )
    patched = type(source)(overrides={"bees/vector/chunks.py": text})
    results["escape-module-mutation"] = _caught(
        esc.scan_modules(patched), "escape"
    )

    # A writable chunk smuggled into the cache.
    from repro.bees.vector.chunks import chunk_from_rows
    from repro.catalog import INT4, NUMERIC, make_schema

    schema = make_schema("swarm_t", [
        ("a", INT4), ("b", NUMERIC, True),
    ])
    chunk = chunk_from_rows(schema, [[1, 1.5], [2, None]])
    findings, arrays = esc.check_entries({7: chunk})
    results["escape-writable-chunk"] = arrays > 0 and _caught(
        findings, "escape"
    )

    # -- locks -------------------------------------------------------------
    # A registry entry naming a guard nobody materialized.
    phantom = reg.REGISTRY + (
        reg.SharedState(
            "HiveServer", "_phantom", reg.SHARED, "phantom_lock", "-"
        ),
    )
    findings, _stats = lck.run_locks(source, registry=phantom)
    results["locks-missing-guard"] = _caught(findings, "locks")

    # A server_lock-guarded write hoisted out of its lock.
    text = source.text("server/core.py").replace(
        "        with self.locks.server_lock:\n"
        "            self.stats.disconnects += 1",
        "        self.stats.disconnects += 1",
        1,
    )
    assert text != source.text("server/core.py")
    patched = type(source)(overrides={"server/core.py": text})
    findings, _stats = lck.run_locks(patched)
    results["locks-unguarded-write"] = _caught(findings, "locks")

    # A group commit whose durability hook was severed: the COMMIT
    # marker would land in the OS cache and call itself durable.
    text = source.text("bees/walcache.py").replace(
        "            self._sync(handle)", "            pass", 1,
    )
    assert text != source.text("bees/walcache.py")
    patched = type(source)(overrides={"bees/walcache.py": text})
    findings, _stats = lck.run_locks(patched)
    results["locks-unsynced-commit"] = _caught(findings, "locks")

    return results
