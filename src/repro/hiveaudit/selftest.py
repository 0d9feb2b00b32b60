"""Self-test: plant lifecycle bugs, require the audit to catch them.

Each :class:`InjectionCase` patches the *in-memory* source of one engine
module (via :class:`EngineSource` overrides — disk is never touched) to
delete or rewire a known invalidation edge, re-runs the audit, and
requires that (a) every expected ``(rule, function)`` finding appears
among the findings that are *new* relative to the clean baseline, and
(b) every new finding is attributed to one of the expected functions —
the analyzer must name the broken site, not just turn red somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hiveaudit.audit import run_audit
from repro.hiveaudit.source import EngineSource


@dataclass(frozen=True)
class InjectionCase:
    name: str
    module: str
    description: str
    old: str
    new: str
    expected: tuple  # ((rule name, qualname), ...)


CASES = (
    InjectionCase(
        "del-drop-bee",
        "db.py",
        "DROP listener no longer collects the relation bee — nor evicts "
        "the query bees (cached statement plans) that use the relation",
        "        self.bee_module.drop_relation_bee(name)\n",
        "",
        (
            ("drop-collects-relation-bee", "Catalog.drop_relation"),
            ("annotation-reaches-bee-lifecycle", "Catalog.drop_relation"),
            ("drop-evicts-query-bees", "Catalog.drop_relation"),
            ("relation-swap-evicts-query-bees", "Database._on_drop"),
        ),
    ),
    InjectionCase(
        "del-drop-buffer",
        "db.py",
        "DROP listener no longer purges buffered pages",
        "        self._relations.pop(name, None)\n"
        "        self.buffer_pool.invalidate_relation(name)\n",
        "        self._relations.pop(name, None)\n",
        (("drop-invalidates-buffer", "Catalog.drop_relation"),),
    ),
    InjectionCase(
        "del-drop-listener",
        "db.py",
        "the drop listener is never registered",
        '        self.catalog.on("drop", self._on_drop)\n',
        "",
        (
            ("drop-collects-relation-bee", "Catalog.drop_relation"),
            ("drop-invalidates-buffer", "Catalog.drop_relation"),
            ("annotation-reaches-bee-lifecycle", "Catalog.drop_relation"),
            ("drop-evicts-query-bees", "Catalog.drop_relation"),
        ),
    ),
    InjectionCase(
        "rewire-alter-listener",
        "db.py",
        "the ALTER handler listens to the wrong catalog event",
        '        self.catalog.on("alter", self._on_alter)\n',
        '        self.catalog.on("create", self._on_alter)\n',
        (
            ("alter-rebuilds-relation-bee", "Catalog.alter_relation"),
            ("alter-evicts-query-bees", "Catalog.alter_relation"),
            ("relation-swap-evicts-query-bees", "Database.reannotate"),
        ),
    ),
    InjectionCase(
        "del-alter-reconstruct",
        "db.py",
        "ALTER keeps the old relation bee instead of reconstructing",
        "            rel.bee = self.bee_module.reconstruct_relation_bee"
        "(rel.layout)\n",
        "            rel.bee = rel.bee\n",
        (("alter-rebuilds-relation-bee", "Catalog.alter_relation"),),
    ),
    InjectionCase(
        "sever-collector-evict",
        "bees/collector.py",
        "the collector accounts for the bee but never evicts it",
        "        removed = self.cache.drop_relation_bee(relation)\n",
        "        removed = False\n",
        (
            ("drop-collects-relation-bee", "Catalog.drop_relation"),
            ("annotation-reaches-bee-lifecycle", "Catalog.drop_relation"),
        ),
    ),
    InjectionCase(
        "del-disk-unlink",
        "bees/collector.py",
        "relation GC keeps the on-disk .bee.json of a dropped relation",
        "                stale.unlink()\n",
        "                pass\n",
        (("disk-eviction-unlinks", "BeeCollector.collect_relation"),),
    ),
    InjectionCase(
        "del-stale-unlink",
        "bees/cache.py",
        "a stale persisted bee survives load (collector never sees it)",
        "                path.unlink()\n"
        "                continue\n",
        "                continue\n",
        (("stale-load-unlinks", "BeeCache.load_from"),),
    ),
    InjectionCase(
        "del-vacuum-invalidate",
        "db.py",
        "vacuum swaps in a fresh heap without purging resident pages",
        "        self.buffer_pool.invalidate_relation(name)\n"
        "        fresh = HeapFile(name, self.ledger, self.buffer_pool)\n",
        "        fresh = HeapFile(name, self.ledger, self.buffer_pool)\n",
        (("heap-rebuild-invalidates-buffer", "Database.vacuum"),),
    ),
    InjectionCase(
        "del-page-version-bump",
        "storage/heapfile.py",
        "a delete bumps the heap version but not its page's counter",
        "        self.page_versions[tid.pageno] += 1\n",
        "",
        (("page-version-tracks-heap-version", "HeapFile.delete"),),
    ),
    InjectionCase(
        "reuse-dead-slot",
        "storage/page.py",
        "an insert re-points a dead slot's line pointer instead of "
        "allocating slot nslots",
        "        _LINE_POINTER.pack_into(self.data, self.lower, self.upper, "
        "length)\n",
        "        for slot in range(self.nslots):\n"
        "            if not self.is_live(slot):\n"
        "                _LINE_POINTER.pack_into(\n"
        "                    self.data,\n"
        "                    _HEADER_SIZE + slot * _LINE_POINTER.size,\n"
        "                    self.upper, length,\n"
        "                )\n"
        "                return slot\n"
        "        _LINE_POINTER.pack_into(self.data, self.lower, self.upper, "
        "length)\n",
        (("page-slots-append-only", "HeapPage.insert"),),
    ),
    InjectionCase(
        "sever-tuple-resolve",
        "engine/dml.py",
        "inserted rows get a constant beeID, bypassing the section store",
        "                bee_id = self.db.bee_module.tuple_bee_id(\n"
        "                    self.rel.schema.name, self._bee_key(values)\n"
        "                )\n",
        "                bee_id = 1\n",
        (
            ("row-insert-resolves-tuple-bee", "RowWriter.write"),
            ("row-insert-resolves-tuple-bee", "insert_row"),
            ("row-insert-resolves-tuple-bee", "copy_from"),
            ("row-insert-resolves-tuple-bee", "apply_update"),
            ("row-insert-resolves-tuple-bee", "update_by_tid"),
        ),
    ),
    InjectionCase(
        "compact-section-store",
        "bees/datasection.py",
        "the section store compacts past the soft cap, re-pointing beeIDs",
        "        if self.count > SOFT_CAP:\n"
        "            self.overflowed = True\n",
        "        if self.count > SOFT_CAP:\n"
        "            self._slabs.pop(0)\n"
        "            self.overflowed = True\n",
        (("section-store-append-only", "DataSectionStore.get_or_create"),),
    ),
)


def run_selftest(baseline=None) -> list[dict]:
    """Run every injection case; one result dict per case."""
    if baseline is None:
        baseline = run_audit()
    base_pairs = {(f.pass_name, f.subject) for f in baseline.findings}
    results = []
    for case in CASES:
        original = EngineSource().text(case.module)
        if case.old not in original:
            results.append({
                "case": case.name,
                "description": case.description,
                "caught": False,
                "error": f"patch anchor not found in {case.module}",
            })
            continue
        patched = original.replace(case.old, case.new, 1)
        report = run_audit(EngineSource({case.module: patched}))
        new_pairs = sorted(
            {(f.pass_name, f.subject) for f in report.findings} - base_pairs
        )
        expected = set(case.expected)
        expected_sites = {qualname for _rule, qualname in expected}
        caught = expected <= set(new_pairs) and all(
            qualname in expected_sites for _rule, qualname in new_pairs
        )
        results.append({
            "case": case.name,
            "description": case.description,
            "caught": caught,
            "expected": sorted(expected),
            "new_findings": list(new_pairs),
        })
    return results


__all__ = ["CASES", "InjectionCase", "run_selftest"]
