"""Pass 3 — invalidation rules: which edges must each mutation reach?

A rule binds (invariant class, mutation verb) to the set of functions
that constitute a sufficient invalidation/regeneration edge for bees
embedding that class.  The audit requires every matching mutation site
to reach at least one target along the call graph; a site with no
witness path is a finding — the exact shape of bug the bee-cache
lifecycle cannot tolerate (a DROP that leaves the relation bee cached, an
ALTER that keeps cached plans, and the EVP routines their nodes hold,
bound to old column positions).

Rules with *empty* target sets are prohibitions: any matching site is a
violation by existence (the data-section store is append-only because
tuple-bee beeIDs are durable indexes into it).

``EXEMPTIONS`` carries the sites that are provably safe for a reason
the call graph cannot see; each carries its justification and is
reported as "exempted" rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    name: str
    invariant: str
    verbs: frozenset
    targets: frozenset  # empty = matching sites are forbidden outright
    rationale: str


def _rule(name, invariant, verbs, targets, rationale) -> Rule:
    return Rule(name, invariant, frozenset(verbs), frozenset(targets),
                rationale)


RULES = (
    _rule(
        "drop-collects-relation-bee",
        "catalog.schema",
        {"destroy"},
        {"BeeCache.drop_relation_bee"},
        "DROP must evict the relation bee (GCL/SCL + data sections); a "
        "cached bee for a dropped name would deform re-created relations "
        "with the old layout.",
    ),
    _rule(
        "drop-invalidates-buffer",
        "catalog.schema",
        {"destroy"},
        {"BufferPool.invalidate_relation"},
        "DROP must evict resident pages; a re-created relation would hit "
        "stale frames under the same (relation, pageno) keys.",
    ),
    _rule(
        "alter-rebuilds-relation-bee",
        "catalog.schema",
        {"replace"},
        {"GenericBeeModule.reconstruct_relation_bee",
         "GenericBeeModule.create_relation_bee"},
        "ALTER changes offsets the GCL/SCL routines hard-code; the "
        "relation bee must be regenerated for the new layout.",
    ),
    _rule(
        "alter-evicts-query-bees",
        "catalog.schema",
        {"replace"},
        {"GenericBeeModule.invalidate_query_bees"},
        "Cached plans — and the EVP/AGG/pipeline/vector routines their "
        "nodes hold — and IDX routines bind column positions and "
        "constants against the old schema: ALTER must evict the query "
        "bees and start a new query epoch, so a routine a surviving "
        "plan holds is regenerated at its next acquisition.",
    ),
    _rule(
        "drop-evicts-query-bees",
        "catalog.schema",
        {"destroy"},
        {"GenericBeeModule.drop_relation_bee"},
        "A query bee is a statement shape's cached plan; one that reads "
        "or writes a dropped relation would be served to a statement "
        "against a later relation of the same name and another schema.",
    ),
    _rule(
        "relation-swap-evicts-query-bees",
        "runtime.relations",
        {"replace", "destroy"},
        {"GenericBeeModule.invalidate_query_bees",
         "GenericBeeModule.drop_relation_bee"},
        "Cached plans hold the runtime relation's layout and column "
        "positions: replacing or removing it (reannotate, DROP) must "
        "reach one of the two query-bee eviction edges.",
    ),
    _rule(
        "annotation-reaches-bee-lifecycle",
        "layout.annotations",
        {"replace", "destroy"},
        {"GenericBeeModule.create_relation_bee",
         "GenericBeeModule.reconstruct_relation_bee",
         "BeeCache.drop_relation_bee"},
        "Annotation changes alter the tuple-bee topology (bee_attrs / "
        "bee_slot / has_beeid) compiled into GCL and SCL; the relation "
        "bee must be rebuilt or dropped.",
    ),
    _rule(
        "heap-rebuild-invalidates-buffer",
        "storage.heap",
        {"rebuild"},
        {"BufferPool.invalidate_relation"},
        "Swapping in a fresh HeapFile orphans every resident page of the "
        "old one; the pool must be purged for the relation first.",
    ),
    _rule(
        "row-insert-resolves-tuple-bee",
        "storage.heap",
        {"row-insert"},
        {"DataSectionStore.get_or_create"},
        "Every inserted row of an annotated relation must carry a beeID "
        "resolved through the data-section store, or its tuple bee "
        "points at garbage.",
    ),
    _rule(
        "section-store-append-only",
        "datasection.values",
        {"destroy"},
        frozenset(),
        "beeIDs are durable 2-byte indexes into the data sections; "
        "removing or compacting entries re-points every existing tuple "
        "bee at the wrong values.",
    ),
    _rule(
        "page-slots-append-only",
        "storage.slots",
        {"rewrite"},
        frozenset(),
        "the chunk cache refreshes a cached relation slot by slot: rows "
        "whose slots died are masked out and only slots past the count "
        "it saw are decoded.  That is sound only while HeapPage.insert "
        "allocates slot = nslots and nothing else, delete only zeroes a "
        "line pointer's length, nothing else writes the page format and "
        "HeapFile.insert fills only the last page; a reused slot would "
        "be served from the cache with its dead tuple's values.",
    ),
)

# (rule name, mutation-site qualname) -> why the site is safe anyway.
EXEMPTIONS = {
    ("row-insert-resolves-tuple-bee", "Database.vacuum"):
        "vacuum re-inserts raw already-encoded tuples; their beeIDs stay "
        "valid because reconstruction preserves the data sections.",
}

# Local structural invariants: (check name, qualname, description).
# Verified by AST shape on the named function, not by reachability.
INTEGRITY_CHECKS = (
    (
        "disk-eviction-unlinks",
        "BeeCollector.collect_relation",
        "relation GC must unlink the relation's .bee.json so a dropped "
        "bee cannot be resurrected from disk on the next load",
    ),
    (
        "stale-load-unlinks",
        "BeeCache.load_from",
        "a persisted bee whose relation is gone from the catalog must be "
        "unlinked at load time — it never enters the cache, so the "
        "collector would never sweep it",
    ),
    (
        "query-budget-evicts",
        "BeeCollector.trim_query_bees",
        "the query-bee budget must actually delete cache entries, not "
        "just account for them",
    ),
    (
        "drop-edge-deletes-query-bees",
        "GenericBeeModule.drop_relation_bee",
        "the DROP edge must delete the dropped relation's query bees "
        "from the cache — a statement shape outlives the statement that "
        "built it",
    ),
    (
        "alter-edge-clears-query-bees",
        "GenericBeeModule.invalidate_query_bees",
        "the ALTER edge must clear the query-bee cache: every cached "
        "plan binds column positions of the old schema",
    ),
    *(
        (
            "page-version-tracks-heap-version",
            qualname,
            "every bump of HeapFile.version must bump the touched page's "
            "page_versions counter — the chunk cache re-decodes only "
            "pages whose counter moved, so a silent mutation would be "
            "spliced in stale",
        )
        for qualname in ("HeapFile.insert", "HeapFile.delete")
    ),
    (
        "parallel-prefix-invalidated",
        "GenericBeeModule.invalidate_query_bees",
        "the ALTER-path invalidation must clear quarantine state for the "
        "parallel tier's 'PAR:' shield keys — otherwise a quarantined "
        "morsel plan shape survives the schema change that obsoleted it",
    ),
    (
        "parallel-epoch-consulted",
        "ParallelCoordinator._sync_epoch",
        "the morsel coordinator must read the bee module's query_epoch "
        "before shipping tasks — a DDL bump the pool never observes "
        "leaves workers executing bees compiled against the old schema",
    ),
)


__all__ = ["EXEMPTIONS", "INTEGRITY_CHECKS", "RULES", "Rule"]
