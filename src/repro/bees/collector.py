"""The Bee Collector: garbage-collects dead bees.

Bees die when their specialization target disappears: relation bees on
DROP TABLE (and their tuple bees with their data sections), query bees when
the query-bee cache exceeds its budget (plans are transient).  The
collector removes them from the in-memory cache and from the on-disk bee
cache directory when one is configured.
"""

from __future__ import annotations

from pathlib import Path

from repro.bees.cache import BeeCache

DEFAULT_QUERY_BEE_BUDGET = 256


class BeeCollector:
    """Removes dead bees from memory and disk."""

    def __init__(
        self,
        cache: BeeCache,
        disk_dir: str | Path | None = None,
        query_bee_budget: int = DEFAULT_QUERY_BEE_BUDGET,
    ) -> None:
        self.cache = cache
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self.query_bee_budget = query_bee_budget
        self.collected_relation_bees = 0
        self.collected_query_bees = 0

    def collect_relation(self, relation: str) -> bool:
        """Drop the relation bee for a dropped relation; True if removed."""
        removed = self.cache.drop_relation_bee(relation)
        if removed:
            self.collected_relation_bees += 1
        if self.disk_dir is not None:
            stale = self.disk_dir / f"{relation}.bee.json"
            if stale.exists():
                stale.unlink()
        return removed

    def sweep(self, live_relations: set[str]) -> int:
        """Remove every relation bee whose relation is no longer live."""
        dead = [
            name
            for name in self.cache.relation_bees
            if name not in live_relations
        ]
        for name in dead:
            self.collect_relation(name)
        return len(dead)

    def trim_query_bees(self) -> int:
        """Evict oldest query bees past the budget (insertion order).

        Callers outside the server's gate may trim concurrently, so a
        picked bee may already be gone — evicted by another trim, or
        checked out; only what this call removed is counted, and the
        budget is met again by the next quiet trim."""
        excess = len(self.cache.query_bees) - self.query_bee_budget
        if excess <= 0:
            return 0
        removed = 0
        for query_id in list(self.cache.query_bees)[:excess]:
            if self.cache.query_bees.pop(query_id, None) is not None:
                removed += 1
        self.collected_query_bees += removed
        return removed
