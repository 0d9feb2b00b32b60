"""Per-layer numbers several workloads read the same way, all from the
engine's public counters (``db.ledger``, ``db.chunk_cache.statistics()``,
``db.bee_module.statistics()``, ``db.stats()``)."""

from __future__ import annotations

from repro.bees.vector import decode_relation
from repro.cost.ledger import Ledger

from harness import RunResult, now


def routines(db) -> int:
    """Generated routines the bee module holds (its memo entries)."""
    stats = db.bee_module.statistics()
    return stats["evp_routines"] + stats["pipeline_routines"] + stats["vector_routines"]


def charge_ns() -> float:
    """What the ledger itself costs: 10^6 direct ``Ledger.charge`` calls."""
    charge = Ledger().charge
    n = 1_000_000
    t0 = now()
    for _ in range(n):
        charge(7)
    return (now() - t0) * 1e9 / n


def ledger_layers(m: dict, delta, wall_s: float) -> None:
    """storage.* page counters and the cost.* exchange rate of one ledger delta."""
    m["storage.pages_hit"] = delta.pages_hit
    m["storage.seq_pages_read"] = delta.seq_pages_read
    m["storage.rand_pages_read"] = delta.rand_pages_read
    m["cost.vinstr"] = delta.total
    m["cost.wall_ns_per_vinstr"] = wall_s * 1e9 / delta.total
    m["cost.charge_ns"] = charge_ns()


def chunk_layers(m: dict, db, before: dict, relations=None) -> None:
    """chunks.* since *before*; with *relations*, also the wall of
    decoding each of them directly."""
    after = db.chunk_cache.statistics()
    hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
    m["chunks.misses"] = misses
    m["chunks.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    if relations is not None:
        t0 = now()
        for name in relations:
            decode_relation(db.relation(name))
        m["chunks.decode_s"] = now() - t0


def bee_layers(m: dict, db) -> None:
    m["bees.memo_entries_end"] = routines(db)
    m["bees.tuple_bees"] = db.bee_module.statistics()["tuple_bees"]


def resilience_layers(result: RunResult, db) -> None:
    report = db.stats()["resilience"]
    result.metrics["resilience.faults"] = report["faults"]
    result.metrics["resilience.quarantined"] = len(report["quarantined"])
    result.check(report["faults"] == 0 and not report["quarantined"],
                 "a bee faulted or is quarantined: the walls measured a fallback tier")
