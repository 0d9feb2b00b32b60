"""Morsel-driven parallel execution across worker processes.

The fourth execution tier: the page-sized batches the pipeline drivers
already yield become *morsels* fanned across a persistent pool of
worker processes (multiprocessing, dodging the GIL), each holding its
own ledger, heap snapshots, and fingerprint-warmed bee cache.  Gated by
``BeeSettings.parallel`` (per statement: ``db.sql(...,
bees=db.settings.enabling(parallel=True))``); degradation
follows the beeshield ladder (parallel → vector → pipeline → routine →
generic).  See ``docs/PARALLEL.md``.
"""

from repro.parallel.coordinator import (
    MIN_PARALLEL_PAGES,
    MORSEL_PAGES,
    MORSELS_PER_WORKER,
    ParallelCoordinator,
    ParallelError,
    ParallelStats,
)

__all__ = [
    "MIN_PARALLEL_PAGES",
    "MORSEL_PAGES",
    "MORSELS_PER_WORKER",
    "ParallelCoordinator",
    "ParallelError",
    "ParallelStats",
]
