"""swarmcheck — purity & sharing-safety static analysis for the hive.

Certifies the engine for a future morsel-parallel execution tier with
three machine-checked proofs:

1. **Purity** (:mod:`repro.swarmcheck.purity`) — every generated bee is
   pure modulo declared sinks: no scope escapes, mutation only through
   owned locals or sink parameters, all captured namespace state frozen.
2. **Shared state** (:mod:`repro.swarmcheck.sharedstate`) — every write
   reachable from the session surface is statement-local or matches a
   declared :class:`~repro.swarmcheck.registry.SharedState` entry naming
   its guard and invalidation epoch.
3. **Escape** (:mod:`repro.swarmcheck.escape`) — no code path mutates a
   NumPy array after it enters the :class:`ChunkCache`.

Run it: ``python -m repro.verify --pass swarmcheck [--check]``.
"""

from repro.swarmcheck.registry import LOCAL, REGISTRY, SHARED, SharedState
from repro.verify.report import Finding

__all__ = [
    "Finding",
    "LOCAL",
    "REGISTRY",
    "SHARED",
    "SharedState",
]
