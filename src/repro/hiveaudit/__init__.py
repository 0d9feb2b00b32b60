"""Hiveaudit: whole-engine invariant-dependency analysis.

Beecheck (``repro.beecheck``) proves each generated bee routine correct
in isolation.  Hiveaudit proves the *lifecycle* property that makes the
whole hive sound: every mutation of state a bee was specialized on —
schema via DDL, annotated attribute values behind tuple-bee beeIDs, plan
constants — must reach an invalidation or regeneration edge on every
call path, or the cache serves stale specialized code.

Three passes over the engine's own source:

1. **extract** — AST taint analysis of every generator in
   ``bees/routines/`` (plus ``datasection.py``/``maker.py``) computes
   which mutable invariant classes each bee kind embeds.
2. **mutations** — scan of the catalog, DML, storage, and bee-settings
   modules discovers every site that mutates one of those invariants.
3. **rules** — a call graph (with catalog-listener edges) proves each
   mutation site reaches its matching invalidation edge; missing edges
   are reported as findings with source spans and witness paths.

``python -m repro.verify --pass hiveaudit`` sweeps the engine and runs a
bug-injection self-test that deletes/rewires each known invalidation
edge and requires the analyzer to flag exactly that edge.
"""

from repro.hiveaudit.audit import run_audit
from repro.hiveaudit.source import EngineSource
from repro.hiveaudit.selftest import CASES, run_selftest

__all__ = [
    "CASES",
    "EngineSource",
    "run_audit",
    "run_selftest",
]
