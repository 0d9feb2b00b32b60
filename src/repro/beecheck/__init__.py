"""Beecheck: static verification and translation validation for bees.

The bee maker ``compile()``s generated Python source straight into the
executor's hot path; beecheck is the verification stage between codegen
and execution (see ``docs/BEECHECK.md``).  Its passes:

* :mod:`repro.beecheck.lint` — AST safety lint (bee shape, whitelists,
  single slow-path escape);
* :mod:`repro.beecheck.absint` — abstract interpretation of offset
  arithmetic (bounds, alignment, bee slots, data-section structs);
* :mod:`repro.beecheck.costaudit` — the cost model cross-checked against
  the code (the paper's Figure 6 instruction counts, machine-checked);
* :mod:`repro.beecheck.transval` — translation validation against the
  generic ``layout.decode``/``encode``/``Expr.evaluate`` paths.

Entry points: ``check_gcl`` / ``check_gcl_cols`` / ``check_scl`` / ``check_evp`` /
``check_evj`` / ``check_agg`` / ``check_idx`` / ``check_pipeline`` /
``check_vector`` return reports, the ``verify_*`` variants raise
:class:`BeecheckError`, and ``python -m repro.verify --pass beecheck``
sweeps the shared corpus (every schema, the per-family spec corpus and
every routine the fuzzed statement stream built).
"""

from repro.beecheck.checker import (
    BeecheckError,
    RoutineReport,
    check,
    check_agg,
    check_evj,
    check_evp,
    check_gcl,
    check_gcl_cols,
    check_idx,
    check_pipeline,
    check_scl,
    check_vector,
    enforce,
    verify_agg,
    verify_evj,
    verify_evp,
    verify_gcl,
    verify_gcl_cols,
    verify_idx,
    verify_pipeline,
    verify_scl,
    verify_vector,
)
from repro.verify.report import Finding

__all__ = [
    "BeecheckError",
    "Finding",
    "RoutineReport",
    "check",
    "check_agg",
    "check_evj",
    "check_evp",
    "check_gcl",
    "check_gcl_cols",
    "check_idx",
    "check_pipeline",
    "check_scl",
    "check_vector",
    "enforce",
    "verify_agg",
    "verify_evj",
    "verify_evp",
    "verify_gcl",
    "verify_gcl_cols",
    "verify_idx",
    "verify_pipeline",
    "verify_scl",
    "verify_vector",
]
