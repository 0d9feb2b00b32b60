"""Wagglecheck: plan-level type flow and rewrite-soundness analysis.

The bees are only as correct as the plan handed to codegen — every
GCL/EVP/pipeline/vector kernel bakes in schema, type, and constant
invariants taken from the planner.  Wagglecheck verifies the plan layer
itself, before any code is generated, with three passes:

* **typeflow** — abstract interpretation from catalog column types
  through every plan node and expression tree, inferring an output
  contract (name, kind, nullability, width) per node, rejecting
  ill-typed comparisons/arithmetic and undeclared implicit coercions,
  and cross-checking the contract against what codegen assumes
  (TupleLayout offsets/widths, EVP operand types, vector dtypes and
  NULL-mask presence, agg accumulator types);
* **rewrite** — structural equivalence proof that ``fuse_plan`` and the
  vector fusion wrapper are plan-preserving: every ``PipelineSpec``
  must replay exactly to the subtree it replaced, with unfused residue
  proven untouched;
* **sections** — every cached bee's data-section constants re-typed
  against the plan contract that generated them.

See ``docs/WAGGLECHECK.md``.  Run with ``python -m repro.verify --pass wagglecheck``.
"""

from repro.wagglecheck.contracts import (
    ColumnContract,
    TypeChecker,
    contracts_from_schema,
    kind_of_sql_type,
)
from repro.verify.report import Finding

__all__ = [
    "ColumnContract",
    "Finding",
    "TypeChecker",
    "contracts_from_schema",
    "kind_of_sql_type",
]
