"""Differential query oracle: fuzzing + multi-engine cross-checking.

Generates random-but-deterministic SQL campaigns and executes every
statement against a stock database, a bee-enabled database, every legal
plan for it on the bee database (the generic interpreter and one settings
point per execution tier), the columnar engine (where applicable), and
metamorphic variants (TLP partitions, no-op predicate rewrites).  Any
disagreement is a bug in exactly the machinery this repo exists to get
right — the generated bees must be *behavior-identical* to the generic
code they replace.
"""

from repro.oracle.generator import GenStatement, StatementGenerator
from repro.oracle.inject import BUG_KINDS, inject_bug
from repro.oracle.minimize import minimize_statements
from repro.oracle.normalize import (
    outcomes_equal,
    outcomes_equivalent,
    rows_equivalent,
    run_statement,
    sorted_canonical,
)
from repro.oracle.runner import (
    DifferentialOracle,
    Divergence,
    OracleReport,
    run_campaign,
)

__all__ = [
    "BUG_KINDS",
    "DifferentialOracle",
    "Divergence",
    "GenStatement",
    "OracleReport",
    "StatementGenerator",
    "inject_bug",
    "minimize_statements",
    "outcomes_equal",
    "outcomes_equivalent",
    "rows_equivalent",
    "run_campaign",
    "run_statement",
    "sorted_canonical",
]
