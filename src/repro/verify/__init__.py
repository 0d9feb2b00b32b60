"""The verification spine: ``python -m repro.verify``.

One corpus (:mod:`repro.verify.corpus`), one finding / per-pass result /
report schema (:mod:`repro.verify.report`), one table of passes and
their injection cases (:mod:`repro.verify.passes`) and one command line
(:mod:`repro.verify.cli`) in front of beecheck, swarmcheck, wagglecheck,
hiveaudit, the chaos campaign and the differential oracle.  See
``docs/TESTING.md``.

Only the stdlib-only report schema is imported here: the checker
packages (and, through beecheck, the engine) import it, so this package
must be importable before any of them.
"""

from repro.verify.report import Finding, PassResult, Report, run_injections

__all__ = ["Finding", "PassResult", "Report", "run_injections"]
