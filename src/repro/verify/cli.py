"""``python -m repro.verify`` — the one verification entry point.

Usage::

    python -m repro.verify [--pass NAME]... [--seed N] [--statements N]
                           [--out DIR] [--check] [--no-selftest]
                           [--budget SECONDS]

Builds the corpus once, runs the selected passes (default: all, in
table order) and each pass's bug-injection self-test off that one
corpus object, prints the summary and writes ``report.json`` and
``summary.json`` under ``--out``.  ``--check`` exits non-zero on any
finding or missed injection.  ``--budget`` is a wall-clock bound for the
whole run, checked between passes: a pass the budget leaves no time to
start is reported as a finding, never silently skipped.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Any, Sequence

from repro.verify.corpus import Corpus
from repro.verify.passes import table
from repro.verify.report import Finding, PassResult, Report

DEFAULT_STATEMENTS = 200
#: Untracked (``.gitignore``); the committed digest is refreshed with
#: ``--out results/verify``, where only ``summary.json`` is tracked.
DEFAULT_OUT = Path("verify-out")


def run(
    names: Sequence[str] = (),
    seed: int = 0,
    statements: int = DEFAULT_STATEMENTS,
    selftest: bool = True,
    budget: float | None = None,
) -> Report:
    """One verification run; *names* selects passes (default all)."""
    started = time.monotonic()
    rows = table()
    known = [row.name for row in rows]
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ValueError(f"unknown pass(es) {unknown}; choose from {known}")
    selected = [row for row in rows if not names or row.name in names]
    observers = [row.on_plan for row in selected if row.on_plan is not None]

    def on_plan(subject: str, plan: Any, db: Any) -> None:
        for observer in observers:
            observer(subject, plan, db)

    report = Report(seed=seed, statements=statements)
    with Corpus(seed, statements, on_plan if observers else None) as corpus:
        for row in selected:
            pass_started = time.monotonic()
            if budget is not None and pass_started - started > budget:
                result = PassResult(row.name, findings=[Finding(
                    "budget", row.name,
                    f"not run: the {budget:g}s wall budget was spent "
                    "before this pass could start",
                )])
            else:
                result = row.run(corpus)
                if selftest:
                    result.selftest = row.selftest(corpus)
            result.elapsed = time.monotonic() - pass_started
            report.passes.append(result)
    report.elapsed = time.monotonic() - started
    return report


def main(argv: list[str] | None = None) -> int:
    names = [row.name for row in table()]
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Run the verification passes over one shared corpus.",
    )
    parser.add_argument(
        "--pass", dest="passes", action="append", choices=names, default=[],
        metavar="NAME", help=f"run only this pass (repeatable): {names}",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="corpus seed (default 0)")
    parser.add_argument(
        "--statements", type=int, default=DEFAULT_STATEMENTS,
        help=f"fuzz statements per database (default {DEFAULT_STATEMENTS})",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"report directory (default {DEFAULT_OUT})")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero on any finding or missed injection",
    )
    parser.add_argument("--no-selftest", action="store_true",
                        help="skip the bug-injection self-tests")
    parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock bound for the run, checked between passes",
    )
    args = parser.parse_args(argv)

    report = run(
        args.passes, args.seed, args.statements,
        selftest=not args.no_selftest, budget=args.budget,
    )
    print(report.summary())
    print(f"report: {report.write(args.out)}")
    return 1 if args.check and not report.ok else 0
