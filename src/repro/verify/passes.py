"""The one pass table: every checker's sweep and injection cases.

A :class:`Pass` row names a tool, its sweep (``run(corpus) ->
PassResult``) and its bug-injection self-test (``selftest(corpus) ->
{case: caught}``).  The tools own their pass logic; the glue that points
it at the shared :class:`~repro.verify.corpus.Corpus` lives here, once.
:func:`table` builds fresh rows per run because wagglecheck's plan
analysis happens *while* the corpus is built (see ``Corpus``'s
``on_plan``) and needs somewhere to accumulate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro import beecheck, hiveaudit
from repro.beecheck import selftest as beecheck_selftest
from repro.bees import drivers
from repro.bees.settings import BeeSettings
from repro.oracle.inject import BUG_KINDS, inject_bug
from repro.oracle.runner import DifferentialOracle
from repro.resilience import campaign
from repro.swarmcheck import escape, locks, purity, registry, sharedstate
from repro.swarmcheck import selftest as swarmcheck_selftest
from repro.verify.corpus import Corpus, OnPlan
from repro.verify.report import Finding, PassResult, run_injections
from repro.wagglecheck import rewrite, sections, typeflow
from repro.wagglecheck import selftest as wagglecheck_selftest
from repro.workloads.tpch.queries import QUERIES

#: Fuzz statements per injected-bug oracle campaign, and the TPC-H
#: queries the campaign falls back to when the fuzz stream cannot reach
#: the bug: single-table scans of lineitem with a residual qual (q1,
#: q6), a join probing a filtered lineitem (q3) — the fuzz stream's
#: joins filter above the join, never below the probe — and a lineitem
#: qual the vector kernel splits, an IN list behind four vector
#: conjuncts (q12): the fuzz tables are a few dozen rows, where an
#: object conjunct read at the wrong rows can still select the right ones.
ORACLE_SELFTEST_STATEMENTS = 60
ORACLE_SELFTEST_QUERIES = (1, 3, 6, 12)


@dataclass(frozen=True)
class Pass:
    """One row of the pass table."""

    name: str
    run: Callable[[Corpus], PassResult]
    selftest: Callable[[Corpus], dict[str, bool]]
    on_plan: OnPlan | None = None


def _routine_pairs(corpus: Corpus) -> list[tuple[str, Any]]:
    return [(entry.kind, entry.routine) for entry in corpus.routines]


# -- beecheck -----------------------------------------------------------------


def _beecheck(corpus: Corpus) -> PassResult:
    findings: list[Finding] = []
    for entry in corpus.routines:
        findings.extend(beecheck.check(
            entry.kind, entry.routine, *entry.args
        ).findings)
    stats = {
        "routines_checked": len(corpus.routines),
        "routines_by_kind": corpus.census(),
    }
    return PassResult("beecheck", stats, findings)


# -- swarmcheck ---------------------------------------------------------------


def _swarmcheck(corpus: Corpus) -> PassResult:
    pairs = _routine_pairs(corpus)
    findings, proven = purity.run_purity(pairs)
    sites, shared_findings, shared_stats = sharedstate.classify_writes(
        corpus.source
    )
    escape_findings, escape_stats = escape.run_escape(
        corpus.source, pairs, corpus.databases.values()
    )
    lock_findings, lock_stats = locks.run_locks(corpus.source)
    write_sites: dict[str, int] = {}
    for site in sites:
        write_sites[site.classification] = (
            write_sites.get(site.classification, 0) + 1
        )
    stats = {
        "routines_proven_pure": dict(sorted(proven.items())),
        "write_sites": dict(sorted(write_sites.items())),
        "shared_state_entries": len(registry.REGISTRY),
        "unused_registry": shared_stats["unused_registry_keys"],
        "escape": escape_stats,
        "locks": lock_stats,
    }
    return PassResult(
        "swarmcheck", stats,
        findings + shared_findings + escape_findings + lock_findings,
    )


def _swarmcheck_selftest(corpus: Corpus) -> dict[str, bool]:
    return swarmcheck_selftest.run_selftest(
        corpus.source, _routine_pairs(corpus)
    )


# -- wagglecheck --------------------------------------------------------------


class _WaggleSweep:
    """Typeflow + rewrite per executed plan (as the corpus is built),
    then relation layouts and data sections."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self.stats = {
            "plans_checked": 0, "nodes_checked": 0, "rewrites_checked": 0,
            "relations_checked": 0, "sections_checked": 0,
        }

    def on_plan(self, subject: str, plan: Any, db: Any) -> None:
        findings, nodes = typeflow.check_plan(plan, db, subject)
        self.findings.extend(findings)
        self.stats["plans_checked"] += 1
        self.stats["nodes_checked"] += nodes
        findings, rewrites = rewrite.check_fusion(plan, db, subject)
        self.findings.extend(findings)
        self.stats["rewrites_checked"] += rewrites

    def run(self, corpus: Corpus) -> PassResult:
        for label, db in corpus.databases.items():
            for name in sorted(db.table_names()):
                self.findings.extend(typeflow.check_relation(
                    db.relation(name), f"{label}/{name}"
                ))
                self.stats["relations_checked"] += 1
            section_findings, checked = sections.check_sections(db)
            self.findings.extend(
                dataclasses.replace(f, subject=f"{label}/{f.subject}")
                for f in section_findings
            )
            self.stats["sections_checked"] += checked
        return PassResult("wagglecheck", dict(self.stats), self.findings)


# -- hiveaudit ----------------------------------------------------------------


def _hiveaudit(corpus: Corpus) -> PassResult:
    return hiveaudit.run_audit(corpus.source)


def _hiveaudit_selftest(_corpus: Corpus) -> dict[str, bool]:
    return {
        result["case"]: result["caught"]
        for result in hiveaudit.run_selftest()
    }


# -- resilience ---------------------------------------------------------------


def _resilience(corpus: Corpus) -> PassResult:
    return campaign.run_campaign(corpus.tpch_rows, corpus.seed)


def _resilience_selftest(corpus: Corpus) -> dict[str, bool]:
    verdicts = campaign.run_self_test(corpus.tpch_rows, corpus.seed)
    return {name: verdict["caught"] for name, verdict in verdicts.items()}


# -- oracle -------------------------------------------------------------------


def _tpch_queries(numbers: Any = None) -> dict[str, Callable[[Any], list]]:
    return {
        f"tpch/q{number:02d}": QUERIES[number]
        for number in sorted(numbers or QUERIES)
    }


def _oracle(corpus: Corpus) -> PassResult:
    """The differential campaign over the fuzz stream, then the N-way
    lane over the TPC-H slice.  A tier point that no statement executed
    on is a finding: the lane compared that tier against nothing."""
    oracle = DifferentialOracle(corpus.seed)
    try:
        oracle.run(corpus.statements)
        with corpus.tpch_db(oracle.bee_settings) as db:
            report = oracle.run_queries(db, _tpch_queries())
            pools = {
                tier.name: db.stats().get(tier.name)
                for tier in drivers.TIERS if tier.remote
            }
    finally:
        oracle.close()
    findings = [
        Finding(d.check, d.sql, d.detail) for d in report.divergences
    ]
    findings += [
        Finding(
            f"plan:{tier}", "n-way lane",
            "no statement executed on this tier: the lane compared it "
            "against nothing",
        )
        for tier, count in report.tier_counts.items()
        if count == 0
    ]
    stats = report.to_dict()
    del stats["seed"], stats["elapsed_seconds"], stats["divergences"]
    stats["worker_pools"] = pools
    stats["repro_scripts"] = [d.script() for d in report.divergences]
    return PassResult("oracle", stats, findings)


def _oracle_selftest(corpus: Corpus) -> dict[str, bool]:
    """One campaign per bug kind, beecheck gating off (it would reject
    the broken routine at generation time; this must prove the *runtime*
    oracle catches what slips through)."""
    def caught(kind: str) -> bool:
        with inject_bug(kind):
            oracle = DifferentialOracle(
                corpus.seed, bee_settings=BeeSettings.all_bees(),
                minimize=False,
            )
            try:
                if not oracle.run(ORACLE_SELFTEST_STATEMENTS).ok:
                    return True
                with corpus.tpch_db(oracle.bee_settings) as db:
                    queries = _tpch_queries(ORACLE_SELFTEST_QUERIES)
                    return not oracle.run_queries(db, queries).ok
            finally:
                oracle.close()

    # A tier row without an injection kind is a MISSED case
    # (``inject_bug`` rejects it): every tier must be provably guarded.
    kinds = dict.fromkeys(BUG_KINDS + tuple(t.name for t in drivers.TIERS))
    return run_injections([(kind, partial(caught, kind)) for kind in kinds])


# -- the table ----------------------------------------------------------------


def table() -> tuple[Pass, ...]:
    """Fresh pass rows for one run, in execution order (what each pass
    proves and which corpus slice it reads: ``docs/TESTING.md``)."""
    waggle = _WaggleSweep()
    return (
        Pass(
            "beecheck", _beecheck,
            lambda _corpus: beecheck_selftest.run_selftest(),
        ),
        Pass("swarmcheck", _swarmcheck, _swarmcheck_selftest),
        Pass(
            "wagglecheck", waggle.run,
            lambda _corpus: wagglecheck_selftest.run_selftest(),
            waggle.on_plan,
        ),
        Pass("hiveaudit", _hiveaudit, _hiveaudit_selftest),
        Pass("resilience", _resilience, _resilience_selftest),
        Pass("oracle", _oracle, _oracle_selftest),
    )
