"""Oracle-style chaos campaign: every fault plan must match stock.

For each named chaos site (:mod:`repro.resilience.chaos`) the campaign
builds a fully bee-enabled, shielded database over a tiny TPC-H dataset,
arms the site, and runs a fixed scenario — four TPC-H queries, a scratch
table's DML life cycle (create with annotations, bulk load, index build,
selects), and a repeated-plan pair that re-acquires the routines its
nodes hold.
Every outcome is compared against a stock database running the same
scenario; three things must hold per site:

* **no escapes** — a :class:`~repro.resilience.errors.ChaosFault`
  reaching the caller is, by construction, a guard hole;
* **no mismatches** — degraded execution must still produce exactly the
  stock results;
* **evidence** — the fault demonstrably triggered (a campaign that never
  fires its faults proves nothing).

Three extra lanes ride along: a *ladder* lane arms the vector and
pipeline shape faults together — proving a statement can degrade
vector → pipeline → generic within one campaign and still match stock —
a WAL lane tears the bee-cache log at seeded offsets and checks
recovery, and a *server* lane
(:mod:`repro.resilience.serverlane`) drives the four ``server=True``
sites against the Hive Gate front-end under real concurrency.
:func:`run_self_test` re-runs two sites with the shield *disabled* —
plus the server harness with its admission gate bypassed — to prove
the harness reports exactly the failures the defenses exist to prevent
(escapes for raising routines, silent wrong results for shape bugs,
torn reads for writers that overlap a reader).
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.bees.settings import BeeSettings
from repro.bees.walcache import BeeCacheWAL
from repro.resilience.chaos import SITE_NAMES, SITES, ChaosInjector
from repro.resilience.errors import ChaosFault
from repro.resilience.registry import ResilienceRegistry
from repro.verify.report import Finding, PassResult

#: TPC-H queries covering scans, filters, joins, and aggregation.
CAMPAIGN_QUERIES = (1, 3, 6, 14)

_SCRATCH_DDL = (
    "CREATE TABLE chaos_scratch (id int NOT NULL, kind char(4) NOT NULL, "
    "qty int NOT NULL, ANNOTATE (kind))"
)


def _scratch_rows(start: int, count: int) -> list[list]:
    kinds = ["AAAA", "BBBB", "CCCC"]
    return [
        [i, kinds[i % len(kinds)], (i * 7) % 100]
        for i in range(start, start + count)
    ]


def _build_scenario(db) -> list[tuple[str, object]]:
    """The per-database statement list: ``(label, thunk)`` pairs.

    Thunks return an outcome payload; building the repeated plan once
    (outside its two thunks) is deliberate — the second execution reuses
    the same plan object, so the routines its nodes hold are re-acquired
    and the staleness check has something to catch.
    """
    from repro.engine.expr import Cmp, Col, Const
    from repro.engine.nodes import Filter, SeqScan
    from repro.workloads.tpch.queries import QUERIES

    steps: list[tuple[str, object]] = []
    for number in CAMPAIGN_QUERIES:
        steps.append(
            (f"tpch-q{number:02d}",
             lambda number=number: ("rows", QUERIES[number](db)))
        )
    steps.append(
        ("scratch-create", lambda: ("status", db.sql(_SCRATCH_DDL).status))
    )
    steps.append(
        ("scratch-load",
         lambda: ("status", f"COPY {db.copy_from('chaos_scratch', _scratch_rows(0, 48))}"))
    )
    steps.append(
        ("scratch-index",
         lambda: (
             "status",
             db.create_index("chaos_scratch", "chaos_scratch_id", ["id"])
             or "CREATE INDEX",
         ))
    )
    steps.append(
        ("scratch-load-indexed",
         lambda: ("status", f"COPY {db.copy_from('chaos_scratch', _scratch_rows(48, 24))}"))
    )
    steps.append(
        ("scratch-select",
         lambda: ("rows", [
             tuple(row)
             for row in db.sql(
                 "SELECT kind, qty FROM chaos_scratch WHERE qty < 50"
             ).rows
         ]))
    )
    # Writes whose match phase is a plan on the armed tier stack.  The
    # UPDATE sets the column its WHERE reads: a degraded retry that
    # re-applied (or re-matched after) a write would show in the rows
    # the last step reads back.
    steps.append(
        ("scratch-update",
         lambda: ("status", db.sql(
             "UPDATE chaos_scratch SET qty = qty + 100 WHERE qty < 50"
         ).status))
    )
    steps.append(
        ("scratch-delete",
         lambda: ("status", db.sql(
             "DELETE FROM chaos_scratch WHERE id >= 60 AND kind = 'BBBB'"
         ).status))
    )
    steps.append(
        ("scratch-after-writes",
         lambda: ("rows", [
             tuple(row)
             for row in db.sql("SELECT id, kind, qty FROM chaos_scratch").rows
         ]))
    )
    # The scratch table does not exist yet when the steps are built, so
    # the repeated plan is constructed lazily on first use and reused by
    # the second step — plan-object reuse is what re-acquires held
    # routines (the staleness check's trigger).
    holder: dict[str, object] = {}

    def repeat():
        plan = holder.get("plan")
        if plan is None:
            node = SeqScan("chaos_scratch")
            node.bind_schema(db.relation("chaos_scratch").schema)
            plan = Filter(node, Cmp("<", Col("qty"), Const(30)))
            holder["plan"] = plan
        return ("rows", db.execute(plan))

    steps.append(("repeat-filter-1", repeat))
    steps.append(("repeat-filter-2", repeat))
    return steps


def _capture(thunk):
    """Run one step, reducing it to a comparable outcome (never raises).

    ChaosFault is kept distinct from ordinary errors: it must never
    reach this frame when the shield is on, and its appearance here is
    exactly what the self-test looks for.
    """
    try:
        return thunk()
    except ChaosFault as fault:
        return ("escape", fault.site)
    except Exception as exc:  # noqa: BLE001 — the comparison IS the handler
        return ("error", type(exc).__name__)


@dataclass
class SiteResult:
    site: str
    description: str
    statements: int = 0
    mismatches: list = field(default_factory=list)
    escapes: list = field(default_factory=list)
    fired: int = 0
    faults_recorded: int = 0
    quarantined: list = field(default_factory=list)
    evidence: bool = False

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.escapes and self.evidence

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _expected_outcomes(rows) -> dict[str, tuple]:
    """Run the scenario once on a stock database; outcomes are ground truth."""
    from repro.workloads.tpch.loader import build_tpch_database

    db = build_tpch_database(BeeSettings.stock(), rows=rows)
    return {
        label: _capture(thunk) for label, thunk in _build_scenario(db)
    }


def _site_settings(site) -> BeeSettings:
    # Every family on, so each site has a specialized routine to break;
    # verification stays OFF so planted faults reach the runtime guards
    # instead of being rejected at generation time.  Plan fusion is only
    # enabled for sites targeting the fused path — fused pipelines
    # inline their own deform/filter/aggregate loops, so GCL/EVP/AGG
    # faults would never be reached under fusion.  Vector sites arm the
    # whole ladder (vectors over pipelines) so a faulting kernel has
    # both the pipeline anchor and the generic interpreter to land on;
    # parallel sites arm the morsel tier on top of that full ladder.
    return BeeSettings.future().enabling(
        pipelines=site.fused, vectors=site.vectored, parallel=site.parallel
    )


def run_site(
    site_name: str,
    rows,
    expected: dict[str, tuple],
    seed: int,
    settings: BeeSettings | None = None,
) -> SiteResult:
    """Arm one site, run the scenario, compare against *expected*."""
    from repro.oracle.normalize import outcomes_equal, outcomes_equivalent
    from repro.workloads.tpch.loader import build_tpch_database

    site = SITES[site_name]
    chaos = ChaosInjector(seed)
    settings = settings if settings is not None else _site_settings(site)
    result = SiteResult(site.name, site.description)
    # Parallel sites compare with the float-tolerant equivalence: morsel
    # partial sums re-associate, so aggregate floats may differ from
    # stock in the last ulps without being wrong.
    agree = outcomes_equivalent if site.parallel else outcomes_equal

    def run_all(db):
        for label, thunk in _build_scenario(db):
            outcome = _capture(thunk)
            result.statements += 1
            if outcome[0] == "escape":
                result.escapes.append(label)
            elif not agree(outcome, expected[label]):
                result.mismatches.append(label)
            chaos.kick(site.name, db)

    if site.arm_with_db:
        db = build_tpch_database(settings, rows=rows)
        with site.arm(chaos, db):
            run_all(db)
    else:
        with site.arm(chaos, None):
            db = build_tpch_database(settings, rows=rows)
            run_all(db)

    report = db.resilience.report()
    result.fired = chaos.fired[site.name]
    result.faults_recorded = report["faults"]
    result.quarantined = report["quarantined"]
    result.evidence = site.triggered(chaos, db)
    db.close()   # release the worker pool, if one spawned
    return result


def run_ladder_lane(rows, expected: dict[str, tuple], seed: int) -> dict:
    """Arm the vector- and pipeline-shape faults *together*.

    With both fused tiers emitting corrupt rows, every specialized
    statement must walk the whole degradation ladder — vector kernel
    faults to the pipeline anchor, the pipeline faults to the generic
    interpreter — and still reproduce the stock results.  Both faults
    must demonstrably fire: a run where the pipeline tamper never
    triggers did not prove the middle rung exists.
    """
    from repro.oracle.normalize import outcomes_equal
    from repro.workloads.tpch.loader import build_tpch_database

    chaos = ChaosInjector(seed)
    settings = BeeSettings.future().enabling(pipelines=True, vectors=True)
    mismatches: list = []
    escapes: list = []
    vector_site = SITES["vector-shape"]
    pipeline_site = SITES["pipeline-arity"]
    with vector_site.arm(chaos, None), pipeline_site.arm(chaos, None):
        db = build_tpch_database(settings, rows=rows)
        for label, thunk in _build_scenario(db):
            outcome = _capture(thunk)
            if outcome[0] == "escape":
                escapes.append(label)
            elif not outcomes_equal(outcome, expected[label]):
                mismatches.append(label)
    vector_fired = chaos.fired["vector-shape"]
    pipeline_fired = chaos.fired["pipeline-arity"]
    return {
        "vector_fired": vector_fired,
        "pipeline_fired": pipeline_fired,
        "faults_recorded": db.resilience.report()["faults"],
        "mismatches": mismatches,
        "escapes": escapes,
        "ok": (
            not mismatches
            and not escapes
            and vector_fired > 0
            and pipeline_fired > 0
        ),
    }


def run_wal_lane(seed: int, rounds: int = 16) -> dict:
    """Tear the bee-cache WAL at seeded offsets; recovery must hold.

    Each round writes a committed record followed by one more appended
    record, then truncates the file at a random byte offset inside that
    final record (simulating a crash mid-``_append``).  Reopening the
    WAL must repair the tear, keep every committed record, and log the
    truncation to the resilience registry.
    """
    rng = random.Random(seed)
    registry = ResilienceRegistry()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(rounds):
            path = Path(tmp) / f"torn_{i}.wal"
            wal = BeeCacheWAL(path, registry)
            wal.log_delete("alpha")
            wal.commit()
            wal.log_delete("beta")
            text = path.read_text()
            body = text[:-1]                      # drop final newline
            start = body.rfind("\n") + 1          # final record start
            cut = rng.randrange(start + 1, len(body) + 1)
            path.write_text(text[:cut])
            reopened = BeeCacheWAL(path, registry)
            try:
                records = reopened.committed_records()
            except Exception as exc:  # noqa: BLE001 — lane verdict, not control flow
                failures.append(f"round {i}: {type(exc).__name__}")
                continue
            if [r["relation"] for r in records] != ["alpha"]:
                failures.append(f"round {i}: committed records lost")
    return {
        "rounds": rounds,
        "truncations": registry.wal_truncations,
        "failures": failures,
        "ok": not failures and registry.wal_truncations > 0,
    }


def _lane_detail(lane: dict) -> str:
    return ", ".join(
        f"{key}={lane[key]}"
        for key in ("mismatches", "escapes", "failures")
        if lane.get(key)
    ) or "fault never triggered"


def run_campaign(
    rows, seed: int = 0, sites: tuple[str, ...] | None = None
) -> PassResult:
    """The full chaos campaign over TPC-H *rows*: every site, the
    ladder, the WAL lane and the server lane.  A site that mismatches
    stock, lets a fault escape, or never fires is a finding."""
    from repro.resilience import serverlane

    expected = _expected_outcomes(rows)
    results = [
        # server=True sites need clients and a gate; they run in the
        # server lane below, not the single-session site harness.
        run_site(name, rows, expected, seed)
        for name in sites or SITE_NAMES
        if not SITES[name].server
    ]
    lanes = {
        "ladder": run_ladder_lane(rows, expected, seed),
        "wal-torn": run_wal_lane(seed),
    }
    server_sites = serverlane.run_server_lane(seed)["sites"]
    findings = [
        Finding("chaos", site.site, _lane_detail(site.to_dict()))
        for site in results
        if not site.ok
    ]
    findings += [
        Finding("chaos", name, _lane_detail(lane))
        for name, lane in {**lanes, **server_sites}.items()
        if not lane.get("ok", False)
    ]
    stats = {
        "sites": len(results) + len(server_sites),
        "lanes": len(lanes),
        "faults_fired": sum(site.fired for site in results),
        "by_site": {site.site: site.to_dict() for site in results},
        "by_lane": lanes,
        "by_server_site": server_sites,
    }
    return PassResult("resilience", stats, findings)


def run_self_test(rows, seed: int = 0) -> dict:
    """Prove the harness detects what the shield normally absorbs.

    Three deliberately *undefended* runs: a raising deform must surface
    as a ChaosFault escape, a wrong-type predicate as silent result
    mismatches, and — with the server's admission gate bypassed — a
    half-applied flip as a torn read.  If any run comes back clean, the
    harness could not have caught a real hole either — the self-test
    fails.
    """
    from repro.resilience import serverlane

    expected = _expected_outcomes(rows)
    verdicts = {}
    for name, expect in (("gcl-raise", "escapes"), ("evp-wrong-type", "mismatches")):
        unshielded = _site_settings(SITES[name]).enabling(shield=False)
        result = run_site(name, rows, expected, seed, settings=unshielded)
        detected = bool(result.escapes) or bool(result.mismatches)
        verdicts[name] = {
            "expected": expect,
            "escapes": result.escapes,
            "mismatches": result.mismatches,
            "caught": detected,
        }
    verdicts["server-unserialized"] = serverlane.run_unserialized_selftest(
        seed
    )
    return verdicts
