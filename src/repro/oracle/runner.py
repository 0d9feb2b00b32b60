"""The differential campaign runner: N plans, one statement stream.

Every generated statement is executed against a stock-settings
:class:`~repro.db.Database` and a bee-enabled one; their outcomes (rows,
status, or error type) must match statement by statement.  The stock
engine is the reference in every sense: it runs each statement ad hoc
(parse, plan, run), while the bee engine runs it through ``db.sql`` —
from its shape's query bee when it has one — so the engine diff also
covers what the statement front door binds and patches, for writes as
much as reads.  On top of the engine diff, eligible statements get four
more lanes:

* **proto**: a SELECT's cache-served outcome must equal the ad hoc
  outcome *on the same database under the same settings* — what
  separates a front-door bug (a constant bound to the wrong hole, a
  routine hole left stale) from a bee bug.  The generator re-issues a
  share of its statements as literal siblings, so shapes do get hit.

* **N-way plans**: every tier is just another plan for the same
  statement, so a SELECT re-runs on the bee database — same physical
  tuples — under every legal settings point and each must reproduce the
  specialized result; an UPDATE or DELETE has its *match plan* run the
  same way just before the write is applied (never applied itself), so
  every point must find the same ``(values…, ctid)`` rows.  The points are the generic interpreter
  (``bees=False``: isolates execution-path bugs from storage bugs) and
  one per row of :data:`repro.bees.drivers.TIERS`, computed by
  :func:`~repro.bees.drivers.settings_points`; a new tier row is
  covered by construction.  Comparison is exact unless the row is
  ``remote`` (partial sums re-associate across workers: order-
  insensitive, float-tolerant).  The lane also counts, per tier, the
  statements that actually *executed* there, and runs over hand-built
  plans (:meth:`DifferentialOracle.run_queries`, the TPC-H slice) as
  well as the fuzz stream — fuzz tables are too small for the worker
  pool to dispatch.
* **TLP + rewrites**: metamorphic self-consistency on each database
  (see :mod:`repro.oracle.metamorphic`).
* **columnar**: for ``SELECT SUM(..) FROM t WHERE ..`` over all-NOT-NULL
  scalar tables, the generic and specialized (CDL/fused) columnar
  executors must agree with the row engine.

Divergences are minimized into replayable SQL scripts, and a fingerprint
over the stock engine's outcomes pins the whole corpus for the golden
baseline under ``results/oracle/``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Mapping

from repro.bees import drivers
from repro.bees.settings import BeeSettings
from repro.db import Database
from repro.oracle.generator import GenStatement, StatementGenerator
from repro.oracle.metamorphic import check_tlp, rewrite_statements
from repro.oracle.minimize import minimize_statements
from repro.oracle.normalize import (
    Outcome,
    canonical,
    describe_outcome,
    outcomes_equal,
    outcomes_equivalent,
    run_adhoc,
    run_statement,
)
from repro.sql import parse
from repro.sql.session import plan_match


@dataclass
class Divergence:
    """One confirmed disagreement, with a replayable repro script."""

    check: str
    sql: str
    detail: str
    repro: list[str]

    def script(self) -> str:
        lines = [f"-- {self.check}: {self.detail}"]
        lines += [f"{sql};" for sql in self.repro]
        lines.append(f"{self.sql};  -- divergent statement")
        return "\n".join(lines) + "\n"


@dataclass
class OracleReport:
    """Campaign summary: what ran, what was checked, what disagreed."""

    seed: int
    iterations: int
    elapsed: float
    statement_counts: dict[str, int]
    check_counts: dict[str, int]
    #: Per tier row, the statements that actually executed on it.
    tier_counts: dict[str, int]
    divergences: list[Divergence]
    fingerprint: str

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "elapsed_seconds": round(self.elapsed, 3),
            "statements": dict(sorted(self.statement_counts.items())),
            "checks": dict(sorted(self.check_counts.items())),
            "executed_on_tier": dict(self.tier_counts),
            "fingerprint": self.fingerprint,
            "divergences": [asdict(d) for d in self.divergences],
        }

    def summary(self) -> str:
        lines = [
            f"oracle seed={self.seed}: {self.iterations} statements in "
            f"{self.elapsed:.1f}s, fingerprint {self.fingerprint}",
            "statements: "
            + ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.statement_counts.items())
            ),
            "checks:     "
            + ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.check_counts.items())
            ),
            "on tier:    "
            + ", ".join(
                f"{tier}={count}" for tier, count in self.tier_counts.items()
            ),
        ]
        if self.ok:
            lines.append("no divergences")
        else:
            lines.append(f"{len(self.divergences)} DIVERGENCE(S):")
            for d in self.divergences:
                lines.append(f"  [{d.check}] {d.sql}")
                lines.append(f"    {d.detail}")
        return "\n".join(lines)


def _sum_equal(expected, got) -> bool:
    if expected is None or got is None:
        return expected is None and got is None
    return math.isclose(float(expected), float(got), rel_tol=1e-9, abs_tol=1e-6)


def _on_tier(stats: dict, tier: drivers.Tier) -> int:
    """How much work *stats* (``db.stats()``) attributes to *tier*: the
    fused drivers that ran its routine instead of draining their anchor
    (a statement served from a query bee generates nothing, so routine
    counts say nothing about where it ran)."""
    return stats["bees"].get(f"{tier.name}_executed", 0)


def _match_outcome(db: Database, sql: str, settings=None) -> Outcome:
    """Run (never apply) the match plan of UPDATE/DELETE *sql*: its
    ``(values…, ctid)`` rows, or the error type."""
    try:
        plan = plan_match(db, parse(sql))
        return ("rows", db.execute(plan, emit=False, settings=settings))
    except Exception as exc:  # noqa: BLE001 — the comparison IS the handler
        return ("error", type(exc).__name__)


@dataclass(frozen=True)
class PlanPoint:
    """One settings point of the N-way lane."""

    name: str
    settings: BeeSettings
    tier: drivers.Tier | None = None   # None: the generic interpreter

    @property
    def check(self) -> str:
        return f"plan:{self.name}"

    def agree(self, base: Outcome, out: Outcome, ordered: bool) -> bool:
        if self.tier is not None and self.tier.remote:
            return outcomes_equivalent(base, out)
        return outcomes_equal(base, out, ordered=ordered)


def plan_points(base: BeeSettings) -> list[PlanPoint]:
    """The legal plans for one statement over *base*: generic on the
    same storage, then one point per tier row."""
    return [PlanPoint("generic", BeeSettings.stock())] + [
        PlanPoint(tier.name, settings, tier)
        for tier, settings in drivers.settings_points(base)
    ]


class DifferentialOracle:
    """Runs one seeded campaign across the engine pair."""

    def __init__(
        self,
        seed: int,
        bee_settings: BeeSettings | None = None,
        minimize: bool = True,
        minimize_trials: int = 120,
        minimize_cap: int = 8,
    ) -> None:
        self.seed = seed
        # Campaigns gate every emitted bee on beecheck by default: a
        # routine the static verifier rejects should never reach the
        # differential comparison (pass explicit settings to opt out).
        self.bee_settings = (
            bee_settings or BeeSettings.all_bees().verified()
        )
        self.minimize = minimize
        self.minimize_trials = minimize_trials
        self.minimize_cap = minimize_cap
        self.generator = StatementGenerator(seed)
        self.stock = Database(BeeSettings.stock())
        self.bee = Database(self.bee_settings)
        self.points = plan_points(self.bee_settings)
        self.history: list[GenStatement] = []
        self.divergences: list[Divergence] = []
        self.statement_counts: dict[str, int] = {}
        self.check_counts: dict[str, int] = {}
        self.tier_counts = {
            point.name: 0 for point in self.points if point.tier is not None
        }
        self.iterations = 0
        self._started = time.monotonic()
        self._digest = hashlib.sha256()

    def close(self) -> None:
        """Release the bee database's worker pool, if one spawned."""
        self.bee.close()

    # -- campaign --------------------------------------------------------------

    def run(
        self, iterations: int, time_budget: float | None = None
    ) -> OracleReport:
        """Drive the seed's fuzz stream through every lane."""
        started = time.monotonic()
        for stmt in self.generator.stream(iterations):
            if (
                time_budget is not None
                and time.monotonic() - started > time_budget
            ):
                break
            self._run_one(stmt)
            self.iterations += 1
        return self.report()

    def run_queries(
        self, db: Database, queries: Mapping[str, Callable[[Database], list]]
    ) -> OracleReport:
        """The N-way lane over hand-built plans: each ``query(db)`` runs
        under *db*'s own settings and then under every plan point."""

        def outcome(query) -> Outcome:
            try:
                return ("rows", [tuple(row) for row in query(db)])
            except Exception as exc:  # noqa: BLE001 — the comparison IS the handler
                return ("error", type(exc).__name__)

        for label, query in queries.items():
            self._count(self.statement_counts, "query")
            base = outcome(query)

            def run_at(settings, query=query) -> Outcome:
                with db.use_settings(settings):
                    return outcome(query)

            for point, out in self._nway(db, base, run_at, ordered=False):
                self.divergences.append(Divergence(
                    point.check, label,
                    f"{point.name}={describe_outcome(out)} "
                    f"base={describe_outcome(base)}",
                    repro=[],
                ))
        return self.report()

    def report(self) -> OracleReport:
        return OracleReport(
            seed=self.seed,
            iterations=self.iterations,
            elapsed=time.monotonic() - self._started,
            statement_counts=self.statement_counts,
            check_counts=self.check_counts,
            tier_counts=self.tier_counts,
            divergences=self.divergences,
            fingerprint=self._digest.hexdigest()[:16],
        )

    # -- per-statement checks --------------------------------------------------

    def _count(self, bucket: dict, key: str) -> None:
        bucket[key] = bucket.get(key, 0) + 1

    def _run_one(self, stmt: GenStatement) -> None:
        self._count(self.statement_counts, stmt.kind)
        if stmt.kind in ("update", "delete"):
            self._check_match_plans(stmt)      # on the rows it is about to hit
        out_stock = run_adhoc(self.stock, stmt.sql)
        out_bee = run_statement(self.bee, stmt.sql)
        self._digest.update(stmt.sql.encode())
        self._digest.update(canonical(out_stock).encode())

        self._count(self.check_counts, "engine-diff")
        if not outcomes_equal(out_stock, out_bee, ordered=stmt.ordered):
            self._record(
                "engine-diff",
                stmt,
                f"stock={describe_outcome(out_stock)} "
                f"bees={describe_outcome(out_bee)}",
                lambda stock, bee: not outcomes_equal(
                    run_adhoc(stock, stmt.sql),
                    run_statement(bee, stmt.sql),
                    ordered=stmt.ordered,
                ),
            )

        if stmt.kind == "select":
            self._check_proto(stmt, out_bee)
        if stmt.kind == "select" and out_bee[0] == "rows":
            self._check_plans(stmt, out_bee)
        if stmt.tlp is not None and out_stock[0] == "rows" and out_bee[0] == "rows":
            self._check_metamorphic(stmt, out_stock, out_bee)
        if stmt.columnar is not None and out_stock[0] == "rows":
            self._check_columnar(stmt)

        self.history.append(stmt)

    def _nway(
        self, db: Database, base: Outcome, run_at, ordered: bool
    ) -> Iterator[tuple[PlanPoint, Outcome]]:
        """Re-run one statement under every plan point; yields the
        points whose outcome disagrees with *base*.

        Plans with nothing a tier can fuse (or relations too small to
        fan out) fall down the ladder and compare trivially — the lane
        still runs them, so a matcher that misfires on an 'unsupported'
        shape is caught too; ``tier_counts`` records the statements
        that really ran on each tier."""
        before = db.stats()
        for point in self.points:
            self._count(self.check_counts, point.check)
            out = run_at(point.settings)
            if point.tier is not None:
                after = db.stats()
                if _on_tier(after, point.tier) > _on_tier(before, point.tier):
                    self.tier_counts[point.name] += 1
                before = after
            if not point.agree(base, out, ordered):
                yield point, out

    def _check_proto(self, stmt: GenStatement, out_bee: Outcome) -> None:
        """Cache-served vs ad hoc, same database, same settings."""
        self._count(self.check_counts, "proto")
        reference = run_adhoc(self.bee, stmt.sql)
        if outcomes_equal(reference, out_bee, ordered=stmt.ordered):
            return
        self._record(
            "proto",
            stmt,
            f"cached={describe_outcome(out_bee)} "
            f"ad hoc={describe_outcome(reference)}",
            lambda _stock, bee: not outcomes_equal(
                run_adhoc(bee, stmt.sql),
                run_statement(bee, stmt.sql),
                ordered=stmt.ordered,
            ),
        )

    def _check_plans(self, stmt: GenStatement, out_bee: Outcome) -> None:
        def run_at(settings) -> Outcome:
            return run_statement(self.bee, stmt.sql, bees=settings)

        for point, out in self._nway(self.bee, out_bee, run_at, stmt.ordered):

            def still_diverges(_stock, bee, point=point) -> bool:
                a = run_statement(bee, stmt.sql)
                b = run_statement(bee, stmt.sql, bees=point.settings)
                return not point.agree(a, b, stmt.ordered)

            self._record(
                point.check,
                stmt,
                f"{point.name}={describe_outcome(out)} "
                f"bees={describe_outcome(out_bee)}",
                still_diverges,
            )

    def _check_match_plans(self, stmt: GenStatement) -> None:
        """The N-way lane over a write's match plan: which rows, at
        which tuple identifiers, each tier would hand the apply phase."""
        base = _match_outcome(self.bee, stmt.sql)
        if base[0] != "rows":
            return      # the statement itself errors: engine-diff's lane

        def run_at(settings) -> Outcome:
            return _match_outcome(self.bee, stmt.sql, settings)

        for point, out in self._nway(self.bee, base, run_at, ordered=False):

            def still_diverges(_stock, bee, point=point) -> bool:
                a = _match_outcome(bee, stmt.sql)
                b = _match_outcome(bee, stmt.sql, point.settings)
                return not point.agree(a, b, False)

            self._record(
                point.check,
                stmt,
                f"match plan: {point.name}={describe_outcome(out)} "
                f"bees={describe_outcome(base)}",
                still_diverges,
            )

    def _check_metamorphic(self, stmt: GenStatement, out_stock, out_bee) -> None:
        tlp = stmt.tlp
        for label, db in (("tlp-stock", self.stock), ("tlp-bees", self.bee)):
            self._count(self.check_counts, "tlp")
            detail = check_tlp(db, tlp)
            if detail is not None:
                bee_side = label.endswith("bees")

                def still_diverges(stock, bee, bee_side=bee_side) -> bool:
                    target = bee if bee_side else stock
                    return check_tlp(target, tlp) is not None

                self._record(label, stmt, detail, still_diverges)
        for rewrite_label, rewritten_sql in rewrite_statements(tlp):
            for label, db, base in (
                ("rewrite-stock", self.stock, out_stock),
                ("rewrite-bees", self.bee, out_bee),
            ):
                self._count(self.check_counts, "rewrite")
                out_rw = run_statement(db, rewritten_sql)
                if outcomes_equal(base, out_rw, ordered=False):
                    continue
                bee_side = label.endswith("bees")

                def still_diverges(
                    stock, bee, bee_side=bee_side, rsql=rewritten_sql
                ) -> bool:
                    target = bee if bee_side else stock
                    a = run_statement(target, stmt.sql)
                    b = run_statement(target, rsql)
                    return not outcomes_equal(a, b, ordered=False)

                self._record(
                    f"{label}:{rewrite_label}",
                    stmt,
                    f"base={describe_outcome(base)} "
                    f"rewritten={describe_outcome(out_rw)} "
                    f"({rewritten_sql})",
                    still_diverges,
                )

    # -- columnar lane ---------------------------------------------------------

    def _columnar_detail(self, stmt: GenStatement, db: Database) -> str | None:
        """Cross-check a SUM/WHERE probe against the columnar engine."""
        from repro.columnar import ColumnStore, ColumnarExecutor
        from repro.sql.planner import lower_expr

        try:
            rel = db.relation(stmt.columnar.table)
        except Exception:  # noqa: BLE001 — table dropped during replay
            return None
        columns = rel.schema.column_names()
        stmt_ast = parse(stmt.sql)
        qual = lower_expr(stmt_ast.where, columns)
        sum_expr = lower_expr(stmt_ast.items[0].expr.arg, columns)
        row_out = run_statement(db, stmt.sql)
        if row_out[0] != "rows" or len(row_out[1]) != 1:
            return None
        expected = row_out[1][0][0]
        store = ColumnStore(rel.schema)
        try:
            store.load(db.sql(f"SELECT * FROM {stmt.columnar.table}").rows)
        except TypeError:
            # A NULL crept into a typed column buffer; the table is no
            # longer columnar-loadable, which is a capability gap, not a
            # divergence.
            return None
        for specialized in (False, True):
            executor = ColumnarExecutor(store, specialized=specialized)
            try:
                result = executor.sum_where(qual, columns, sum_expr, columns)
            except Exception as exc:  # noqa: BLE001 — a crash IS a finding
                return (
                    f"columnar(specialized={specialized}) raised "
                    f"{type(exc).__name__} where the row engine returned "
                    f"{expected!r}"
                )
            got = result.value if result.rows_passed else None
            if not _sum_equal(expected, got):
                return (
                    f"columnar(specialized={specialized}) sum={got!r} "
                    f"!= row-engine sum={expected!r}"
                )
        return None

    def _check_columnar(self, stmt: GenStatement) -> None:
        self._count(self.check_counts, "columnar")
        detail = self._columnar_detail(stmt, self.stock)
        if detail is None:
            return
        self._record(
            "columnar", stmt, detail,
            lambda stock, _bee: self._columnar_detail(stmt, stock) is not None,
        )

    # -- divergence recording and minimization ---------------------------------

    def _recheck(self, still_diverges) -> Callable[[list[GenStatement]], bool]:
        """The one replay harness the minimizer calls: run a candidate
        prefix on a fresh engine pair, ask *still_diverges(stock, bee)*,
        and close the databases it replayed (a point may have spawned a
        worker pool).  A replay that raises is not a repro."""

        def recheck(prefix: list[GenStatement]) -> bool:
            stock = Database(BeeSettings.stock())
            bee = Database(self.bee_settings)
            try:
                for s in prefix:
                    run_adhoc(stock, s.sql)
                    run_statement(bee, s.sql)
                return bool(still_diverges(stock, bee))
            except Exception:  # noqa: BLE001 — replay failure != repro
                return False
            finally:
                stock.close()
                bee.close()

        return recheck

    def _record(
        self, check: str, stmt: GenStatement, detail: str, still_diverges
    ) -> None:
        prefix = list(self.history)
        # A badly broken engine produces dozens of near-identical
        # divergences; minimizing each replays the whole prefix per ddmin
        # trial, so only the first `minimize_cap` get the full treatment.
        if self.minimize and len(self.divergences) < self.minimize_cap:
            prefix = minimize_statements(
                prefix, self._recheck(still_diverges),
                max_trials=self.minimize_trials,
            )
        self.divergences.append(
            Divergence(
                check=check,
                sql=stmt.sql,
                detail=detail,
                repro=[s.sql for s in prefix],
            )
        )


def run_campaign(
    seed: int,
    iterations: int,
    time_budget: float | None = None,
    bee_settings: BeeSettings | None = None,
    minimize: bool = True,
) -> OracleReport:
    """Convenience wrapper: one oracle, one fuzz campaign."""
    oracle = DifferentialOracle(
        seed, bee_settings=bee_settings, minimize=minimize
    )
    try:
        return oracle.run(iterations, time_budget=time_budget)
    finally:
        oracle.close()
