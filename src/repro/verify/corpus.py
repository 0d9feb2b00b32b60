"""The one corpus every verification pass consumes.

Built once per ``python -m repro.verify`` run, from one seed:

* **TPC-H** — one generated row set (:data:`TPCH_SCALE`), handed out as
  a fresh loaded database per settings point (:meth:`Corpus.tpch_db`);
  the 22 hand-built query plans run once on the pipeline point.
* **TPC-C** — the schema plus a statement battery covering the planner
  surface the OLTP schema exercises (:data:`TPCC_STATEMENTS`).
* **Fuzz** — the seeded oracle statement stream, driven by the one
  :func:`drive` loop against one database per local tier point.
* **Routines** — a deterministic per-family spec corpus
  (:func:`spec_corpus`: every TPC-H/TPC-C layout, every EVJ template,
  representative AGG/IDX shapes, one fused spec per sink compiled
  through every local tier) plus what :func:`harvest` finds in each
  fuzz database's bee module.  beecheck verifies and swarmcheck proves
  pure exactly this list.

Plans are handed to *on_plan* the moment they finish executing: that is
when a plan is fully bound and the catalog still matches it (the fuzz
stream drops and recreates tables, so deferring the analysis would
manufacture unknown-relation and stale-layout findings).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.bees import drivers
from repro.bees.maker import BeeMaker
from repro.bees.pipeline.codegen import PipelineSpec
from repro.bees.routines.agg import generate_agg
from repro.bees.routines.evj import JOIN_TYPES, instantiate_evj
from repro.bees.routines.gcl import generate_gcl, generate_gcl_columns
from repro.bees.routines.idx import generate_idx
from repro.bees.routines.scl import generate_scl
from repro.bees.settings import BeeSettings
from repro.cost.ledger import Ledger
from repro.db import Database
from repro.engine import expr as E
from repro.engine.aggregates import AggSpec
from repro.hiveaudit.source import EngineSource
from repro.oracle.generator import StatementGenerator
from repro.oracle.normalize import run_adhoc
from repro.storage.layout import TupleLayout
from repro.workloads.tpcc.schema import ALL_SCHEMAS as TPCC_SCHEMAS
from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import build_tpch_database, generate_rows
from repro.workloads.tpch.queries import QUERIES
from repro.workloads.tpch.schema import ALL_SCHEMAS as TPCH_SCHEMAS
from repro.workloads.tpch.schema import ANNOTATIONS

#: The one TPC-H row set: small enough that the chaos campaign can load
#: it once per fault site, large enough that lineitem spans ~200 heap
#: pages (the morsel pool dispatches) and every tuple-bee data section
#: the SF 0.01 load creates is present.
TPCH_SCALE = 0.003
TPCH_SEED = 20120401

# Planner-surface coverage over the TPC-C schema: nullable columns,
# dates, DISTINCT, LEFT JOIN, HAVING, LIKE, IS NULL, LIMIT.
TPCC_STATEMENTS = (
    "SELECT * FROM warehouse",
    "SELECT w_id, w_name FROM warehouse WHERE w_tax > 0.05",
    "SELECT d_w_id, count(*) FROM district GROUP BY d_w_id",
    "SELECT c_last, c_balance FROM tpcc_customer "
    "WHERE c_balance < 0 ORDER BY c_balance LIMIT 10",
    "SELECT DISTINCT c_credit FROM tpcc_customer",
    "SELECT count(DISTINCT o_c_id) FROM oorder",
    "SELECT o_id, o_entry_d FROM oorder WHERE o_carrier_id IS NULL",
    "SELECT ol_w_id, sum(ol_amount), avg(ol_quantity) FROM order_line "
    "GROUP BY ol_w_id HAVING sum(ol_amount) > 0",
    "SELECT o_id, c_last FROM oorder "
    "INNER JOIN tpcc_customer ON o_c_id = c_id",
    "SELECT o_id, ol_amount FROM oorder "
    "LEFT JOIN order_line ON o_id = ol_o_id",
    "SELECT i_name, s_quantity FROM item "
    "INNER JOIN stock ON i_id = s_i_id WHERE s_quantity < 50",
    "SELECT no_w_id, no_d_id, min(no_o_id) FROM new_order "
    "GROUP BY no_w_id, no_d_id",
    "SELECT h_w_id, sum(h_amount) FROM history "
    "WHERE h_date > DATE '2024-01-01' GROUP BY h_w_id",
    "SELECT s_i_id FROM stock WHERE s_data LIKE '%original%'",
    "SELECT max(ol_delivery_d) FROM order_line "
    "WHERE ol_delivery_d IS NOT NULL",
)

#: ``on_plan(subject, plan, db)``, called after each successful execution.
OnPlan = Callable[[str, Any, Database], None]


@dataclass(frozen=True)
class RoutineEntry:
    """One routine of the corpus and what checking it needs.

    *kind* is the bee family (``gcl`` … ``idx``, or a local tier's
    name); ``check_<kind>(routine, *args)`` is beecheck's entry point
    for it.  Harvested fused routines also carry the *anchor* they were
    memoized under and the *label* of the database that built them, so
    the rewrite pass can replay the cached spec.
    """

    kind: str
    routine: Any
    args: tuple[Any, ...] = ()
    anchor: Any = None
    label: str = ""


def local_tiers() -> list[drivers.Tier]:
    """Tier rows whose routines are compiled in this process."""
    return [tier for tier in drivers.TIERS if not tier.remote]


def capture(
    db: Database, label: str, on_plan: OnPlan | None, run: Callable[[Database], Any]
) -> None:
    """Run *run(db)* with ``db.execute`` hooked: every plan that executes
    successfully is handed to *on_plan* while its bindings are live."""
    if on_plan is None:
        run(db)
        return
    original = db.execute
    counter = 0

    def hooked(plan: Any, *pargs: Any, **kwargs: Any) -> Any:
        nonlocal counter
        subject = f"{label}[{counter}]"
        counter += 1
        result = original(plan, *pargs, **kwargs)
        on_plan(subject, plan, db)
        return result

    db.execute = hooked  # type: ignore[method-assign]
    try:
        run(db)
    finally:
        del db.execute     # restore the bound method


def drive(db: Database, seed: int, n: int, on_plan: OnPlan | None = None) -> int:
    """The one fuzz-stream drive loop: run seed *seed*'s first *n*
    statements against *db*; returns the number executed.  Ad hoc, so
    that every statement plans and instantiates its own routines — the
    corpus is what the planner and the generators can produce, and a
    statement served from its shape's query bee would add nothing to it
    (the oracle pass is where the statement cache is exercised)."""
    label = f"fuzz[{db.settings.label()}]"
    count = 0
    for stmt in StatementGenerator(seed).stream(n):
        capture(
            db, f"{label}/{count}:{stmt.kind}", on_plan,
            lambda d, s=stmt.sql: run_adhoc(d, s),
        )
        count += 1
    return count


def harvest(module: Any, label: str = "") -> list[RoutineEntry]:
    """Every routine *module* holds, through its public accessors."""
    entries: list[RoutineEntry] = []
    for bee in module.cache.relation_bees.values():
        entries.append(RoutineEntry("gcl", bee.gcl, (bee.layout,)))
        entries.append(RoutineEntry("gcl_cols", bee.gcl_cols, (bee.layout,)))
        entries.append(RoutineEntry("scl", bee.scl, (bee.layout,)))
    for expr, routine in module.evp_entries():
        entries.append(RoutineEntry("evp", routine, (expr,)))
    for routine in module.evj_entries():
        entries.append(RoutineEntry("evj", routine))
    for specs, routine in module.agg_entries():
        entries.append(RoutineEntry("agg", routine, (list(specs),)))
    for key_indexes, routine in module.idx_entries():
        entries.append(RoutineEntry("idx", routine, (key_indexes,)))
    for tier in local_tiers():
        for _key, anchor, spec, routine in module.fused_entries(tier.name):
            entries.append(
                RoutineEntry(tier.name, routine, (spec,), anchor, label)
            )
    return entries


# -- the deterministic per-family spec corpus ---------------------------------


def _relation_layouts() -> Iterator[tuple[str, TupleLayout]]:
    """Every TPC-H and TPC-C layout; TPC-H annotated relations also in
    their tuple-bee variant."""
    for name, factory in TPCH_SCHEMAS.items():
        yield name, TupleLayout(factory())
        if name in ANNOTATIONS:
            yield f"{name}_tuplebees", TupleLayout(factory(), ANNOTATIONS[name])
    for name, factory in TPCC_SCHEMAS.items():
        yield name, TupleLayout(factory())


def fused_specs() -> list[PipelineSpec]:
    """One fused spec per sink shape, independent of what the fuzz
    stream happens to fuse: filtered/projected and full-row ``rows``
    over the tuple-bee-annotated lineitem layout plus the filtered
    full-row ctid scan (a write's match plan), all four join types on
    the ``probe`` sink, grouped, grand-total and column-free
    (``COUNT(*)`` alone) ``agg`` sinks."""

    def bound(expr: E.Expr, schema: Any) -> E.Expr:
        return E.bind(expr, [a.name for a in schema.attributes])

    li_schema = TPCH_SCHEMAS["lineitem"]()
    li_layout = TupleLayout(li_schema, ANNOTATIONS["lineitem"])
    qual = bound(
        E.And(
            E.Cmp(">", E.Col("l_quantity"), E.Const(10.0)),
            E.Cmp("<", E.Col("l_discount"), E.Const(0.05)),
        ),
        li_schema,
    )
    output = [
        bound(E.Col("l_orderkey"), li_schema),
        bound(
            E.Arith(
                "*",
                E.Col("l_extendedprice"),
                E.Arith("-", E.Const(1), E.Col("l_discount")),
            ),
            li_schema,
        ),
    ]
    specs = [
        PipelineSpec("lineitem", li_layout, qual=qual, output=output),
        PipelineSpec("lineitem", li_layout),  # full-row, unfiltered
        PipelineSpec("lineitem", li_layout, qual=qual, ctid=True),
    ]

    o_schema = TPCH_SCHEMAS["orders"]()
    o_qual = bound(E.Cmp("<", E.Col("o_orderkey"), E.Const(5000)), o_schema)
    for join_type in JOIN_TYPES:
        specs.append(
            PipelineSpec(
                "orders",
                TupleLayout(o_schema),
                qual=o_qual,
                sink="probe",
                join_type=join_type,
                probe_idx=(o_schema.attnum("o_custkey"),),
                build_width=2,
            )
        )

    aggs = (
        AggSpec("sum", bound(E.Col("l_quantity"), li_schema), name="s"),
        AggSpec("count", name="n"),
        AggSpec("count", bound(E.Col("l_discount"), li_schema), name="nd"),
    )
    specs.append(
        PipelineSpec(
            "lineitem",
            li_layout,
            sink="agg",
            group_exprs=(bound(E.Col("l_returnflag"), li_schema),),
            aggs=aggs,
        )
    )
    specs.append(PipelineSpec("lineitem", li_layout, sink="agg", aggs=aggs))
    # Column-free: an unfiltered grand COUNT(*) reads no attribute, so
    # the row-loop backend inlines no deform at all.
    specs.append(
        PipelineSpec(
            "lineitem", li_layout, sink="agg",
            aggs=(AggSpec("count", name="n"),),
        )
    )
    return specs


def spec_corpus() -> list[RoutineEntry]:
    """Family coverage that does not depend on the fuzz stream.

    EVJ templates are enumerated exhaustively (4 join types x 3
    arities, the ahead-of-time combination space); AGG and IDX over
    representative spec / key-column shapes including the NULL-handling
    variants; the fused specs through every local tier's generator.
    """
    ledger = Ledger()
    entries: list[RoutineEntry] = []
    for label, layout in _relation_layouts():
        gcl = generate_gcl(layout, ledger, f"GCL_{label}")
        gcl_cols = generate_gcl_columns(layout, f"GCLC_{label}")
        scl = generate_scl(layout, ledger, f"SCL_{label}")
        entries.append(RoutineEntry("gcl", gcl, (layout,)))
        entries.append(RoutineEntry("gcl_cols", gcl_cols, (layout,)))
        entries.append(RoutineEntry("scl", scl, (layout,)))

    for join_type in JOIN_TYPES:
        for n_keys in (1, 2, 3):
            entries.append(RoutineEntry(
                "evj", instantiate_evj(join_type, n_keys, f"evj_{join_type}")
            ))

    columns = ["p", "d", "q"]
    revenue = E.bind(
        E.Arith("*", E.Col("p"), E.Arith("-", E.Const(1), E.Col("d"))),
        columns,
    )
    spec_lists = [
        [AggSpec("count", name="n")],
        [
            AggSpec("sum", revenue, name="rev"),
            AggSpec("count", name="n"),
            AggSpec("avg", E.bind(E.Col("p"), columns), name="avg_p"),
            AggSpec("count", E.bind(E.Col("d"), columns), name="nd"),
        ],
        [
            AggSpec("min", E.bind(E.Col("q"), columns), name="lo"),
            AggSpec("max", E.bind(E.Col("q"), columns), name="hi"),
        ],
    ]
    variants = itertools.product(spec_lists, (False, True))
    for counter, (specs, assume_not_null) in enumerate(variants, start=1):
        routine = generate_agg(
            specs, ledger, f"AGG_spec{counter}", assume_not_null
        )
        entries.append(RoutineEntry("agg", routine, (specs, assume_not_null)))

    for key_indexes in ([0], [2, 0], [1, 3, 2]):
        routine = generate_idx(
            key_indexes, ledger, f"IDX_spec_{len(key_indexes)}"
        )
        entries.append(RoutineEntry("idx", routine, (key_indexes,)))

    maker = BeeMaker(ledger)
    for tier in local_tiers():
        for spec in fused_specs():
            entries.append(
                RoutineEntry(tier.name, maker.make_fused(tier, spec), (spec,))
            )
    return entries


# -- the corpus ---------------------------------------------------------------


class Corpus:
    """Everything a verification run checks, built once (see module
    docstring).  Owns its databases: use as a context manager, or call
    :meth:`close`."""

    def __init__(
        self, seed: int = 0, statements: int = 200,
        on_plan: OnPlan | None = None,
    ) -> None:
        self.seed = seed
        self.statements = statements
        #: The engine's own source tree (hiveaudit, swarmcheck).
        self.source = EngineSource()
        self.tpch_rows = generate_rows(TPCHGenerator(TPCH_SCALE, TPCH_SEED))
        #: ``label -> live database`` the sweeps left behind.
        self.databases: dict[str, Database] = {}
        self.routines: list[RoutineEntry] = spec_corpus()
        #: Statements executed while building.
        self.executed = 0

        points = [
            (tier, settings)
            for tier, settings in drivers.settings_points(BeeSettings.all_bees())
            if not tier.remote
        ]
        base = points[0][1]

        tpch = self.tpch_db(base)
        self.databases["tpch"] = tpch
        for number in sorted(QUERIES):
            capture(tpch, f"tpch/q{number:02d}", on_plan, QUERIES[number])
        self.executed += len(QUERIES)

        tpcc = Database(base)
        self.databases["tpcc"] = tpcc
        for factory in TPCC_SCHEMAS.values():
            tpcc.create_table(factory())
        for index, statement in enumerate(TPCC_STATEMENTS):
            capture(
                tpcc, f"tpcc/{index}", on_plan,
                lambda d, s=statement: d.sql(s),
            )
        self.executed += len(TPCC_STATEMENTS)

        # One fuzz database per local tier point: with a higher tier on,
        # the drivers below it become fallback anchors and stop
        # generating routines of their own.
        for tier, settings in points:
            label = f"fuzz/{tier.name}"
            db = Database(settings)
            self.databases[label] = db
            self.executed += drive(db, seed, statements, on_plan)
            self.routines.extend(harvest(db.bee_module, label))

    def tpch_db(self, settings: BeeSettings) -> Database:
        """A fresh database loaded with the corpus's TPC-H rows (the
        caller closes it)."""
        return build_tpch_database(settings, rows=self.tpch_rows)

    def census(self) -> dict[str, int]:
        """Routine count per family."""
        counts: dict[str, int] = {}
        for entry in self.routines:
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
        return dict(sorted(counts.items()))

    def close(self) -> None:
        for db in self.databases.values():
            db.close()

    def __enter__(self) -> "Corpus":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
