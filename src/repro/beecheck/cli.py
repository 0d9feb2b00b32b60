"""``python -m repro.beecheck`` — the full verification sweep.

Four stages, one report:

1. **Schema sweep** — generate GCL/SCL pairs for every TPC-H and TPC-C
   relation (TPC-H annotated relations additionally in their tuple-bee
   variant) and run all four passes over each routine.
2. **Generator sweeps** — enumerate the query-bee generators beyond EVP
   (EVJ templates, AGG, IDX) and a deterministic fused spec corpus
   covering every sink (rows / all four probe join types / grouped and
   grand-total agg), compiled through **both** fused tiers: pipeline
   row loops and columnar vector kernels.
3. **Query corpus** — drive a live bee-enabled :class:`~repro.db.Database`
   (pipelines on) with a seeded oracle statement stream (default 200
   statements), then verify every bee the engine actually built: the
   relation bees in the module cache, every memoized EVP/EVJ/AGG/IDX
   routine, and every cached pipeline bee against its spec.  A second
   database runs the same stream with the vector tier on and verifies
   every memoized kernel.
4. **Injection self-test** — prove the verifier itself fires on broken
   generators (see :mod:`repro.beecheck.selftest`).

The machine-readable report lands in ``results/beecheck/report.json``;
the exit status is nonzero on any finding or self-test miss.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis import add_standard_args, exit_code, write_report as _write
from repro.beecheck.checker import (
    check_agg,
    check_evj,
    check_evp,
    check_gcl,
    check_idx,
    check_pipeline,
    check_scl,
    check_vector,
)
from repro.beecheck.report import SweepReport
from repro.beecheck.selftest import run_selftest

DEFAULT_STATEMENTS = 200
DEFAULT_OUT = Path("results") / "beecheck"


def sweep_schemas(report: SweepReport) -> None:
    """Verify generated bees for every TPC-H/TPC-C relation layout."""
    from repro.bees.routines.gcl import generate_gcl
    from repro.bees.routines.scl import generate_scl
    from repro.cost.ledger import Ledger
    from repro.storage.layout import TupleLayout
    from repro.workloads.tpcc.schema import ALL_SCHEMAS as TPCC_SCHEMAS
    from repro.workloads.tpch.schema import ALL_SCHEMAS as TPCH_SCHEMAS
    from repro.workloads.tpch.schema import ANNOTATIONS

    targets: list[tuple[str, object, tuple[str, ...]]] = []
    for name, factory in TPCH_SCHEMAS.items():
        targets.append((name, factory(), ()))
        if name in ANNOTATIONS:
            targets.append((f"{name}_tuplebees", factory(), ANNOTATIONS[name]))
    for name, factory in TPCC_SCHEMAS.items():
        targets.append((name, factory(), ()))

    for label, schema, bee_attrs in targets:
        layout = TupleLayout(schema, bee_attrs)
        ledger = Ledger()
        gcl = generate_gcl(layout, ledger, f"GCL_{label}")
        scl = generate_scl(layout, ledger, f"SCL_{label}")
        report.routine_reports.append(check_gcl(gcl, layout))
        report.routine_reports.append(check_scl(scl, layout))


def sweep_futures(report: SweepReport) -> None:
    """Verify the query-bee generators beyond EVP: EVJ, AGG, IDX.

    EVJ templates are enumerated exhaustively (4 join types x 3 arities,
    exactly the ahead-of-time combination space).  AGG and IDX are the
    experimental Section VIII generators, exercised over representative
    spec/key-column shapes including the NULL-handling variants.
    """
    from repro.bees.routines.agg import generate_agg
    from repro.bees.routines.evj import JOIN_TYPES, instantiate_evj
    from repro.bees.routines.idx import generate_idx
    from repro.cost.ledger import Ledger
    from repro.engine import expr as E
    from repro.engine.aggregates import AggSpec

    for join_type in JOIN_TYPES:
        for n_keys in (1, 2, 3):
            routine = instantiate_evj(
                join_type, n_keys, f"evj_{join_type}"
            )
            report.routine_reports.append(check_evj(routine))

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
    counter = 0
    for specs in spec_lists:
        for assume_not_null in (False, True):
            counter += 1
            routine = generate_agg(
                specs, Ledger(), f"AGG_sweep{counter}", assume_not_null
            )
            report.routine_reports.append(
                check_agg(routine, specs, assume_not_null)
            )

    for key_indexes in ([0], [2, 0], [1, 3, 2]):
        routine = generate_idx(
            key_indexes, Ledger(), f"IDX_sweep_{len(key_indexes)}"
        )
        report.routine_reports.append(check_idx(routine, key_indexes))


def _fused_spec_corpus() -> list:
    """The deterministic fused-spec corpus shared by both fused tiers.

    Filtered/projected and full-row ``rows`` specs over the
    tuple-bee-annotated lineitem layout, all four join types on the
    ``probe`` sink, grouped and grand-total ``agg`` sinks — independent
    of what the fuzzed query corpus happens to fuse.  The pipeline and
    vector sweeps compile the *same* specs to their respective programs.
    """
    from repro.bees.pipeline.codegen import PipelineSpec
    from repro.engine import expr as E
    from repro.engine.aggregates import AggSpec
    from repro.storage.layout import TupleLayout
    from repro.workloads.tpch.schema import ALL_SCHEMAS, ANNOTATIONS

    def bound(expr, schema):
        return E.bind(expr, [a.name for a in schema.attributes])

    specs: list[PipelineSpec] = []

    def run(spec: PipelineSpec) -> None:
        specs.append(spec)

    li_schema = ALL_SCHEMAS["lineitem"]()
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
    run(PipelineSpec("lineitem", li_layout, qual=qual, output=output))
    run(PipelineSpec("lineitem", li_layout))  # full-row, unfiltered

    o_schema = ALL_SCHEMAS["orders"]()
    o_layout = TupleLayout(o_schema)
    o_qual = bound(E.Cmp("<", E.Col("o_orderkey"), E.Const(5000)), o_schema)
    custkey = o_schema.attnum("o_custkey")
    for join_type in ("inner", "left", "semi", "anti"):
        run(
            PipelineSpec(
                "orders",
                o_layout,
                qual=o_qual,
                sink="probe",
                join_type=join_type,
                probe_idx=(custkey,),
                build_width=2,
            )
        )

    aggs = (
        AggSpec("sum", bound(E.Col("l_quantity"), li_schema), name="s"),
        AggSpec("count", name="n"),
        AggSpec("count", bound(E.Col("l_discount"), li_schema), name="nd"),
    )
    run(
        PipelineSpec(
            "lineitem",
            li_layout,
            sink="agg",
            group_exprs=(bound(E.Col("l_returnflag"), li_schema),),
            aggs=aggs,
        )
    )
    run(PipelineSpec("lineitem", li_layout, sink="agg", aggs=aggs))
    return specs


def sweep_pipelines(report: SweepReport) -> None:
    """Verify fused pipeline bees over every sink on TPC-H layouts."""
    from repro.bees.pipeline.codegen import generate_pipeline
    from repro.cost.ledger import Ledger

    for counter, spec in enumerate(_fused_spec_corpus(), start=1):
        routine = generate_pipeline(spec, Ledger(), f"PIPE_sweep{counter}")
        report.routine_reports.append(check_pipeline(routine, spec))


def sweep_vectors(report: SweepReport) -> None:
    """Verify columnar vector kernels over the same fused-spec corpus."""
    from repro.bees.vector.codegen import generate_vector
    from repro.cost.ledger import Ledger

    for counter, spec in enumerate(_fused_spec_corpus(), start=1):
        routine = generate_vector(spec, Ledger(), f"VEC_sweep{counter}")
        report.routine_reports.append(check_vector(routine, spec))


def sweep_corpus(report: SweepReport, seed: int, statements: int) -> None:
    """Drive a live database and verify every bee it built."""
    from repro.bees.settings import BeeSettings
    from repro.db import Database
    from repro.oracle.generator import StatementGenerator
    from repro.oracle.normalize import run_statement

    db = Database(BeeSettings.all_bees().enabling(pipelines=True))
    generator = StatementGenerator(seed)
    pending = list(generator.bootstrap())
    executed = 0
    while executed < statements:
        stmt = pending.pop(0) if pending else generator.next_statement()
        run_statement(db, stmt.sql)
        executed += 1
    report.statements += executed

    module = db.bee_module
    for bee in module.cache.relation_bees.values():
        report.routine_reports.append(check_gcl(bee.gcl, bee.layout))
        report.routine_reports.append(check_scl(bee.scl, bee.layout))
    for expr, routine in module.evp_entries():
        report.routine_reports.append(check_evp(routine, expr))
    for routine in module._evj_by_shape.values():
        report.routine_reports.append(check_evj(routine))
    for specs, routine in module.agg_entries():
        report.routine_reports.append(check_agg(routine, list(specs)))
    for key_indexes, routine in module._idx_by_index.values():
        report.routine_reports.append(check_idx(routine, key_indexes))
    for _key, _anchor, spec, routine in module.fused_entries("pipeline"):
        report.routine_reports.append(check_pipeline(routine, spec))

    # Second pass with the vector tier on: the kernels the engine
    # actually memoizes are what execution would run, so verify those
    # (the pipeline-tier corpus above stays vector-free on purpose —
    # with vectors enabled the pipeline drivers become fallback anchors
    # and stop generating routines of their own).
    vdb = Database(BeeSettings.vectorized())
    generator = StatementGenerator(seed)
    pending = list(generator.bootstrap())
    executed = 0
    while executed < statements:
        stmt = pending.pop(0) if pending else generator.next_statement()
        run_statement(vdb, stmt.sql)
        executed += 1
    report.statements += executed
    for _key, _anchor, spec, routine in vdb.bee_module.fused_entries("vector"):
        report.routine_reports.append(check_vector(routine, spec))


def write_report(report: SweepReport, out_dir: Path) -> Path:
    return _write(report.to_dict(), out_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.beecheck",
        description="Statically verify and translation-validate all bees.",
    )
    add_standard_args(
        parser,
        out_default=str(DEFAULT_OUT),
        statements_default=DEFAULT_STATEMENTS,
        check_flag=False,   # beecheck always gates
    )
    args = parser.parse_args(argv)

    started = time.monotonic()
    report = SweepReport(seed=args.seed, statements=0)
    sweep_schemas(report)
    sweep_futures(report)
    sweep_pipelines(report)
    sweep_vectors(report)
    if args.statements > 0:
        sweep_corpus(report, args.seed, args.statements)
    if not args.no_selftest:
        report.selftest = run_selftest()
    report.elapsed = time.monotonic() - started

    path = write_report(report, args.out)
    print(report.summary())
    print(f"report: {path}")
    return exit_code(report.ok)


if __name__ == "__main__":
    sys.exit(main())
