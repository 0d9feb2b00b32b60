"""Experiments beyond the paper's figures: the design-choice ablations
of DESIGN.md, the Section VIII future-work routines, the column-store
orthogonality claim, and a real-clock generic-vs-generated microbench.
"""

from __future__ import annotations

import timeit

from repro.bees.maker import BeeMaker
from repro.bees.placement import BeePlacementOptimizer
from repro.bees.routines.evp import generate_evp
from repro.bees.routines.gcl import generate_gcl
from repro.bees.routines.scl import generate_scl
from repro.bees.settings import BeeSettings
from repro.bench.reporting import improvement
from repro.catalog import INT4, char, make_schema, varchar
from repro.columnar import ColumnarExecutor, ColumnStore
from repro.cost.ledger import Ledger
from repro.db import Database
from repro.engine.deform import GenericDeformer, GenericFiller
from repro.engine.expr import And, Arith, Between, Cmp, Col, Const, bind
from repro.storage.layout import TupleLayout
from repro.workloads.tpch.loader import build_tpch_database
from repro.workloads.tpch.queries import QUERIES
from repro.workloads.tpch.schema import lineitem_schema, orders_schema

AGG_HEAVY_QUERIES = (1, 9, 16, 18)
Q6_QUAL_COLS = ["l_shipdate", "l_discount", "l_quantity"]
Q6_SUM_COLS = ["l_extendedprice", "l_discount"]


def _q6_qual():
    return And(
        Between(Col("l_shipdate"), 8766, 9130),
        Between(Col("l_discount"), 0.05, 0.07),
        Cmp("<", Col("l_quantity"), Const(24.0)),
    )


def ns_per_call(fn, *args, number: int = 2000, repeat: int = 5) -> float:
    """Best-of-*repeat* real nanoseconds for one ``fn(*args)``."""
    return min(timeit.repeat(lambda: fn(*args), number=number, repeat=repeat)) / number * 1e9


def cardinality_sweep(
    n_rows: int = 4000, cardinalities=(2, 16, 64, 256, 1024)
) -> dict[int, float]:
    """Bulk-load gain as the annotated attribute's cardinality grows: the
    memcmp scan over data sections lengthens until the trade turns
    negative (the paper's 256-value cap)."""
    schema = make_schema(
        "sweep", [("k", INT4), ("tag", char(12)), ("payload", varchar(40))], ("k",)
    )

    def load(settings: BeeSettings, cardinality: int) -> float:
        db = Database(settings)
        db.create_table(schema, annotate=("tag",))
        rows = [
            [i, f"tag-{i % cardinality:05d}", f"payload text {i}"] for i in range(n_rows)
        ]
        return db.measure(lambda: db.copy_from("sweep", rows)).seconds

    return {
        c: improvement(load(BeeSettings.stock(), c), load(BeeSettings.all_bees(), c))
        for c in cardinalities
    }


def instantiation_cost() -> dict[str, float]:
    """Real ns to clone-and-patch an EVJ template vs to generate and
    ``compile()`` an EVP routine — why query bees are pre-compiled."""
    maker = BeeMaker(Ledger())
    predicate = bind(
        And(Between(Col("a"), 10, 20), Cmp("=", Col("b"), Const("x"))), ["a", "b"]
    )
    return {
        "clone_evj_ns": ns_per_call(maker.make_evj, "inner", 2, number=200),
        "recompile_evp_ns": ns_per_call(maker.make_evp, predicate, True, number=200),
    }


def placement() -> dict[str, dict]:
    """Naive vs optimized bee placement on the simulated 32 KB L1-I."""
    optimizer = BeePlacementOptimizer()
    bees = [(f"bee{i}", 512 + 64 * i, 1.0 + i / 4) for i in range(12)]
    return {
        "naive": optimizer.evaluate(optimizer.naive_placement(bees)),
        "optimized": optimizer.evaluate(optimizer.optimize(bees)),
    }


def agg_future(rows: dict, queries=AGG_HEAVY_QUERIES) -> dict[int, tuple[float, float]]:
    """Per query ``(paper bees %, +AGG %)`` run-time improvement over
    stock.  AGG alone on top of the paper's system: ``future()`` also
    turns on fused pipelines, which would swamp the routine's share."""
    paper_bees = BeeSettings.all_bees()
    stock, paper, future = (
        build_tpch_database(settings, rows=rows)
        for settings in (BeeSettings.stock(), paper_bees, paper_bees.enabling(agg=True))
    )
    out = {}
    for n in queries:
        runs = [db.measure(lambda db=db: QUERIES[n](db)) for db in (stock, paper, future)]
        if not runs[0].result == runs[1].result == runs[2].result:
            raise AssertionError(f"q{n}: engines disagree")
        out[n] = tuple(improvement(runs[0].seconds, run.seconds) for run in runs[1:])
    return out


def columnar_q6(rows: dict) -> dict[str, int]:
    """Virtual instructions of q6 on the stock row store, the generic
    column store and the bee-specialized column store."""
    store = ColumnStore(lineitem_schema())
    store.load(rows["lineitem"])
    row_db = build_tpch_database(BeeSettings.stock(), rows=rows)
    row_run = row_db.measure(lambda: QUERIES[6](row_db))
    revenue = Arith("*", Col("l_extendedprice"), Col("l_discount"))
    out = {"row store, stock": row_run.instructions}
    for label, specialized in (("generic", False), ("bee-specialized", True)):
        result = ColumnarExecutor(store, specialized=specialized).sum_where(
            _q6_qual(), Q6_QUAL_COLS, revenue, Q6_SUM_COLS
        )
        if abs(result.value - row_run.result[0][0]) > 1e-6 * abs(result.value):
            raise AssertionError(f"column store ({label}) disagrees with the row store")
        out[f"column store, {label}"] = result.instructions
    return out


def routine_microbench() -> dict[str, tuple[float, float]]:
    """Real ``(generic, generated)`` ns/call of one deform, one fill and
    one predicate evaluation on a TPC-H ``orders`` tuple — no cost model."""
    layout = TupleLayout(orders_schema())
    values = [
        1, 370, "O", 172799.49, 9497, "5-LOW", "Clerk#000000951", 0,
        "final deposits sleep furiously after the blithely ironic foxes",
    ]
    raw = layout.encode(values)
    predicate = bind(_q6_qual(), Q6_QUAL_COLS)
    row = [9000, 0.06, 10.0]
    ledger = Ledger()
    return {
        "deform (GCL)": (
            ns_per_call(GenericDeformer(layout, ledger), raw, None),
            ns_per_call(generate_gcl(layout, ledger, "GCL_bench").fn, raw, None),
        ),
        "fill (SCL)": (
            ns_per_call(GenericFiller(layout, ledger), values, 0),
            ns_per_call(generate_scl(layout, ledger, "SCL_bench").fn, values, 0),
        ),
        "predicate (EVP)": (
            ns_per_call(predicate.evaluate, row),
            ns_per_call(generate_evp(predicate, ledger, "EVP_bench", True).fn, row),
        ),
    }
