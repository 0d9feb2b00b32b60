"""TPC-H experiment runners: Figs. 4-8 and the Section II case study.

Each experiment runs the same query set against a stock and a bee-enabled
database sharing one generated dataset, and reports per-query improvement
percentages plus the paper's two averages:

* **Avg1** — each query weighted equally (mean of percentages),
* **Avg2** — improvement of the summed totals (time-weighted).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bees.settings import BeeSettings
from repro.bench.reporting import improvement
from repro.cost.profiler import FunctionProfile
from repro.db import Database
from repro.engine.nodes import ColumnSelect, SeqScan
from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import (
    build_tpch_database,
    create_tables,
    generate_rows,
)
from repro.workloads.tpch.queries import QUERIES


@dataclass
class QueryComparison:
    """Stock-vs-bees measurement for one query."""

    query: int
    stock_seconds: float
    bees_seconds: float
    stock_instructions: int
    bees_instructions: int
    results_match: bool

    @property
    def time_improvement(self) -> float:
        return improvement(self.stock_seconds, self.bees_seconds)

    @property
    def instruction_improvement(self) -> float:
        return improvement(self.stock_instructions, self.bees_instructions)


@dataclass
class SuiteResult:
    """A full 22-query comparison plus the two paper averages."""

    comparisons: dict[int, QueryComparison] = field(default_factory=dict)

    def avg1(self, metric: str = "time") -> float:
        values = [self.metric_of(c, metric) for c in self.comparisons.values()]
        return sum(values) / len(values) if values else 0.0

    def avg2(self, metric: str = "time") -> float:
        if metric == "time":
            stock = sum(c.stock_seconds for c in self.comparisons.values())
            bees = sum(c.bees_seconds for c in self.comparisons.values())
        else:
            stock = sum(c.stock_instructions for c in self.comparisons.values())
            bees = sum(c.bees_instructions for c in self.comparisons.values())
        return improvement(stock, bees)

    def all_match(self) -> bool:
        return all(c.results_match for c in self.comparisons.values())

    @staticmethod
    def metric_of(comparison: QueryComparison, metric: str) -> float:
        if metric == "time":
            return comparison.time_improvement
        return comparison.instruction_improvement


def build_suite_pair(
    scale_factor: float = 0.005,
    seed: int = 20120401,
    bee_settings: BeeSettings | None = None,
) -> tuple[Database, Database]:
    """(stock, bee-enabled) databases over one shared TPC-H dataset."""
    rows = generate_rows(TPCHGenerator(scale_factor, seed))
    stock = build_tpch_database(BeeSettings.stock(), rows=rows)
    bees = build_tpch_database(
        bee_settings or BeeSettings.all_bees(), rows=rows
    )
    return stock, bees


def _run_query(db: Database, query_number: int, cold: bool):
    if cold:
        db.cold_cache()
    else:
        db.warm_cache()
    return db.measure(lambda: QUERIES[query_number](db))


def compare_queries(
    stock: Database,
    bees: Database,
    queries: list[int] | None = None,
    cold: bool = False,
) -> SuiteResult:
    """Run *queries* on both systems; warm (Fig. 4) or cold (Fig. 5) cache."""
    result = SuiteResult()
    for query_number in queries or sorted(QUERIES):
        stock_run = _run_query(stock, query_number, cold)
        bees_run = _run_query(bees, query_number, cold)
        result.comparisons[query_number] = QueryComparison(
            query=query_number,
            stock_seconds=stock_run.seconds,
            bees_seconds=bees_run.seconds,
            stock_instructions=stock_run.instructions,
            bees_instructions=bees_run.instructions,
            results_match=stock_run.result == bees_run.result,
        )
    return result


def run_ablation(
    scale_factor: float = 0.005,
    queries: list[int] | None = None,
    seed: int = 20120401,
) -> dict[str, SuiteResult]:
    """Fig. 7: run-time improvement with GCL, GCL+EVP, GCL+EVP+EVJ."""
    rows = generate_rows(TPCHGenerator(scale_factor, seed))
    stock = build_tpch_database(BeeSettings.stock(), rows=rows)
    steps = {
        "GCL": BeeSettings(gcl=True, scl=True),
        "GCL+EVP": BeeSettings(gcl=True, scl=True, evp=True),
        "GCL+EVP+EVJ": BeeSettings(gcl=True, scl=True, evp=True, evj=True),
    }
    out: dict[str, SuiteResult] = {}
    for label, settings in steps.items():
        bees = build_tpch_database(settings, rows=rows)
        out[label] = compare_queries(stock, bees, queries=queries)
    return out


def case_study(
    scale_factor: float = 0.005, seed: int = 20120401
) -> dict:
    """Section II: ``select o_comment from orders`` under GCL alone."""
    rows = generate_rows(TPCHGenerator(scale_factor, seed))
    stock = build_tpch_database(BeeSettings.stock(), rows=rows)
    bees = build_tpch_database(
        BeeSettings(gcl=True, scl=True), rows=rows
    )
    n_rows = len(rows["orders"])

    def query(db: Database):
        node = SeqScan("orders")
        node.bind_schema(db.relation("orders").schema)
        return db.execute(ColumnSelect(node, ["o_comment"]))

    out: dict = {"rows": n_rows}
    for label, db in (("stock", stock), ("bees", bees)):
        db.warm_cache()
        with FunctionProfile(db.ledger) as profile:
            run = db.measure(lambda: query(db))
        deform_fn = (
            "slot_deform_tuple" if label == "stock" else "GCL_orders"
        )
        started = time.perf_counter()
        query(db)
        out[label] = {
            "instructions": run.instructions,
            "seconds": run.seconds,
            "wall_seconds": time.perf_counter() - started,   # unprofiled
            "deform_per_tuple": profile.instructions_for(deform_fn) / n_rows,
        }
    out["instruction_improvement"] = improvement(
        out["stock"]["instructions"], out["bees"]["instructions"]
    )
    out["time_improvement"] = improvement(
        out["stock"]["seconds"], out["bees"]["seconds"]
    )
    return out


BULK_RELATIONS = ["region", "nation", "part", "customer", "orders", "lineitem"]


def bulk_loading(
    scale_factor: float = 0.005,
    seed: int = 20120401,
    small_relation_rows: int = 20_000,
) -> dict[str, dict]:
    """Fig. 8: COPY each relation into fresh stock and bee-enabled DBs.

    Like the paper, ``region`` and ``nation`` are loaded from inflated
    files (the paper used 1M rows because two pages are unmeasurable); we
    scale that to *small_relation_rows* cycles of the base rows with
    unique keys.
    """
    rows = generate_rows(TPCHGenerator(scale_factor, seed))
    # Inflate the two tiny relations, keeping their annotated columns'
    # cardinality (names cycle; keys stay unique).
    for name in ("region", "nation"):
        base = rows[name]
        inflated = []
        for i in range(small_relation_rows):
            row = list(base[i % len(base)])
            row[0] = i
            inflated.append(row)
        rows[name] = inflated

    out: dict[str, dict] = {}
    for name in BULK_RELATIONS:
        entry: dict = {"rows": len(rows[name])}
        for label, settings in (
            ("stock", BeeSettings.stock()),
            ("bees", BeeSettings.all_bees()),
        ):
            db = Database(settings)
            create_tables(db)
            with FunctionProfile(db.ledger) as profile:
                run = db.measure(lambda: db.copy_from(name, rows[name]))
            fill_fn = (
                "heap_fill_tuple" if label == "stock" else f"SCL_{name}"
            )
            entry[label] = {
                "instructions": run.instructions,
                "seconds": run.seconds,
                "fill_instructions": profile.instructions_for(fill_fn),
            }
        entry["time_improvement"] = improvement(
            entry["stock"]["seconds"], entry["bees"]["seconds"]
        )
        out[name] = entry
    return out
