"""The paper-figure reporter: ``python -m repro.bench [options]``.

With no flags it regenerates every number in EXPERIMENTS.md — the
Section II case study, Fig. 4-8, TPC-C, and (``--only extras``) the
ablations, future-work routines, column-store table and the real-clock
routine microbench — as paper-style tables on standard output.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import extra_experiments as extras
from repro.bench.reporting import bar_chart, improvement, table
from repro.bench.tpcc_experiments import run_tpcc_comparison
from repro.bench.tpch_experiments import (
    build_suite_pair,
    bulk_loading,
    case_study,
    compare_queries,
    run_ablation,
)
from repro.workloads.tpcc.loader import TPCCConfig
from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import generate_rows

EXPERIMENTS = (
    "case-study", "fig4", "fig5", "fig6", "fig7", "fig8", "tpcc", "extras",
)
PAPER_OMITTED = (17, 20)     # callgrind could not finish them (Fig. 6)


def _header(title: str) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)


def _print_suite(suite, title: str, paper_avg1: float, metric: str = "time") -> None:
    ordered = sorted(suite.comparisons)
    print(bar_chart(
        [f"q{n}" for n in ordered],
        [suite.metric_of(suite.comparisons[n], metric) for n in ordered],
        title,
    ))
    print(f"Avg1 = {suite.avg1(metric):.1f}%  (paper {paper_avg1}%)")
    print(f"Avg2 = {suite.avg2(metric):.1f}%")
    print(f"results identical stock vs bees: {suite.all_match()}")
    print()


def _print_extras(scale_factor: float) -> None:
    _header("Ablation: tuple-bee cardinality vs bulk-load gain")
    sweep = extras.cardinality_sweep()
    print(table(
        ["cardinality", "bulk-load improvement %"],
        [[c, round(gain, 1)] for c, gain in sweep.items()],
    ) + "\n")

    _header("Ablation: clone-and-patch vs recompile (real clock)")
    cost = extras.instantiation_cost()
    print(table(["query-bee instantiation", "us"], [
        ["clone EVJ template", round(cost["clone_evj_ns"] / 1e3, 1)],
        ["generate + compile EVP", round(cost["recompile_evp_ns"] / 1e3, 1)],
    ]) + "\n")

    _header("Ablation: bee placement (simulated 32KB L1-I)")
    print(table(["placement", "added conflict", "miss-rate delta"], [
        [name, round(r["added_conflict"], 2), f"{r['miss_rate_delta']:.5f}"]
        for name, r in extras.placement().items()
    ]) + "\n")

    rows = generate_rows(TPCHGenerator(scale_factor))
    _header("Future work: +AGG routine on aggregation-heavy queries")
    print(table(["query", "paper bees %", "+AGG %"], [
        [f"q{n}", round(paper, 1), round(future, 1)]
        for n, (paper, future) in extras.agg_future(rows).items()
    ]) + "\n")

    _header("Column store: q6 on row store vs column store")
    counts = extras.columnar_q6(rows)
    base = counts["row store, stock"]
    print(table(["engine", "virtual instructions", "vs row stock"], [
        [name, f"{n:,}", f"-{improvement(base, n):.0f}%" if n != base else "--"]
        for name, n in counts.items()
    ]))
    generic, specialized = list(counts.values())[1:]
    print(
        "micro-specialization on the columnar engine: "
        f"{improvement(generic, specialized):.1f}% additional reduction\n"
    )

    _header("Routine microbench: generic vs generated code (real clock)")
    print(table(["routine", "generic ns/call", "generated ns/call", "speed-up"], [
        [name, round(generic), round(generated), f"{generic / generated:.1f}x"]
        for name, (generic, generated) in extras.routine_microbench().items()
    ]) + "\n")


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the ICDE 2012 micro-specialization experiments",
    )
    parser.add_argument(
        "--sf", type=float, default=0.005,
        help="TPC-H scale factor (paper used 1.0; default 0.005)",
    )
    parser.add_argument(
        "--warehouses", type=int, default=2,
        help="TPC-C warehouses (paper used 10; default 2)",
    )
    parser.add_argument(
        "--transactions", type=int, default=300,
        help="TPC-C transactions per mix (default 300)",
    )
    parser.add_argument(
        "--only", choices=EXPERIMENTS, action="append",
        help="run only the named experiment(s); repeatable",
    )
    args = parser.parse_args(argv)
    selected = set(args.only) if args.only else set(EXPERIMENTS)
    started = time.time()

    if "case-study" in selected:
        _header("E1 / Section II case study: select o_comment from orders")
        report = case_study(scale_factor=args.sf)
        stock, bees = report["stock"], report["bees"]
        print(
            f"deform instr/tuple: generic {stock['deform_per_tuple']:.0f} "
            f"(paper ~340), GCL {bees['deform_per_tuple']:.0f} (paper ~146)"
        )
        print(
            f"total instr/tuple (stock): "
            f"{stock['instructions'] / report['rows']:.0f} (paper ~2298)"
        )
        print(
            f"whole-query reduction {report['instruction_improvement']:.1f}%"
            f" (paper 8.5%), run time {report['time_improvement']:.1f}%"
            " (paper 7.4%)"
        )
        print(
            f"real wall clock: stock {stock['wall_seconds'] * 1e3:.0f} ms, "
            f"bees {bees['wall_seconds'] * 1e3:.0f} ms\n"
        )

    needs_pair = selected & {"fig4", "fig5", "fig6"}
    if needs_pair:
        print(f"building TPC-H pair at SF={args.sf} ...")
        stock, bees = build_suite_pair(scale_factor=args.sf)
        warm = compare_queries(stock, bees, cold=False)
        if "fig4" in selected:
            _header("E2 / Fig. 4: run-time improvement (warm cache)")
            _print_suite(warm, "warm-cache % improvement", 12.4)
        if "fig5" in selected:
            _header("E3 / Fig. 5: run-time improvement (cold cache)")
            cold = compare_queries(stock, bees, cold=True)
            _print_suite(cold, "cold-cache % improvement", 12.9)
        if "fig6" in selected:
            _header("E4 / Fig. 6: instruction-count reduction")
            _print_suite(warm, "% fewer instructions executed", 14.7, "instructions")
            subset = [
                c.instruction_improvement
                for n, c in warm.comparisons.items() if n not in PAPER_OMITTED
            ]
            print(f"Avg1 without q17/q20, as in the paper = "
                  f"{sum(subset) / len(subset):.1f}%")
            gap = max(
                abs(c.time_improvement - c.instruction_improvement)
                for c in warm.comparisons.values()
            )
            print(f"largest |time - instruction| improvement gap: {gap:.1f} pp\n")

    if "fig7" in selected:
        _header("E5 / Fig. 7: ablation GCL -> +EVP -> +EVJ")
        ablation = run_ablation(scale_factor=args.sf)
        steps = list(ablation)
        rows = [
            [f"q{n}"] + [
                round(ablation[step].comparisons[n].time_improvement, 1)
                for step in steps
            ]
            for n in sorted(ablation[steps[0]].comparisons)
        ]
        rows.append(["Avg1"] + [round(ablation[s].avg1("time"), 1) for s in steps])
        rows.append(["Avg2"] + [round(ablation[s].avg2("time"), 1) for s in steps])
        print(table(["query"] + steps, rows))
        print("(paper Avg1: 7.6 -> 11.5 -> 12.4)\n")

    if "fig8" in selected:
        _header("E6/E8 / Fig. 8: bulk-loading improvement per relation")
        bulk = bulk_loading(scale_factor=args.sf)
        print(bar_chart(
            list(bulk),
            [bulk[name]["time_improvement"] for name in bulk],
            "% faster COPY, bee-enabled",
            vmax=12.0,
        ))
        fill = {k: bulk["orders"][k]["fill_instructions"] for k in ("stock", "bees")}
        print(
            f"E8 profile (orders): heap_fill_tuple {fill['stock']:,} instr vs "
            f"SCL {fill['bees']:,} ({fill['stock'] / max(1, fill['bees']):.2f}x; "
            "paper 4.6B/2.4B = 1.92x)\n"
        )

    if "tpcc" in selected:
        _header("E7: TPC-C throughput, three mixes")
        config = TPCCConfig(warehouses=args.warehouses)
        report = run_tpcc_comparison(config, n_transactions=args.transactions)
        rows = [
            [mix, round(c.stock.tpm_total), round(c.bees.tpm_total),
             f"{c.throughput_improvement:+.1f}%"]
            for mix, c in report.items()
        ]
        print(table(["mix", "stock tpm", "bees tpm", "improvement"], rows))
        print("(paper: default +7.3%, query-only +18%, balanced +11.1%)\n")

    if "extras" in selected:
        _print_extras(args.sf)

    print(f"all selected experiments finished in {time.time() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(run())
