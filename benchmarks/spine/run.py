"""The repo's benchmark: eight named workloads on two clocks.

    python3 benchmarks/spine/run.py --workload NAME [--seed N] [--seconds S]
                                    [--trace 0|1] [--aa] [--quick] [--out PATH]

One ``--workload`` prints, as the last line of standard output, the
driver's result object (``correct``/``attempted``/``failed``/``metrics``):
every end-to-end metric from an untraced run, or with ``--trace 1`` every
per-layer metric from a traced run.  Several (or no) ``--workload`` flags
run each in turn and end with a summary whose last key is ``"claim": null``
- this benchmark claims no gain.  A wrong result exits non-zero.

See README.md beside this file for the workloads, metrics and caveats.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SPINE_DIR))
sys.path.insert(0, str(SPINE_DIR.parent.parent / "src"))

import harness  # noqa: E402
import metrics  # noqa: E402


CONCURRENT = ("tpch_parallel", "server_mixed")   # the modeled clock may vary here


@dataclass
class Options:
    seed: int
    seconds: float
    trace: bool
    quick: bool


def run_workload(name: str, opts: Options) -> harness.RunResult:
    if name.startswith("tpch_"):
        import wl_tpch as module
    elif name == "sql_short":
        import wl_sql as module
    elif name == "tpcc_mix":
        import wl_tpcc as module
    else:
        import wl_server as module
    return module.run(name, opts)


def result_object(result: harness.RunResult, trace: bool) -> dict:
    """The driver's contract: exactly these four keys, and exactly the
    end-to-end (untraced) or per-layer (traced) metric names.  A layer a
    workload bypasses reads 0."""
    names = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    unknown = set(result.metrics) - set(names)
    if unknown:
        raise KeyError(f"{result.workload} reported unregistered metrics: {sorted(unknown)}")
    if not trace:
        missing = [n for n in names if n not in result.metrics]
        if missing:
            raise KeyError(f"{result.workload} did not report {missing}")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            n: {"value": float(result.metrics.get(n, 0.0)), "unit": metrics.UNITS[n]}
            for n in names
        },
    }


def print_report(result: harness.RunResult, trace: bool, stamp: dict) -> None:
    kind = "traced, per-layer" if trace else "untraced, end-to-end"
    print(f"== {result.workload} ({kind}) seed={stamp['seed']} "
          f"seconds={stamp['seconds']} commit={stamp['commit']} nproc={stamp['nproc']} "
          f"python={stamp['python']} numpy={stamp['numpy']} load1={stamp['loadavg_1m']:.2f}")
    names = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    for name in names:
        if name not in result.metrics:
            continue   # a bypassed layer: reads 0 in the result object
        layer = f"  [{metrics.LAYER[name]}]" if trace else ""
        print(f"  {name:42s} {result.metrics[name]:>16.6g} {metrics.UNITS[name]}{layer}")
    for key, value in result.notes.items():
        if key != "spans":
            print(f"  note {key} = {value}")
    share = result.failed / result.attempted if result.attempted else 1.0
    print(f"  attempted={result.attempted} failed={result.failed} failed_ops_share={share:.6f}")
    for message in result.failures:
        print(f"  FAILED: {message}")


def write_trace(result: harness.RunResult, seed: int) -> None:
    recorder = result.notes.get("spans")
    if recorder is None:
        return
    path = harness.RESULTS_DIR / f"trace_{result.workload}_seed{seed}.jsonl"
    recorder.write_jsonl(path)
    result.notes["trace_file"] = str(path.relative_to(harness.REPO_ROOT))
    result.notes["span_self_time_s"] = {
        name: round(value, 6)
        for name, value in sorted(harness.self_times(recorder.spans).items())
    }


def run_one(name: str, opts: Options, stamp: dict) -> tuple[dict, dict]:
    """Run *name* in this process: ``(result object, notes)``."""
    result = run_workload(name, opts)
    if opts.trace:
        write_trace(result, opts.seed)
    print_report(result, opts.trace, stamp)
    notes = {k: v for k, v in result.notes.items() if k != "spans"}
    return result_object(result, opts.trace), notes


def run_isolated(name: str, opts: Options) -> tuple[dict, dict]:
    """Run *name* in a process of its own, as the driver does: peak RSS,
    the collector's state and the bee memos of one workload must not
    leak into the next."""
    with harness.scratch_dir() as tmp:
        out = tmp / "report.json"
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(opts.seed), "--seconds", str(opts.seconds),
                   "--trace", str(int(opts.trace)), "--out", str(out)]
        if opts.quick:
            command.append("--quick")
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            for line in child.stdout:
                if not line.startswith('{"correct"'):
                    print(line, end="")
        if not out.exists():
            raise RuntimeError(f"{name} exited with code {child.returncode} and no report")
        report = json.loads(out.read_text())
    return report["workloads"][name], report["notes"][name]


def aa(names: list[str], opts: Options) -> bool:
    """Run every workload twice on the same code and hold each
    end-to-end pair to the metric's bound."""
    ok = True
    bounds = {m[0]: (m[2], m[3]) for m in metrics.END_TO_END}
    for name in names:
        (a, _), (b, _) = run_isolated(name, opts), run_isolated(name, opts)
        ok = ok and a["correct"] and b["correct"]
        for metric, (better, bound) in bounds.items():
            x, y = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            worse = (y - x) / x if better == "lower" else (x - y) / x
            verdict = "pass" if abs(worse) <= bound else "FAIL"
            ok = ok and verdict == "pass"
            print(f"  aa {name:18s} {metric:16s} {x:14.6g} {y:14.6g} "
                  f"diff {worse * 100:+6.2f}% bound {bound * 100:.0f}% {verdict}")
        if name not in CONCURRENT:
            # One caller, one process: the modeled clock must repeat exactly.
            same = (a["metrics"]["model_ms_per_op"]["value"]
                    == b["metrics"]["model_ms_per_op"]["value"])
            ok = ok and same
            print(f"  aa {name:18s} model_ms_per_op bit-identical: {'yes' if same else 'NO'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(metrics.WORKLOADS),
                        help="workload to run (repeatable; default: all eight)")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED,
                        help="seeds data generation and statement streams")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--aa", action="store_true",
                        help="run each workload twice and hold every end-to-end pair to its bound")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: SF 0.002, 1-second windows, verification still on")
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite expected/ for the default seed from the stock engine")
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"the engine (src/repro) is not importable from this checkout: {exc}",
              file=sys.stderr)
        return 2

    if args.regen_expected:
        import regen
        regen.main()
        return 0

    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(
            json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        )
    opts = Options(args.seed, seconds, bool(args.trace), args.quick)
    names = args.workload or list(metrics.WORKLOADS)
    stamp = harness.stamp(args.seed, seconds)
    started = time.time()

    if args.aa:
        ok = aa(names, opts)
        print(json.dumps({"aa_passed": ok, "claim": None}))
        return 0 if ok else 1

    objects = {}
    notes = {}
    for name in names:
        if len(names) == 1:
            objects[name], notes[name] = run_one(name, opts, stamp)
        else:
            objects[name], notes[name] = run_isolated(name, opts)
    correct = all(o["correct"] for o in objects.values())
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "stamp": stamp, "trace": bool(args.trace), "quick": args.quick,
            "wall_s": time.time() - started, "workloads": objects, "notes": notes,
            "claim": None,
        }, indent=1, default=str) + "\n")
    if len(names) == 1:
        print(json.dumps(objects[names[0]]))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(o["attempted"] for o in objects.values()),
            "failed": sum(o["failed"] for o in objects.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, o in objects.items() for metric, value in o["metrics"].items()
            },
            "claim": None,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
