"""``sql_short``: a seeded mix of short statements through ``db.sql()``
in-process, one caller, closed loop, ``vectorized()`` settings.

Parse, plan, fuse, codegen and the bee memo dominate; kernels do little.
The 30 % writes bump heap versions, so the chunk cache re-decodes.

Also the home of what ``server_mixed`` shares with it: the small-table
database, the statement bookkeeping and the stock replica check.
"""

from __future__ import annotations

import random
import time

from repro.bees.settings import BeeSettings
from repro.bees.vector import fuse_vector_plan
from repro.db import Database
from repro.oracle.normalize import rows_equivalent
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.planner import plan_select
from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import create_tables

import layers
import stmtgen
from harness import (
    Calibrator,
    Deadline,
    RunResult,
    SpanRecorder,
    median,
    now,
    peak_rss_mb,
    percentile,
    self_times,
    span_durations,
    tail_percentile,
    weighted_overhead_pct,
)

SF = 0.005
QUICK_SF = 0.002
TABLES = ("region", "nation", "supplier", "customer", "part")
SETUPS = 3
WARMUP = 200             # statements run (and verified) before the clock starts
READ_SAMPLE = 0.05       # share of reads the stock replica re-runs
TRACE_BLOCK = 100        # statements per traced / untraced block
CALIBRATE_EVERY = 32     # statements between speed readings
MODEL_OPS = 2000         # model_ms_per_op and peak_rss_mb cover this fixed prefix of the stream
# column of the incremented value, per relation a write touches
VALUE_COLUMN = {"supplier": 5, "customer": 5}


def small_tables(sf: float, seed: int) -> dict[str, list]:
    """Rows of the five small TPC-H relations (the big three stay empty)."""
    gen = TPCHGenerator(sf, seed)
    return {name: list(getattr(gen, name)()) for name in TABLES}


def build(settings: BeeSettings, rows: dict[str, list]) -> Database:
    db = Database(settings)
    create_tables(db)
    for name in TABLES:
        db.copy_from(name, rows[name])
    db.ledger.reset()
    return db


def sizes_of(rows: dict[str, list]) -> dict[str, int]:
    return {name: len(table) for name, table in rows.items()}


class Executed:
    """What ran, kept for the untimed checks: every write's status and
    the rows of a seeded sample of reads."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed ^ 0x5EED)
        self.log: list[tuple[stmtgen.Statement, object]] = []

    def record(self, stmt: stmtgen.Statement, status: str, rows) -> None:
        if stmt.is_write:
            self.log.append((stmt, status))
        elif self._rng.random() < READ_SAMPLE:
            self.log.append((stmt, rows))

    def increments(self) -> dict[tuple, int]:
        counts: dict[tuple, int] = {}
        for stmt, _outcome in self.log:
            if stmt.is_write:
                counts[stmt.key] = counts.get(stmt.key, 0) + 1
        return counts


def check_against_replica(result: RunResult, executed: Executed, rows) -> None:
    """Replay every write and the sampled reads, in order, on a fresh
    stock-settings database; a differing status or row set is a failed
    operation."""
    replica = build(BeeSettings.stock(), rows)
    for stmt, outcome in executed.log:
        reference = replica.sql(stmt.sql)
        if stmt.is_write:
            ok = reference.status == outcome
        else:
            ok = rows_equivalent(
                [tuple(r) for r in reference.rows], [tuple(r) for r in outcome]
            )
        if not ok:
            result.fail(f"differs from the stock replica: {stmt.sql}")
    replica.close()


def check_final_state(result: RunResult, read_all, rows, increments) -> None:
    """Increments commute: every key must read initial + acknowledged
    increments; every inserted key must exist exactly once.
    *read_all* maps a relation name to its current rows."""
    for relation, column in VALUE_COLUMN.items():
        initial = {row[0]: row[column] for row in rows[relation]}
        final = {row[0]: row[column] for row in read_all(relation)}
        for key, value in initial.items():
            expected = value + increments.get((relation, key), 0)
            if abs(final.get(key, float("nan")) - expected) > 1e-6:
                result.check(False, f"{relation} key {key}: {final.get(key)} != {expected}")
    inserted = [k for (rel, k) in increments if rel == "region"]
    present = [row[0] for row in read_all("region") if row[0] >= stmtgen.INSERT_KEY_BASE]
    result.check(sorted(inserted) == sorted(present),
                 f"inserted region keys {len(present)} != acknowledged {len(inserted)}")


def latency_metrics(by_class: dict[str, list[float]]) -> dict[str, float]:
    """stmt.<class>.p50/p99 and the pooled read / write p50/p95 (ms)."""
    out: dict[str, float] = {}
    for cls, samples in by_class.items():
        if samples:
            out[f"stmt.{cls}.p50_ms"] = median(samples) * 1e3
            out[f"stmt.{cls}.p99_ms"] = percentile(samples, 99) * 1e3
    for side, classes in (("read", stmtgen.READ_CLASSES), ("write", stmtgen.WRITE_CLASSES)):
        pooled = [s for c in classes for s in by_class.get(c, ())]
        if pooled:
            out[f"stmt.{side}.p50_ms"] = median(pooled) * 1e3
            out[f"stmt.{side}.p95_ms"] = percentile(pooled, 95) * 1e3
    return out


def traced_statement(db, stmt, op: int, recorder: SpanRecorder):
    """Drive one statement layer by layer instead of through db.sql."""
    with recorder.span("op", op):
        if stmt.is_write:
            with recorder.span("engine.dml", op):
                outcome = db.sql(stmt.sql)
            return outcome.status, None
        with recorder.span("sql.parse", op):
            tree = parse(stmt.sql)
        assert isinstance(tree, ast.SelectStmt)
        with recorder.span("sql.plan", op):
            plan = plan_select(db, tree)
        with recorder.span("bees.fuse", op):
            fuse_vector_plan(plan, db)
        with recorder.span("engine.execute", op):
            rows = db.execute(plan)
    return f"SELECT {len(rows)}", rows


def run(name: str, opts) -> RunResult:
    started = time.time()
    result = RunResult(name)
    sf = QUICK_SF if opts.quick else SF
    settings = BeeSettings.vectorized()
    setup_cal, cal = Calibrator(), Calibrator()
    setup_cal.read(3)
    t0 = now()
    rows = small_tables(sf, opts.seed)
    gen_s = now() - t0
    build_s = []
    for _ in range(1 if opts.quick else SETUPS):
        setup_cal.read(3)
        t0 = now()
        db = build(settings, rows)
        build_s.append(now() - t0)
    stream = stmtgen.stream(opts.seed, sizes_of(rows))
    executed = Executed(opts.seed)
    t0 = now()
    for _ in range(WARMUP):
        stmt = next(stream)
        outcome = db.sql(stmt.sql)
        executed.record(stmt, outcome.status, outcome.rows)
    setup_s = gen_s + median(build_s) + (now() - t0)
    setup_cal.read(3)

    plain: dict[str, list[float]] = {c: [] for c in stmtgen.MIX}
    traced: dict[str, list[float]] = {c: [] for c in stmtgen.MIX}
    recorder = SpanRecorder() if opts.trace else None
    generated0, chunk0, ledger0 = layers.routines(db), db.chunk_cache.statistics(), db.snapshot()
    emitted = 0
    done = 0
    model = rss = None
    window = Deadline(opts.seconds)
    while window.left() > 0:
        if done == MODEL_OPS:
            model, rss = db.ledger.delta_since(ledger0), peak_rss_mb()
        if done % CALIBRATE_EVERY == 0:
            cal.read()
        use_trace = recorder is not None and (done // TRACE_BLOCK) % 2 == 1
        stmt = next(stream)
        done += 1
        t0 = now()
        try:
            if use_trace:
                status, out_rows = traced_statement(db, stmt, done, recorder)
            else:
                outcome = db.sql(stmt.sql)
                status, out_rows = outcome.status, outcome.rows
        except Exception as exc:
            result.fail(f"{type(exc).__name__}: {exc} in {stmt.sql}")
            continue
        (traced if use_trace else plain)[stmt.cls].append(now() - t0)
        executed.record(stmt, status, out_rows)
        emitted += len(out_rows or ())
    elapsed = window.elapsed() - cal.spent
    delta = db.ledger.delta_since(ledger0)
    result.attempted += WARMUP + done

    samples = [s * 1e3 for ss in plain.values() for s in ss]
    if not opts.trace:
        p, tail, n = tail_percentile(samples, 95)
        result.end_to_end({
            "setup_s": setup_s,
            "ops_per_s": done / elapsed,
            "op_p50_ms": median(samples),
            "op_tail_ms": tail,
            "model_ms_per_op": db.time_model.seconds(model or delta) * 1e3
            / (MODEL_OPS if model else done),
            "peak_rss_mb": rss or peak_rss_mb(),
        }, cal, setup_cal)
        result.notes.update({"tail_percentile": p, "samples": n, "statements": done,
                             "model_repeats_exactly": model is not None})
        result.notes.update(
            {k: round(v, 4) for k, v in latency_metrics(plain).items() if ".p99" not in k}
        )
    else:
        per_layer(result, db, rows, plain, traced, recorder, delta, done,
               layers.routines(db) - generated0, chunk0, emitted, elapsed)
        result.notes["spans"] = recorder

    check_final_state(result, db.read_all, rows, executed.increments())
    check_against_replica(result, executed, rows)
    result.notes["replica_checked"] = len(executed.log)
    db.close()
    result.notes["sf"] = sf
    result.notes["run_wall_s"] = time.time() - started
    return result


def per_layer(result, db, rows, plain, traced, recorder, delta, done, generated,
           chunk0, emitted, elapsed) -> None:
    m = result.metrics
    spans = recorder.spans
    both = {c: plain[c] + traced[c] for c in plain}
    m.update(latency_metrics(both))
    m["trace.overhead_pct"] = weighted_overhead_pct(plain, traced)
    parse_s, plan_s = span_durations(spans, "sql.parse"), span_durations(spans, "sql.plan")
    fuse_s = span_durations(spans, "bees.fuse")
    selfs = self_times(spans)
    m["sql.parse_us"] = median(parse_s) * 1e6
    m["sql.plan_us"] = median(plan_s) * 1e6
    read_wall = sum(s for c in stmtgen.READ_CLASSES for s in traced[c])
    m["sql.frontend_share"] = (sum(parse_s) + sum(plan_s)) / read_wall
    m["bees.fuse_ms"] = sum(fuse_s) * 1e3 / len(fuse_s)
    m["bees.routines_generated_per_stmt"] = generated / done
    layers.bee_layers(m, db)
    m["engine.execute_s"] = selfs.get("engine.execute", 0.0)
    m["engine.rows_emitted"] = emitted
    if both["upd_customer"]:
        m["engine.dml_us_per_row_scanned"] = (
            median(both["upd_customer"]) * 1e6 / len(rows["customer"])
        )
    layers.chunk_layers(m, db, chunk0, TABLES)
    layers.ledger_layers(m, delta, elapsed)
    m["storage.heap_pages"] = sum(db.relation(r).heap.page_count for r in TABLES)
    layers.resilience_layers(result, db)
