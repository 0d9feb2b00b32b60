"""The five TPC-H workloads: three warm tiers, cold, and morsel-parallel.

Plans are the hand-built ``repro.workloads.tpch.queries.QUERIES``; no
SQL front end runs here.  Every layer is timed from outside: calls into
``db.execute`` / ``fuse_plan`` / ``decode_relation`` and reads of the
public counters.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro.bees.pipeline import fuse_plan
from repro.bees.settings import BeeSettings
from repro.bees.vector import fuse_vector_plan
from repro.cost.profiler import FunctionProfile
from repro.db import Database
from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import LOAD_ORDER, create_tables, generate_rows
from repro.workloads.tpch.queries import QUERIES, scan

import layers
import verify
from harness import (
    Calibrator,
    Deadline,
    RunResult,
    SpanRecorder,
    geomean,
    median,
    now,
    peak_rss_mb,
    percentile,
    self_times,
    span_durations,
    spearman,
    tail_percentile,
)

SF = 0.005
PARALLEL_SF = 0.01
QUICK_SF = 0.002
PARALLEL_QUERIES = (1, 3, 6, 12, 14)
SETUPS = 3            # engine set-ups per run; setup_s uses their median
TAIL_CAP = 75         # 22 queries x >= 2 passes always supports p75
VERIFY_BUDGET_S = 1.5  # live stock reference: sampled under this cap

TIERS = {
    "tpch_bees_warm": (BeeSettings.all_bees, None),
    "tpch_pipe_warm": (BeeSettings.pipelined, fuse_plan),
    "tpch_vector_warm": (BeeSettings.vectorized, fuse_vector_plan),
    "tpch_cold": (BeeSettings.vectorized, fuse_vector_plan),
    "tpch_parallel": (BeeSettings.vectorized, fuse_vector_plan),
}


@dataclass
class Build:
    db: Database
    create_s: float
    copy_s: dict[str, float]
    total_s: float


def build(settings: BeeSettings, rows: dict[str, list], workers: int = 2) -> Build:
    """``build_tpch_database`` with each step timed."""
    started = now()
    db = Database(settings, parallel_workers=workers)
    create_tables(db)
    create_s = now() - started
    copy_s = {}
    for name in LOAD_ORDER:
        t0 = now()
        db.copy_from(name, rows[name])
        copy_s[name] = now() - t0
    db.ledger.reset()
    return Build(db, create_s, copy_s, now() - started)


@dataclass
class Setup:
    """Inputs and the database a TPC-H workload runs on."""

    sf: float
    rows: dict[str, list]
    gen_s: float
    cal: Calibrator          # the machine's speed during set-up
    builds: list[Build] = field(default_factory=list)

    @property
    def db(self) -> Database:
        return self.builds[-1].db

    @property
    def n_rows(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def build_s(self) -> float:
        return median(b.total_s for b in self.builds)


def set_up(settings: BeeSettings, sf: float, seed: int, setups: int) -> Setup:
    cal = Calibrator()
    cal.read(3)
    t0 = now()
    rows = generate_rows(TPCHGenerator(sf, seed))
    setup = Setup(sf, rows, now() - t0, cal)
    # The generated rows stay referenced for verification.  Freeze them,
    # or every full collection the engine triggers would walk the
    # harness's half-million objects too and the walls would measure that.
    gc.collect()
    gc.freeze()
    for i in range(setups):
        cal.read(3)
        setup.builds.append(build(settings, rows))
        if i < setups - 1:
            setup.builds[-1].db.close()
    cal.read(3)
    return setup


def run_pass(db, numbers, settings=None, cal: Calibrator | None = None):
    """One pass: ``{n: (wall_s, MeasuredRun)}``.  *settings* switches
    the tier for the pass (the parallel tier on a vector database);
    *cal* takes a speed reading before every query."""
    out = {}
    for n in numbers:
        if cal is not None:
            cal.read()
        t0 = now()
        if settings is None:
            run = db.measure(lambda n=n: QUERIES[n](db))
        else:
            with db.use_settings(settings):
                run = db.measure(lambda n=n: QUERIES[n](db))
        out[n] = (now() - t0, run)
    return out


def verify_pass(result: RunResult, reference, pass_result, first) -> None:
    """Count every timed query; compare with the stock reference where
    one exists, else with the first pass of this run."""
    for n, (_wall, run) in pass_result.items():
        result.attempted += 1
        verdict = reference.check(n, run.result)
        if verdict is None:
            verdict = verify.rows_equivalent(
                [tuple(r) for r in run.result],
                [tuple(r) for r in first[n][1].result],
            )
        if not verdict:
            result.fail(f"q{n}: result differs from {reference.source}")


def end_to_end(result: RunResult, walls: dict[int, list[float]], model_s: float,
               setup_s: float, cal: Calibrator, setup: Setup, rss_mb: float) -> None:
    """Each query counts once, at its median over the timed passes: the
    percentiles are taken over those per-query medians (steadier than
    pooling the raw samples, whose p75 falls between two queries'
    clusters); the raw sample count decides which tail is supported."""
    per_query = {n: median(ws) * 1e3 for n, ws in walls.items()}
    p, _value, n = tail_percentile([w for ws in walls.values() for w in ws], TAIL_CAP)
    query_wall = sum(per_query.values()) / 1e3
    result.end_to_end({
        "setup_s": setup_s,
        "ops_per_s": len(walls) / query_wall,
        "op_p50_ms": median(per_query.values()),
        "op_tail_ms": percentile(list(per_query.values()), p),
        "model_ms_per_op": model_s * 1e3 / len(walls),
        "peak_rss_mb": rss_mb,
    }, cal, setup.cal)
    result.notes.update({
        "query_wall_s": query_wall, "tail_percentile": p, "samples": n,
        "passes": len(next(iter(walls.values()))),
    })


def timed_passes(one_pass, minimum: int, seconds: float):
    """Call *one_pass* until the window is full (at least *minimum*
    times): ``(passes, {n: [wall_s per pass]}, peak RSS)``.  The RSS is
    read after the *minimum* passes - a fixed amount of work - so a
    faster engine, which fits more passes into the window, does not
    read as a bigger one."""
    passes: list[dict] = []
    walls: dict[int, list[float]] = {}
    window = Deadline(seconds)
    cost = rss = 0.0
    while len(passes) < minimum or window.room_for(cost):
        t0 = now()
        passes.append(one_pass())
        cost = now() - t0
        for n, (wall, _run) in passes[-1].items():
            walls.setdefault(n, []).append(wall)
        if len(passes) == minimum:
            rss = peak_rss_mb()
    return passes, walls, rss


def pass_model_s(pass_result) -> float:
    return sum(run.seconds for _w, run in pass_result.values())


def sizes(opts, name: str) -> tuple[float, int]:
    """(scale factor, engine set-ups) for this run."""
    if opts.quick:
        return QUICK_SF, 1
    return (PARALLEL_SF if name == "tpch_parallel" else SF), SETUPS


# -- untraced runs -------------------------------------------------------------


def run_warm(name: str, opts) -> RunResult:
    result = RunResult(name)
    settings = TIERS[name][0]()
    sf, setups = sizes(opts, name)
    numbers = sorted(QUERIES)
    setup = set_up(settings, sf, opts.seed, setups)
    with setup.db as db:
        t0 = now()
        db.warm_cache()
        if opts.trace:
            # The warm-up doubles as the profiled pass (attribution slows it).
            with FunctionProfile(db.ledger) as profile:
                first = run_pass(db, numbers)
            return trace_warm(result, name, opts, setup, first, profile)
        first = run_pass(db, numbers)
        setup_s = setup.gen_s + setup.build_s() + (now() - t0)
        setup.cal.read(3)

        cal = Calibrator()
        timed, walls, rss = timed_passes(
            lambda: run_pass(db, numbers, cal=cal), 2, opts.seconds)
        passes = [first] + timed   # the warm-up is verified too
        models = {pass_model_s(p) for p in passes[1:]}
        result.notes["model_repeats_exactly"] = len(models) == 1
        end_to_end(result, walls, pass_model_s(passes[1]), setup_s, cal, setup, rss)
        check_results(result, "tpch", setup, opts, numbers, passes)
    return result


def check_results(result, kind, setup, opts, numbers, passes) -> verify.TpchReference:
    reference = verify.tpch_reference(
        kind, setup.sf, opts.seed, setup.rows, numbers, VERIFY_BUDGET_S
    )
    result.notes["reference"] = reference.source
    result.notes["queries_with_stock_reference"] = len(reference.queries)
    for done in passes:
        verify_pass(result, reference, done, passes[0])
    return reference


def run_cold(name: str, opts) -> RunResult:
    result = RunResult(name)
    settings = TIERS[name][0]()
    sf, _setups = sizes(opts, name)
    numbers = sorted(QUERIES)
    setup = set_up(settings, sf, opts.seed, 0)
    if opts.trace:
        return trace_cold(result, name, opts, setup)
    cal = Calibrator()

    def rep():
        setup.cal.read(3)
        setup.builds.append(build(settings, setup.rows))
        with setup.db as db:
            db.cold_cache()
            done = run_pass(db, numbers, cal=cal)
        gc.collect()   # drop the closed database now, so peak RSS does not depend on luck
        return done

    passes, walls, rss = timed_passes(rep, 2, opts.seconds)
    models = {pass_model_s(p) for p in passes}
    result.notes["model_repeats_exactly"] = len(models) == 1
    result.notes["load_rows_per_s"] = setup.n_rows / setup.build_s()
    end_to_end(result, walls, pass_model_s(passes[0]),
               setup.gen_s + setup.build_s(), cal, setup, rss)
    check_results(result, "tpch", setup, opts, numbers, passes)
    return result


def run_parallel(name: str, opts) -> RunResult:
    result = RunResult(name)
    settings = TIERS[name][0]()
    parallel = BeeSettings.parallelized()
    sf, setups = sizes(opts, name)
    numbers = list(PARALLEL_QUERIES)
    setup = set_up(settings, sf, opts.seed, setups)
    with setup.db as db:
        t0 = now()
        db.parallel_coordinator()
        spawn_s = now() - t0
        db.warm_cache()
        first = run_pass(db, numbers, parallel)
        setup_s = setup.gen_s + setup.build_s() + (now() - t0)
        setup.cal.read(3)
        if opts.trace:
            return trace_parallel(result, name, opts, setup, spawn_s, first)

        cal = Calibrator()
        # >= 8 timed passes x 5 queries keeps p75 supported (40 samples).
        timed, walls, _rss = timed_passes(
            lambda: run_pass(db, numbers, parallel, cal), 8, opts.seconds)
        passes = [first] + timed
        model_s = median(pass_model_s(p) for p in passes[1:])
        stats = db.stats()
    # Workers are reaped by close(); their peak RSS is readable only now.
    end_to_end(result, walls, model_s, setup_s, cal, setup, peak_rss_mb(children=True))
    result.check(stats["parallel"]["worker_crashes"] == 0, "a parallel worker crashed")
    result.check(stats["parallel"]["degradations"] == 0, "the parallel tier degraded")
    check_results(result, "tpch_parallel", setup, opts, numbers, passes)
    return result


# -- traced runs ---------------------------------------------------------------


class TracedDb:
    """Stands in for ``db`` in ``QUERIES[n](db)``: every ``execute`` is
    recorded as a ``bees.fuse`` span (the tier's fuser run on the fresh
    plan; the engine's own fusion of the same plan object then hits the
    memo) followed by an ``engine.execute`` span."""

    def __init__(self, db, recorder: SpanRecorder, fuser) -> None:
        self._db = db
        self._recorder = recorder
        self._fuser = fuser
        self.op = 0
        self.rows_emitted = 0

    def __getattr__(self, name):
        return getattr(self._db, name)

    def execute(self, plan, **kwargs):
        if self._fuser is not None:
            with self._recorder.span("bees.fuse", self.op):
                self._fuser(plan, self._db)
        with self._recorder.span("engine.execute", self.op):
            rows = self._db.execute(plan, **kwargs)
        if kwargs.get("emit", True):
            self.rows_emitted += len(rows)
        return rows


def traced_pass(db, numbers, recorder, fuser, settings=None, op_base=0):
    traced = TracedDb(db, recorder, fuser)
    out = {}
    for i, n in enumerate(numbers):
        traced.op = op_base + i
        t0 = now()
        with recorder.span("op", traced.op):
            if settings is None:
                run = db.measure(lambda n=n: QUERIES[n](traced))
            else:
                with db.use_settings(settings):
                    run = db.measure(lambda n=n: QUERIES[n](traced))
        out[n] = (now() - t0, run)
    return out, traced.rows_emitted


def seqscan_ns_per_tuple(db, settings=None) -> float:
    n_rows = len(db.execute(scan(db, "lineitem"), emit=False, settings=settings))
    t0 = now()
    db.execute(scan(db, "lineitem"), emit=False, settings=settings)
    return (now() - t0) * 1e9 / n_rows


def user_bytes(rows: dict[str, list]) -> int:
    """Bytes of user data: 4 per int/date, 8 per float, length of text."""
    total = 0
    for table in rows.values():
        for row in table:
            for v in row:
                if isinstance(v, str):
                    total += len(v)
                elif isinstance(v, float):
                    total += 8
                elif v is not None:
                    total += 4
    return total


def common_layers(result, db, setup, name, plain, traced, recorder,
                  emitted, generated, chunk0, ledger0, reference) -> None:
    """Per-layer numbers shared by every TPC-H workload, from one plain
    pass, one traced pass and the counters read around the traced pass."""
    m = result.metrics
    walls = {n: w for n, (w, _r) in plain.items()}
    models = {n: run.seconds for n, (_w, run) in plain.items()}
    plain_s, traced_s = sum(walls.values()), sum(w for w, _r in traced.values())
    # Counters first: the probes below charge the same ledger and cache.
    layers.ledger_layers(m, db.ledger.delta_since(ledger0), traced_s)
    vector = TIERS[name][1] is fuse_vector_plan
    layers.chunk_layers(m, db, chunk0, db.table_names() if vector else None)
    layers.bee_layers(m, db)
    layers.resilience_layers(result, db)
    m["bees.fuse_ms"] = sum(span_durations(recorder.spans, "bees.fuse")) * 1e3
    m["bees.routines_generated_per_pass"] = generated
    m["bees.relation_bee_build_ms"] = median(b.create_s for b in setup.builds) * 1e3
    m["engine.execute_s"] = self_times(recorder.spans).get("engine.execute", 0.0)
    m["engine.query_wall_geomean_ms"] = geomean(walls.values()) * 1e3
    m["engine.slowest_query_share"] = max(walls.values()) / plain_s
    m["engine.rows_emitted"] = emitted
    m["engine.seqscan_ns_per_tuple"] = seqscan_ns_per_tuple(db)
    m["engine.seqscan_ns_per_tuple.generic"] = seqscan_ns_per_tuple(db, BeeSettings.stock())
    m["trace.overhead_pct"] = (traced_s - plain_s) / plain_s * 100.0
    pages = sum(db.relation(r).heap.page_count for r in db.table_names())
    m["storage.heap_pages"] = pages
    m["storage.bytes_per_user_byte"] = pages * 8192 / user_bytes(setup.rows)
    m["storage.copy_rows_per_s.lineitem"] = len(setup.rows["lineitem"]) / median(
        b.copy_s["lineitem"] for b in setup.builds
    )
    m["storage.load_rows_per_s"] = setup.n_rows / setup.build_s()
    m["cost.wall_model_spearman"] = spearman(
        [walls[n] for n in walls], [models[n] for n in walls]
    )
    stock = sum(e["stock_model_s"] for n, e in reference.queries.items() if n in models)
    ours = sum(models[n] for n in reference.queries if n in models)
    m["cost.model_improvement_vs_stock_pct"] = (1.0 - ours / stock) * 100.0 if stock else 0.0


def deform_share(profile: FunctionProfile) -> float:
    deform = sum(
        count for fn, count in profile.counts.items()
        if fn.startswith("GCL_") or fn == "slot_deform_tuple"
    )
    return deform / profile.total if profile.total else 0.0


def trace_warm(result, name, opts, setup, first, profile) -> RunResult:
    db = setup.db
    fuser = TIERS[name][1]
    numbers = sorted(QUERIES)
    recorder = SpanRecorder()
    plain = run_pass(db, numbers)
    generated0, chunk0, ledger0 = layers.routines(db), db.chunk_cache.statistics(), db.snapshot()
    traced, emitted = traced_pass(db, numbers, recorder, fuser)
    generated = layers.routines(db) - generated0
    reference = check_results(result, "tpch", setup, opts, numbers,
                              [first, plain, traced])
    common_layers(result, db, setup, name, plain, traced, recorder, emitted,
                  generated, chunk0, ledger0, reference)
    result.metrics["cost.vinstr_share_deform"] = deform_share(profile)
    with db.use_settings(db.settings.enabling(shield=False)):
        unshielded = run_pass(db, numbers)
    result.metrics["resilience.shield_wall_ratio"] = (
        sum(w for w, _r in plain.values()) / sum(w for w, _r in unshielded.values())
    )
    result.notes["spans"] = recorder
    return result


def trace_cold(result, name, opts, setup) -> RunResult:
    settings, fuser = TIERS[name][0](), TIERS[name][1]
    numbers = sorted(QUERIES)
    recorder = SpanRecorder()
    setup.builds.append(build(settings, setup.rows))
    with setup.db as db:
        db.cold_cache()
        plain = run_pass(db, numbers)
    setup.builds.append(build(settings, setup.rows))
    with setup.db as db:
        db.cold_cache()
        chunk0, ledger0 = db.chunk_cache.statistics(), db.snapshot()
        with FunctionProfile(db.ledger) as profile:
            traced, emitted = traced_pass(db, numbers, recorder, fuser)
        generated = layers.routines(db)
        reference = check_results(result, "tpch", setup, opts, numbers, [plain, traced])
        common_layers(result, db, setup, name, plain, traced, recorder, emitted,
                      generated, chunk0, ledger0, reference)
        result.metrics["cost.vinstr_share_deform"] = deform_share(profile)
    result.notes["spans"] = recorder
    return result


def trace_parallel(result, name, opts, setup, spawn_s, first) -> RunResult:
    db = setup.db
    fuser = TIERS[name][1]
    parallel = BeeSettings.parallelized()
    numbers = list(PARALLEL_QUERIES)
    recorder = SpanRecorder()
    serial_walls: dict[int, list[float]] = {n: [] for n in numbers}
    parallel_walls: dict[int, list[float]] = {n: [] for n in numbers}
    serial_model, parallel_model = [], []
    passes = [first]
    run_pass(db, numbers)   # serial warm-up: fills the coordinator's chunk cache
    for _ in range(3):
        serial = run_pass(db, numbers)
        done = run_pass(db, numbers, parallel)
        passes.append(done)
        for n in numbers:
            serial_walls[n].append(serial[n][0])
            parallel_walls[n].append(done[n][0])
        serial_model.append(pass_model_s(serial))
        parallel_model.append(pass_model_s(done))
    generated0, chunk0, ledger0 = layers.routines(db), db.chunk_cache.statistics(), db.snapshot()
    traced, emitted = traced_pass(db, numbers, recorder, fuser, parallel)
    generated = layers.routines(db) - generated0
    reference = check_results(result, "tpch_parallel", setup, opts, numbers, passes + [traced])
    common_layers(result, db, setup, name, passes[-1], traced, recorder, emitted,
                  generated, chunk0, ledger0, reference)
    m = result.metrics
    serial_med = {n: median(ws) for n, ws in serial_walls.items()}
    parallel_med = {n: median(ws) for n, ws in parallel_walls.items()}
    # One parallel pass is too noisy a base: compare with the medians.
    base = sum(parallel_med.values())
    m["trace.overhead_pct"] = (sum(w for w, _r in traced.values()) - base) / base * 100.0
    m["parallel.pool_spawn_s"] = spawn_s
    m["parallel.dispatch_floor_ms"] = (parallel_med[6] - serial_med[6]) * 1e3
    m["parallel.per_query_ratio_geomean"] = geomean(
        parallel_med[n] / serial_med[n] for n in numbers
    )
    m["parallel.wall_ratio_vs_serial"] = sum(parallel_med.values()) / sum(serial_med.values())
    m["parallel.model_ratio_vs_serial"] = median(parallel_model) / median(serial_model)
    stats = db.stats()["parallel"]
    statements = max(stats["statements"], 1)
    m["parallel.morsels_per_stmt"] = stats["morsels_dispatched"] / statements
    m["parallel.bypassed_share"] = stats["bypassed"] / statements
    for key in ("snapshot_ships", "stale_retries", "degradations", "worker_crashes"):
        m[f"parallel.{key}"] = stats[key]
    result.check(stats["worker_crashes"] == 0 and stats["degradations"] == 0,
                 "the parallel tier crashed or degraded")
    db.close()
    result.notes["spans"] = recorder
    return result


def run(name: str, opts) -> RunResult:
    started = time.time()
    if name == "tpch_cold":
        result = run_cold(name, opts)
    elif name == "tpch_parallel":
        result = run_parallel(name, opts)
    else:
        result = run_warm(name, opts)
    result.notes["sf"] = sizes(opts, name)[0]
    result.notes["run_wall_s"] = time.time() - started
    return result
