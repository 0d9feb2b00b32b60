"""``tpcc_mix``: the TPC-C default mix driven through
``TransactionContext`` on an ``all_bees()`` database (paper section VI-C).

No planner and no fusion run here: index lookups, by-TID updates and
deletes, SCL fill and tuple-bee inserts are the work.
"""

from __future__ import annotations

import json
import random
import time

from repro.bees.settings import BeeSettings
from repro.db import Database
from repro.workloads.tpcc.loader import TPCCConfig, load_tpcc
from repro.workloads.tpcc.runner import transaction_schedule
from repro.workloads.tpcc.schema import ALL_SCHEMAS
from repro.workloads.tpcc.transactions import TRANSACTION_TYPES, TransactionContext

import layers
import verify
from harness import (
    DEFAULT_SEED,
    Calibrator,
    Deadline,
    RunResult,
    SpanRecorder,
    median,
    now,
    peak_rss_mb,
    tail_percentile,
    weighted_overhead_pct,
)

MIX = "default"
SETUPS = 3
CHECKPOINT = 500       # the state digest is taken after this many transactions
SCHEDULE_LENGTH = 60_000
TRACE_BLOCK = 50        # transactions per traced / untraced block
CALIBRATE_EVERY = 32    # transactions between speed readings
MODEL_OPS = 2000        # model_ms_per_op and peak_rss_mb cover this fixed prefix of the schedule


def config_for(opts) -> TPCCConfig:
    if opts.quick:
        return TPCCConfig(warehouses=1, customers_per_district=30, items=200, seed=opts.seed)
    return TPCCConfig(warehouses=2, seed=opts.seed)


def build(settings: BeeSettings, config: TPCCConfig) -> tuple[Database, float]:
    t0 = now()
    db = Database(settings)
    load_tpcc(db, config)
    db.warm_cache()
    db.ledger.reset()
    return db, now() - t0


class Driver:
    """Replays the seeded schedule one transaction at a time."""

    def __init__(self, db, config: TPCCConfig, seed: int) -> None:
        self.db = db
        self.ctx = TransactionContext(db, config, seed=seed)
        # Blocks of 100 that each hold the mix exactly: a Delivery costs
        # sixty Payments, so a globally shuffled schedule would move the
        # per-transaction averages of any prefix by several percent.
        self.schedule = [
            name for block in range(SCHEDULE_LENGTH // 100)
            for name in transaction_schedule(MIX, 100, seed + block)
        ]
        self.w_rng = random.Random(seed + 1)
        self.warehouses = config.warehouses
        self.done = 0

    def next(self) -> str:
        name = self.schedule[self.done % len(self.schedule)]
        self.done += 1
        getattr(self.ctx, name)(self.w_rng.randint(1, self.warehouses))
        return name

    def run(self, n: int) -> None:
        for _ in range(n):
            self.next()


def checkpoint_digest(config: TPCCConfig, seed: int, quick: bool) -> tuple[str, str]:
    """The stock engine's digest after CHECKPOINT transactions: from the
    committed file for the default seed, else replayed live (untimed)."""
    path = verify.EXPECTED_DIR / f"tpcc_seed{seed}.json"
    if seed == DEFAULT_SEED and not quick and path.exists():
        return json.loads(path.read_text())["digest"], f"file:{path.name}"
    return stock_digest(config, seed), "live-stock-replay"


def stock_digest(config: TPCCConfig, seed: int) -> str:
    db, _s = build(BeeSettings.stock(), config)
    Driver(db, config, seed).run(CHECKPOINT)
    return verify.state_digest(db, ALL_SCHEMAS)


def run(name: str, opts) -> RunResult:
    started = time.time()
    result = RunResult(name)
    config = config_for(opts)
    settings = BeeSettings.all_bees()
    setup_cal, cal = Calibrator(), Calibrator()
    build_s = []
    for _ in range(1 if opts.quick else SETUPS):
        setup_cal.read(3)
        db, seconds = build(settings, config)
        build_s.append(seconds)
    setup_cal.read(3)
    driver = Driver(db, config, opts.seed)
    recorder = SpanRecorder() if opts.trace else None

    latencies: dict[str, list[float]] = {t: [] for t in TRANSACTION_TYPES}
    traced_lat: dict[str, list[float]] = {t: [] for t in TRANSACTION_TYPES}
    ledger0 = db.snapshot()
    busy = 0.0

    def timed(more) -> None:
        nonlocal busy
        block = now()
        while more():
            if driver.done % CALIBRATE_EVERY == 0:
                cal.read()
            t0 = now()
            try:
                kind = driver.next()
            except Exception as exc:
                result.fail(f"transaction {driver.done} raised {type(exc).__name__}: {exc}")
                continue
            latencies[kind].append(now() - t0)
        busy += now() - block

    timed(lambda: driver.done < CHECKPOINT)
    digest = verify.state_digest(db, ALL_SCHEMAS)   # the clock is stopped here
    window = Deadline(opts.seconds - busy)
    model = rss = None
    if recorder is None:
        timed(lambda: window.left() > 0 and driver.done < MODEL_OPS)
        if driver.done == MODEL_OPS:
            model, rss = db.ledger.delta_since(ledger0), peak_rss_mb()
        timed(lambda: window.left() > 0)
    while recorder is not None and window.left() > 0:
        # Tables grow as the run goes on, so traced and untraced blocks
        # alternate instead of splitting the window in two halves.
        stop = driver.done + TRACE_BLOCK
        timed(lambda: driver.done < stop)
        block = now()
        for _ in range(TRACE_BLOCK):
            with recorder.span("txn", driver.done) as span:
                kind = driver.next()
            traced_lat[kind].append(span.end - span.start)
        busy += now() - block
    delta = db.ledger.delta_since(ledger0)
    result.attempted += driver.done

    samples = [w * 1e3 for ws in latencies.values() for w in ws]
    p, tail, n = tail_percentile(samples, 95)
    if not opts.trace:
        result.end_to_end({
            "setup_s": median(build_s),
            "ops_per_s": len(samples) / (busy - cal.spent),
            "op_p50_ms": median(samples),
            "op_tail_ms": tail,
            "model_ms_per_op": db.time_model.seconds(model or delta) * 1e3
            / (MODEL_OPS if model else driver.done),
            "peak_rss_mb": rss or peak_rss_mb(),
        }, cal, setup_cal)
        result.notes.update({"tail_percentile": p, "samples": n, "transactions": driver.done,
                             "model_repeats_exactly": model is not None})
    else:
        per_layer(result, db, config, latencies, traced_lat, delta, driver, busy)
        result.notes["spans"] = recorder

    expected, source = checkpoint_digest(config, opts.seed, opts.quick)
    result.notes["reference"] = source
    result.check(digest == expected,
                 f"state digest after {CHECKPOINT} transactions differs from {source}")
    for problem in verify.tpcc_consistency(db):
        result.check(False, problem)
    result.check(True, "consistency conditions 1-3")
    db.close()
    result.notes["run_wall_s"] = time.time() - started
    return result


def per_layer(result, db, config, plain, traced, delta, driver, wall_s) -> None:
    m = result.metrics
    for kind in TRANSACTION_TYPES:
        both = plain[kind] + traced[kind]
        m[f"tpcc.{kind}.p50_ms"] = median(both) * 1e3 if both else 0.0
    m["trace.overhead_pct"] = weighted_overhead_pct(plain, traced)
    minutes = db.time_model.seconds(delta) / 60.0
    new_orders = len(plain["new_order"]) + len(traced["new_order"])
    m["tpcc.tpmC_model"] = new_orders / minutes
    layers.ledger_layers(m, delta, wall_s)
    layers.bee_layers(m, db)
    layers.resilience_layers(result, db)
    m["storage.heap_pages"] = sum(db.relation(r).heap.page_count for r in db.table_names())

    rng = random.Random(driver.done)
    customers = db.relation("tpcc_customer").indexes["customer_pk"]
    stock = db.relation("stock").indexes["stock_pk"]
    keys = [
        ((rng.randint(1, config.warehouses), rng.randint(1, config.districts),
          rng.randint(1, config.customers)),
         (rng.randint(1, config.warehouses), rng.randint(1, config.items)))
        for _ in range(5000)
    ]
    t0 = now()
    for c_key, s_key in keys:
        customers.lookup(c_key)
        stock.lookup(s_key)
    m["storage.index_lookup_us"] = (now() - t0) * 1e6 / (2 * len(keys))
    t0 = now()
    db.create_index("stock", "spine_probe", ("s_w_id", "s_i_id"), kind="hash", unique=True)
    m["storage.index_build_s"] = now() - t0
