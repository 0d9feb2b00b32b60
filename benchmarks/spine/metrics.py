"""The benchmark's metric names.

``BENCHMARK.json`` at the repo root carries the same names, units and
directions (a self-test keeps the two in step); the layer each per-layer
metric belongs to and the end-to-end metric it should move live only
here and in the README, because the driver's schema has no field for
them.

Every workload reports every end-to-end metric (untraced run) and every
per-layer metric (traced run); a per-layer metric a workload bypasses
reads 0 there, which is the bypass prediction made visible.
"""

from __future__ import annotations

WORKLOADS = {
    "tpch_bees_warm": "22 TPC-H queries warm under all_bees(): GCL/EVP/EVJ routine bees do the work; "
                      "no fusion, no chunk cache, no SQL front end (the paper's Fig. 4 system).",
    "tpch_pipe_warm": "Same 22 queries under pipelined(): row-loop pipeline codegen carries the scans, "
                      "routine bees only above joins; the tier the vector tier degrades to.",
    "tpch_vector_warm": "Same 22 queries under vectorized(): NumPy kernels over the frozen chunk cache; "
                        "deform and buffer pool bypassed, so a deform speed-up must not show here.",
    "tpch_cold": "vectorized(); each rep is a fresh bulk load then 22 single-shot queries with empty "
                 "buffer pool, chunk cache and bee memos: first-touch cost (Fig. 5 + Fig. 8).",
    "tpch_parallel": "Scan-heavy queries 1,3,6,12,14 at twice the data, 2-worker morsel-parallel on a vector DB "
                     "(serial passes on the same DB are the traced run's base): dispatch, shipping and merge are the work.",
    "sql_short": "Seeded mix of short SELECT/UPDATE/INSERT through db.sql() in-process, one caller, "
                 "closed loop: parse, plan, fuse, codegen and memo dominate; writes force chunk re-decode.",
    "tpcc_mix": "TPC-C default mix, 2 warehouses, all_bees(): index lookups, by-TID update/delete, SCL "
                "fill and tuple-bee inserts (paper VI-C) - the write path no TPC-H workload touches.",
    "server_mixed": "HiveServer + listener + fsync'd WAL in a child process, the sql_short mix (no INSERT) "
                    "over 2 client connections, closed loop: protocol, gate, latches and group commit on top.",
}

# name, unit, better, bound, definition.  The four wall metrics are reported at
# reference speed (harness.Calibrator); the raw values are printed beside them.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "wall from workload start to the first timed op: input generation (once) + median engine "
     "set-up over repeated set-ups (create, load, index, server/pool start) + cache warm-up"),
    ("ops_per_s", "1/s", "higher", 0.20,
     "operations per second: queries (22 / sum of per-query median walls), statements or "
     "transactions completed / elapsed"),
    ("op_p50_ms", "ms", "lower", 0.20,
     "median wall of one operation (query, statement, transaction), all classes pooled; "
     "on TPC-H each query counts once, at its median over the timed passes"),
    ("op_tail_ms", "ms", "lower", 0.20,
     "tail wall of one operation: the highest of p50/p75/p90/p95 with >= 10 samples beyond it "
     "(p75 on TPC-H, p95 elsewhere; the percentile and sample count are printed)"),
    ("model_ms_per_op", "ms", "lower", 0.10,
     "modeled milliseconds per operation: ledger vinstr + page I/O through TimeModel, the "
     "paper's deterministic clock (one pass, or the first 2000 operations of the stream)"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "ru_maxrss of the process that ran the engine after a fixed amount of work (server child "
     "on server_mixed; the largest worker added on tpch_parallel)"),
]

# name, unit, better, layer, what it should move
PER_LAYER = [
    # sql
    ("sql.parse_us", "us", "lower", "sql", "op_p50_ms, ops_per_s on sql_short, server_mixed"),
    ("sql.plan_us", "us", "lower", "sql", "op_p50_ms, ops_per_s on sql_short, server_mixed"),
    ("sql.frontend_share", "share", "lower", "sql", "op_p50_ms on sql_short"),
    # bees
    ("bees.fuse_ms", "ms", "lower", "bees", "ops_per_s on tpch_cold, op_p50_ms on sql_short"),
    ("bees.routines_generated_per_pass", "count", "lower", "bees", "ops_per_s on tpch_cold"),
    ("bees.routines_generated_per_stmt", "count", "lower", "bees", "op_p50_ms on sql_short"),
    ("bees.memo_entries_end", "count", "lower", "bees", "peak_rss_mb on sql_short"),
    ("bees.relation_bee_build_ms", "ms", "lower", "bees", "setup_s everywhere, ops_per_s on tpch_cold"),
    ("bees.tuple_bees", "count", "lower", "bees", "peak_rss_mb, storage.bytes_per_user_byte"),
    # bees.vector (chunks)
    ("chunks.decode_s", "s", "lower", "bees.vector", "ops_per_s on tpch_cold, op_tail_ms on sql_short"),
    ("chunks.hit_rate", "share", "higher", "bees.vector", "op_tail_ms on sql_short, server_mixed"),
    ("chunks.misses", "count", "lower", "bees.vector", "op_tail_ms on sql_short, server_mixed"),
    # engine
    ("engine.execute_s", "s", "lower", "engine", "ops_per_s on tpch_*"),
    ("engine.query_wall_geomean_ms", "ms", "lower", "engine", "op_p50_ms on tpch_*"),
    ("engine.slowest_query_share", "share", "lower", "engine", "op_tail_ms on tpch_*"),
    ("engine.seqscan_ns_per_tuple", "ns", "lower", "engine", "ops_per_s on tpch_bees_warm"),
    ("engine.seqscan_ns_per_tuple.generic", "ns", "lower", "engine", "base of the line above"),
    ("engine.dml_us_per_row_scanned", "us", "lower", "engine", "stmt.write.p50_ms on sql_short"),
    ("engine.rows_emitted", "count", "higher", "engine", "none (work done)"),
    # storage
    ("storage.copy_rows_per_s.lineitem", "1/s", "higher", "storage", "setup_s, storage.load_rows_per_s"),
    ("storage.load_rows_per_s", "1/s", "higher", "storage", "setup_s on tpch_* (Fig. 8)"),
    ("storage.heap_pages", "count", "lower", "storage", "model_ms_per_op on tpch_cold"),
    ("storage.bytes_per_user_byte", "ratio", "lower", "storage", "peak_rss_mb"),
    ("storage.pages_hit", "count", "lower", "storage", "model_ms_per_op"),
    ("storage.seq_pages_read", "count", "lower", "storage", "model_ms_per_op on tpch_cold"),
    ("storage.rand_pages_read", "count", "lower", "storage", "model_ms_per_op on tpcc_mix"),
    ("storage.index_lookup_us", "us", "lower", "storage", "ops_per_s on tpcc_mix"),
    ("storage.index_build_s", "s", "lower", "storage", "setup_s on tpcc_mix"),
    # cost
    ("cost.vinstr", "count", "lower", "cost", "model_ms_per_op everywhere"),
    ("cost.model_improvement_vs_stock_pct", "%", "higher", "cost", "model_ms_per_op (Fig. 4 headline)"),
    ("cost.wall_model_spearman", "ratio", "higher", "cost", "none (Fig. 6 on the real clock)"),
    ("cost.wall_ns_per_vinstr", "ns", "lower", "cost", "none (the two clocks' exchange rate)"),
    ("cost.charge_ns", "ns", "lower", "cost", "every wall metric"),
    ("cost.vinstr_share_deform", "share", "lower", "cost", "model_ms_per_op on tpch_bees_warm"),
    # parallel
    ("parallel.pool_spawn_s", "s", "lower", "parallel", "setup_s on tpch_parallel"),
    ("parallel.dispatch_floor_ms", "ms", "lower", "parallel", "op_p50_ms on tpch_parallel"),
    ("parallel.per_query_ratio_geomean", "ratio", "lower", "parallel", "op_p50_ms on tpch_parallel"),
    ("parallel.wall_ratio_vs_serial", "ratio", "lower", "parallel", "ops_per_s on tpch_parallel"),
    ("parallel.model_ratio_vs_serial", "ratio", "lower", "parallel", "model_ms_per_op on tpch_parallel"),
    ("parallel.morsels_per_stmt", "count", "lower", "parallel", "ops_per_s on tpch_parallel"),
    ("parallel.bypassed_share", "share", "higher", "parallel", "parallel.dispatch_floor_ms"),
    ("parallel.snapshot_ships", "count", "lower", "parallel", "setup_s on tpch_parallel"),
    ("parallel.stale_retries", "count", "lower", "parallel", "op_tail_ms on tpch_parallel"),
    ("parallel.degradations", "count", "lower", "parallel", "must be 0"),
    ("parallel.worker_crashes", "count", "lower", "parallel", "must be 0"),
    # server
    ("server.rtt_floor_us", "us", "lower", "server", "op_p50_ms on server_mixed"),
    ("server.protocol_us", "us", "lower", "server", "op_p50_ms on server_mixed"),
    ("server.gate_us", "us", "lower", "server", "op_p50_ms on server_mixed"),
    ("server.wal_commit_us", "us", "lower", "server", "stmt.write.p50_ms on server_mixed"),
    ("server.fsync_ms", "ms", "lower", "server", "none (this file system's os.fsync)"),
    ("server.wal_fsyncs", "count", "lower", "server", "stmt.write.p50_ms on server_mixed"),
    ("server.wal_records_per_fsync", "ratio", "higher", "server", "ops_per_s on server_mixed"),
    ("server.wal_max_batch", "count", "higher", "server", "ops_per_s on server_mixed"),
    ("server.wal_bytes_per_write", "B", "lower", "server", "stmt.write.p50_ms on server_mixed"),
    ("server.scaling_2v1", "ratio", "higher", "server", "ops_per_s on server_mixed"),
    ("server.open200_p95_ms", "ms", "lower", "server", "op_tail_ms on server_mixed"),
    ("server.open200_achieved_per_s", "1/s", "higher", "server", "must stay >= 95% of 200"),
    ("server.open500_p95_ms", "ms", "lower", "server", "op_tail_ms on server_mixed"),
    ("server.open500_achieved_per_s", "1/s", "higher", "server", "ops_per_s on server_mixed"),
    ("server.open_late_max_ms", "ms", "lower", "server", "none (generator lateness)"),
    ("server.recovery_s", "s", "lower", "server", "none (restart cost)"),
    ("server.recovered_writes", "count", "higher", "server", "must equal acknowledged writes"),
    ("server.queue_high_water", "count", "lower", "server", "op_tail_ms on server_mixed"),
    ("server.refused", "count", "lower", "server", "must be 0"),
    ("server.sheds", "count", "lower", "server", "must be 0 (parallel is off)"),
    ("server.lock_timeouts", "count", "lower", "server", "must be 0"),
    ("server.snapshot_violations", "count", "lower", "server", "must be 0"),
    ("server.errors", "count", "lower", "server", "must be 0"),
    ("server.disconnects", "count", "lower", "server", "must be 0 before the kill"),
    # resilience
    ("resilience.shield_wall_ratio", "ratio", "lower", "resilience", "ops_per_s on tpch_bees_warm"),
    ("resilience.faults", "count", "lower", "resilience", "must be 0"),
    ("resilience.quarantined", "count", "lower", "resilience", "must be 0"),
    # statement classes / transaction types
    ("stmt.read.p50_ms", "ms", "lower", "stmt", "op_p50_ms on sql_short, server_mixed"),
    ("stmt.read.p95_ms", "ms", "lower", "stmt", "op_tail_ms on sql_short, server_mixed"),
    ("stmt.write.p50_ms", "ms", "lower", "stmt", "op_p50_ms on sql_short, server_mixed"),
    ("stmt.write.p95_ms", "ms", "lower", "stmt", "op_tail_ms on sql_short, server_mixed"),
    ("stmt.lookup.p50_ms", "ms", "lower", "stmt", "stmt.read.p50_ms"),
    ("stmt.lookup.p99_ms", "ms", "lower", "stmt", "stmt.read.p95_ms"),
    ("stmt.groupby.p50_ms", "ms", "lower", "stmt", "stmt.read.p50_ms"),
    ("stmt.groupby.p99_ms", "ms", "lower", "stmt", "stmt.read.p95_ms"),
    ("stmt.join.p50_ms", "ms", "lower", "stmt", "stmt.read.p50_ms"),
    ("stmt.join.p99_ms", "ms", "lower", "stmt", "stmt.read.p95_ms"),
    ("stmt.topn.p50_ms", "ms", "lower", "stmt", "stmt.read.p50_ms"),
    ("stmt.topn.p99_ms", "ms", "lower", "stmt", "stmt.read.p95_ms"),
    ("stmt.upd_supplier.p50_ms", "ms", "lower", "stmt", "stmt.write.p50_ms"),
    ("stmt.upd_supplier.p99_ms", "ms", "lower", "stmt", "stmt.write.p95_ms"),
    ("stmt.upd_customer.p50_ms", "ms", "lower", "stmt", "stmt.write.p50_ms"),
    ("stmt.upd_customer.p99_ms", "ms", "lower", "stmt", "stmt.write.p95_ms"),
    ("stmt.insert.p50_ms", "ms", "lower", "stmt", "stmt.write.p50_ms"),
    ("stmt.insert.p99_ms", "ms", "lower", "stmt", "stmt.write.p95_ms"),
    ("tpcc.new_order.p50_ms", "ms", "lower", "tpcc", "ops_per_s on tpcc_mix"),
    ("tpcc.payment.p50_ms", "ms", "lower", "tpcc", "ops_per_s on tpcc_mix"),
    ("tpcc.order_status.p50_ms", "ms", "lower", "tpcc", "ops_per_s on tpcc_mix"),
    ("tpcc.delivery.p50_ms", "ms", "lower", "tpcc", "op_tail_ms on tpcc_mix"),
    ("tpcc.stock_level.p50_ms", "ms", "lower", "tpcc", "ops_per_s on tpcc_mix"),
    ("tpcc.tpmC_model", "1/min", "higher", "tpcc", "model_ms_per_op on tpcc_mix (paper VI-C)"),
    # trace
    ("trace.overhead_pct", "%", "lower", "trace", "none (reported, not gated)"),
]

END_TO_END_NAMES = [m[0] for m in END_TO_END]
PER_LAYER_NAMES = [m[0] for m in PER_LAYER]
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}
LAYER = {m[0]: m[3] for m in PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _d in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, _layer, _moves in PER_LAYER
        ],
    }
