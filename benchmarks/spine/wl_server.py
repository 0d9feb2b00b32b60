"""``server_mixed``: the ``sql_short`` statement mix (no INSERT) over two
``HiveClient`` connections to a ``HiveServer`` + ``HiveListener`` with an
fsync'd WAL, running in a child process.

Protocol JSON, the admission gate, latches, epoch pins, the schedule
record and group commit sit on top of the statement path ``sql_short``
measures without them.  Client threads share this process's GIL; the
server has its own.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import time
from pathlib import Path

from repro.bees.settings import BeeSettings
from repro.server import (
    DataWAL,
    GroupCommitter,
    HiveClient,
    HiveServer,
    recover_database,
    replay_schedule,
)
from repro.server.core import ScheduleEntry

import loadgen
import stmtgen
import wl_sql
from harness import (
    Calibrator,
    RunResult,
    SpanRecorder,
    median,
    now,
    percentile,
    scratch_dir,
    tail_percentile,
    weighted_overhead_pct,
)

SF = 0.005
QUICK_SF = 0.002
SETUPS = 3
CLIENTS = 2
WARMUP = 100
READ_SAMPLE = 0.05        # share of scheduled reads replayed on the stock base
OPEN_RATES = (200, 500)   # offered statements per second, traced run only
CHILD = Path(__file__).resolve().parent / "server_child.py"
TRIVIAL = "SELECT r_regionkey FROM region WHERE r_regionkey = 0"


class ServerChild:
    """The server process and its command pipe; always reaped."""

    def __init__(self, seed: int, sf: float, wal: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(seed), str(sf), str(wal)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            hello = self._read(timeout=60.0)
        except BaseException:
            self.kill()
            raise
        self.address = tuple(hello["address"])

    def _read(self, timeout: float = 30.0) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("the server child did not answer")
        return json.loads(line)

    def ask(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def kill(self) -> None:
        """SIGKILL and reap (the crash of the recovery check, and the
        clean-up of every other path)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


class Clients:
    """CLIENTS connections; ``send(worker, stmt)`` runs one statement and
    books acknowledged writes."""

    def __init__(self, address, n: int) -> None:
        self.conns = [HiveClient(address) for _ in range(n)]
        self.acked: list[dict[tuple, int]] = [{} for _ in range(n)]

    def send(self, worker: int, stmt: stmtgen.Statement) -> None:
        self.conns[worker].sql(stmt.sql)
        if stmt.is_write:
            book = self.acked[worker]
            book[stmt.key] = book.get(stmt.key, 0) + 1

    def increments(self) -> dict[tuple, int]:
        total: dict[tuple, int] = {}
        for book in self.acked:
            for key, n in book.items():
                total[key] = total.get(key, 0) + n
        return total

    def close(self) -> None:
        for conn in self.conns:
            conn.close()


def start(seed: int, sf: float, wal: Path) -> tuple[ServerChild, Clients, float]:
    """One full set-up: spawn, load, listen, connect, first round trip."""
    t0 = now()
    child = ServerChild(seed, sf, wal)
    try:
        clients = Clients(child.address, CLIENTS)
        for conn in clients.conns:
            conn.sql(TRIVIAL)
    except BaseException:
        child.kill()
        raise
    return child, clients, now() - t0


def by_class(samples: list[loadgen.Sample]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {c: [] for c in stmtgen.MIX}
    for s in samples:
        if s.error is None:
            out[s.item.cls].append(s.latency)
    return out


def count(result: RunResult, samples: list[loadgen.Sample]) -> None:
    result.attempted += len(samples)
    for s in samples:
        if s.error is not None:
            result.fail(f"{s.error} in {s.item.sql}")


def run(name: str, opts) -> RunResult:
    started = time.time()
    result = RunResult(name)
    sf = QUICK_SF if opts.quick else SF
    with scratch_dir() as tmp:
        setup_s = []
        setup_cal, cal = Calibrator(), Calibrator()
        child = clients = None
        try:
            for i in range(1 if opts.quick else SETUPS):
                setup_cal.read(3)
                if child is not None:
                    clients.close()
                    child.kill()
                wal = tmp / f"data{i}.wal"
                child, clients, seconds = start(opts.seed, sf, wal)
                setup_s.append(seconds)
            rows = wl_sql.small_tables(sf, opts.seed)
            stream = stmtgen.stream(opts.seed, wl_sql.sizes_of(rows), inserts=False)
            t0 = now()
            for _ in range(WARMUP):
                stmt = next(stream)
                result.attempted += 1
                clients.send(0, stmt)
            warm_s = now() - t0
            setup_cal.read(3)
            before = child.ask(cmd="stats")
            if opts.trace:
                trace(result, opts, child, clients, stream, tmp)
            else:
                samples = loadgen.closed_loop(clients.send, stream, CLIENTS, opts.seconds,
                                              tick=cal.read)
                count(result, samples)
                elapsed = samples[-1].done - samples[0].sent
                after = child.ask(cmd="stats")
                lat = [s.latency * 1e3 for s in samples if s.error is None]
                p, tail, n = tail_percentile(lat, 95)
                result.end_to_end({
                    "setup_s": median(setup_s) + warm_s,
                    "ops_per_s": len(lat) / elapsed,
                    "op_p50_ms": median(lat),
                    "op_tail_ms": tail,
                    "model_ms_per_op": (after["model_s"] - before["model_s"]) * 1e3 / len(lat),
                    "peak_rss_mb": after["rss_mb"],
                }, cal, setup_cal)
                result.notes.update({"tail_percentile": p, "samples": n, "clients": CLIENTS})
                result.notes.update({
                    k: round(v, 4)
                    for k, v in wl_sql.latency_metrics(by_class(samples)).items()
                    if ".p99" not in k
                })
            verify_and_crash(result, opts, child, clients, rows, wal, tmp)
        finally:
            if clients is not None:
                clients.close()
            if child is not None:
                child.kill()
    result.notes["sf"] = sf
    result.notes["run_wall_s"] = time.time() - started
    return result


# -- verification --------------------------------------------------------------


def verify_and_crash(result, opts, child, clients, rows, wal, tmp) -> None:
    """Live state, serial replay of the schedule, then SIGKILL and
    recovery from the WAL alone.  A process kill leaves the OS page
    cache intact, so this checks the WAL's content and replay, not the
    device's write-back."""
    increments = clients.increments()

    def live(relation: str):
        return clients.conns[0].sql(f"SELECT * FROM {relation}").rows

    wl_sql.check_final_state(result, live, rows, increments)

    server_stats = child.ask(cmd="stats")["server"]
    for counter in ("errors", "refused", "lock_timeouts", "snapshot_violations",
                    "wal_failures", "disconnects"):
        result.check(server_stats[counter] == 0, f"server counted {counter}")
    path = tmp / "schedule.jsonl"
    child.ask(cmd="schedule", path=str(path))
    rng = random.Random(opts.seed ^ 0x5EED)
    schedule = []
    writes = 0
    with path.open() as lines:
        for line in lines:
            entry = ScheduleEntry(*json.loads(line))
            writes += entry.kind == "write"
            if entry.kind != "read" or rng.random() < READ_SAMPLE:
                schedule.append(entry)
    base = wl_sql.build(BeeSettings.stock(), rows)
    report = replay_schedule(schedule, base)
    base.close()
    result.check(report["ok"],
                 f"serial replay diverged on {len(report['divergences'])} statements")
    result.notes["replayed"] = report["replayed"]
    acknowledged = sum(increments.values())
    result.check(writes == acknowledged,
                 f"schedule has {writes} writes, clients got {acknowledged} acknowledgements")

    clients.close()
    child.kill()
    t0 = now()
    recovered, applied = recover_database(
        wal, lambda: wl_sql.build(BeeSettings.vectorized(), rows)
    )
    recovery_s = now() - t0
    wl_sql.check_final_state(result, recovered.read_all, rows, increments)
    result.check(applied == acknowledged,
                 f"recovered {applied} writes, {acknowledged} were acknowledged")
    recovered.close()
    if opts.trace:
        result.metrics["server.recovery_s"] = recovery_s
        result.metrics["server.recovered_writes"] = applied
    result.notes["recovery_s"] = round(recovery_s, 4)


# -- the traced run --------------------------------------------------------------


def trace(result, opts, child, clients, stream, tmp) -> None:
    m = result.metrics
    recorder = SpanRecorder()
    op = [0]

    def traced_send(worker: int, stmt) -> None:
        op[0] += 1
        with recorder.span("client.rtt", op[0]):
            clients.send(worker, stmt)

    part = opts.seconds / 8.0
    # Phase A: closed loop, 1 connection; traced and untraced blocks alternate.
    plain_a, traced_a = [], []
    for block in range(4):
        send = traced_send if block % 2 else clients.send
        samples = loadgen.closed_loop(send, stream, 1, part / 4)
        (traced_a if block % 2 else plain_a).extend(samples)
    phase_a = sorted(plain_a + traced_a, key=lambda s: s.sent)
    # Phase B: closed loop, 2 connections.
    phase_b = loadgen.closed_loop(traced_send, stream, CLIENTS, part)
    count(result, phase_a)
    count(result, phase_b)
    rate = {}
    for label, samples in (("a", phase_a), ("b", phase_b)):
        rate[label] = len(samples) / (samples[-1].done - samples[0].sent)
    m["server.scaling_2v1"] = rate["b"] / rate["a"]
    m["trace.overhead_pct"] = weighted_overhead_pct(by_class(plain_a), by_class(traced_a))
    m.update(wl_sql.latency_metrics(by_class(phase_a + phase_b)))
    result.notes["phase_a_read_p50_ms"] = round(
        wl_sql.latency_metrics(by_class(phase_a))["stmt.read.p50_ms"], 4)
    result.notes["phase_a_stmts_per_s"] = round(rate["a"], 1)
    result.notes["phase_b_stmts_per_s"] = round(rate["b"], 1)

    # Phases C, D: open loop (seeded Poisson arrivals) at fixed offered rates.
    late = 0.0
    for offered in OPEN_RATES:
        due = stmtgen.poisson_due_times(opts.seed + offered, offered, 2 * part)
        items = [next(stream) for _ in due]
        samples, dropped = loadgen.open_loop(traced_send, items, due, CLIENTS)
        count(result, samples)
        lat = [s.latency for s in samples if s.error is None]
        m[f"server.open{offered}_p95_ms"] = percentile(lat, 95) * 1e3
        m[f"server.open{offered}_achieved_per_s"] = len(lat) / (
            max(s.done for s in samples) - min(s.due for s in samples))
        late = max(late, max(s.late for s in samples))
        if offered == OPEN_RATES[0]:
            # The lower rate must be sustained; the higher one probes saturation.
            result.attempted += dropped
            if dropped or len(lat) < 0.95 * len(due):
                result.fail(f"open loop at {offered}/s completed {len(lat)} of {len(due)}",
                            max(dropped, 1))
    m["server.open_late_max_ms"] = late * 1e3

    floor = []
    for _ in range(200):
        t0 = now()
        clients.conns[0].sql(TRIVIAL)
        floor.append(now() - t0)
    m["server.rtt_floor_us"] = median(floor) * 1e6
    result.attempted += len(floor)

    stats = child.ask(cmd="stats")
    server, commit = stats["server"], stats["server"]["group_commit"]
    m["server.wal_fsyncs"] = commit["fsyncs"]
    m["server.wal_records_per_fsync"] = commit["records"] / max(commit["fsyncs"], 1)
    m["server.wal_max_batch"] = commit["max_batch"]
    m["server.wal_bytes_per_write"] = stats["wal_bytes"] / max(commit["records"], 1)
    for counter in ("queue_high_water", "refused", "sheds", "lock_timeouts",
                    "snapshot_violations", "errors", "disconnects"):
        m[f"server.{counter}"] = server[counter]
    m["cost.vinstr"] = stats["vinstr"]
    m["storage.pages_hit"] = stats["pages_hit"]
    m["storage.seq_pages_read"] = stats["seq_pages_read"]
    m["storage.rand_pages_read"] = stats["rand_pages_read"]
    chunks = stats["chunks"]
    m["chunks.misses"] = chunks["misses"]
    m["chunks.hit_rate"] = chunks["hits"] / max(chunks["hits"] + chunks["misses"], 1)
    m["bees.memo_entries_end"] = stats["routines"]
    m["bees.tuple_bees"] = stats["tuple_bees"]
    m["bees.routines_generated_per_stmt"] = stats["routines"] / max(server["statements"], 1)
    m["resilience.faults"] = stats["resilience_faults"]

    layer_probe(m, recorder, opts, clients, stream, tmp, result)
    result.notes["spans"] = recorder


def layer_probe(m, recorder, opts, clients, stream, tmp, result) -> None:
    """The same read statements three ways: over the socket to the
    server child, through ``Session.sql`` of an in-process server on the
    same data, and straight into ``db.sql``; then the WAL's commit path
    and this file system's fsync alone."""
    rows = wl_sql.small_tables(QUICK_SF if opts.quick else SF, opts.seed)
    db = wl_sql.build(BeeSettings.vectorized(), rows)
    server = HiveServer(db)
    walls: dict[str, list[float]] = {"client.rtt": [], "server.session": [], "db.sql": []}
    with db, server.session() as session:
        paths = [("client.rtt", clients.conns[0].sql), ("server.session", session.sql),
                 ("db.sql", db.sql)]
        reads = (s for s in stream if not s.is_write)
        for i in range(150):
            stmt = next(reads)
            for name, call in paths[i % 3:] + paths[:i % 3]:
                with recorder.span(name, -i - 1) as span:
                    call(stmt.sql)
                walls[name].append(span.end - span.start)
        result.attempted += 450
    m["server.protocol_us"] = (median(walls["client.rtt"]) - median(walls["server.session"])) * 1e6
    m["server.gate_us"] = (median(walls["server.session"]) - median(walls["db.sql"])) * 1e6
    result.notes["probe_db_sql_read_p50_ms"] = round(median(walls["db.sql"]) * 1e3, 4)

    committer = GroupCommitter(DataWAL(tmp / "probe.wal"))
    commits = []
    for seq in range(40):
        t0 = now()
        committer.commit(DataWAL.statement_record(seq, 0, TRIVIAL))
        commits.append(now() - t0)
    m["server.wal_commit_us"] = median(commits) * 1e6
    syncs = []
    with open(tmp / "probe.fsync", "wb") as handle:
        for _ in range(40):
            handle.write(b"x" * 128)
            handle.flush()
            t0 = now()
            os.fsync(handle.fileno())
            syncs.append(now() - t0)
    m["server.fsync_ms"] = median(syncs) * 1e3
