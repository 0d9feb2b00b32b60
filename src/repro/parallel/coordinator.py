"""Coordinator side of the morsel-driven parallel tier.

The coordinator owns a lazily-spawned pool of persistent worker
processes (:mod:`repro.parallel.worker`) and, per statement, fans
contiguous page ranges of the driving relation's heap across them —
the morsels are the page-sized batches the pipeline drivers already
yield serially, coalesced to about ``MORSELS_PER_WORKER`` morsels per
worker (never finer than ``MORSEL_PAGES``) so the per-morsel constants
amortize.  Dispatch is dynamic (a worker gets its next morsel when it
returns one), so stragglers never idle the pool.

**Pricing.** Each worker accrues virtual instructions into its own
private ledger and returns the per-task delta; the coordinator charges
its own ledger with the *makespan* — the largest per-worker sum — plus
the dispatch/ship/merge constants (``PAR_*`` in
:mod:`repro.cost.constants`).  ``db.measure()`` therefore reports the
modeled wall clock of the slowest worker, which is what the paper's
4-core reference machine would observe; real wall time is reported
beside it by the spine's ``tpch_parallel`` workload, which measures
2 workers at 2.0x serial where this model says 0.59x.

**Shared-state contract.** Everything crossing the process boundary
follows the guard+epoch plan certified by swarmcheck: heap snapshots
are keyed by ``(heap.uid, heap.version)`` tokens and validated per
task; a ``query_epoch`` bump (DDL) observed before dispatch broadcasts
``invalidate`` to every worker, dropping their cached bees wholesale.
A worker that still holds a stale snapshot answers ``stale`` and the
coordinator re-ships and retries.  Any worker loss or error shuts the
pool down and raises :class:`ParallelError`; under beeshield the
driver node converts that into the statement-retry signal, degrading
to the serial vector/pipeline tiers.
"""

from __future__ import annotations

import pickle
from multiprocessing import connection as mpc
from time import perf_counter

from repro.cost import constants as C

#: Minimum contiguous heap pages per morsel (the dispatch floor).
MORSEL_PAGES = 8

#: Relations smaller than this many pages bypass the pool entirely
#: (fan-out overhead would dominate; the driver drains its anchor).
MIN_PARALLEL_PAGES = 2 * MORSEL_PAGES

#: Morsel-count target per worker: large relations are split into about
#: this many morsels per worker rather than a fixed page stride, so the
#: per-morsel constants (dispatch, kernel entry, chunk lookup) amortize
#: while dynamic assignment still rebalances stragglers.
MORSELS_PER_WORKER = 4


def _morsel_ranges(n_pages: int, n_workers: int) -> list[tuple[int, int]]:
    """Page ranges for one statement: adaptive stride, MORSEL_PAGES floor."""
    target = MORSELS_PER_WORKER * max(1, n_workers)
    stride = max(MORSEL_PAGES, -(-n_pages // target))
    return [
        (lo, min(lo + stride, n_pages)) for lo in range(0, n_pages, stride)
    ]

#: Seconds without any worker reply before the statement is abandoned.
_STALL_TIMEOUT_S = 60.0


class ParallelError(Exception):
    """A parallel statement failed; ``kind`` feeds the fault record."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind


class ParallelStats:
    """Runtime decision counters surfaced through ``db.stats()``.

    All mutation goes through the ``record_*`` methods below so the
    write sites resolve to this class for swarmcheck's shared-state
    classification; the coordinator (and therefore the session thread)
    is the only writer.
    """

    def __init__(self) -> None:
        self.workers_spawned = 0
        self.statements = 0
        self.morsels_dispatched = 0
        self.epoch_invalidations = 0
        self.snapshot_ships = 0
        self.stale_retries = 0
        self.worker_crashes = 0
        self.degradations = 0
        self.bypassed = 0

    def record_spawn(self, n: int) -> None:
        self.workers_spawned += n

    def record_statement(self) -> None:
        self.statements += 1

    def record_morsels(self, n: int) -> None:
        self.morsels_dispatched += n

    def record_epoch_invalidation(self) -> None:
        self.epoch_invalidations += 1

    def record_snapshot_ship(self) -> None:
        self.snapshot_ships += 1

    def record_stale_retry(self) -> None:
        self.stale_retries += 1

    def record_worker_crash(self) -> None:
        self.worker_crashes += 1

    def record_degradation(self) -> None:
        self.degradations += 1

    def record_bypass(self) -> None:
        self.bypassed += 1

    def snapshot(self) -> dict:
        return {
            "workers_spawned": self.workers_spawned,
            "statements": self.statements,
            "morsels_dispatched": self.morsels_dispatched,
            "epoch_invalidations": self.epoch_invalidations,
            "snapshot_ships": self.snapshot_ships,
            "stale_retries": self.stale_retries,
            "worker_crashes": self.worker_crashes,
            "degradations": self.degradations,
            "bypassed": self.bypassed,
        }


class _Worker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn


class ParallelCoordinator:
    """Per-database morsel dispatcher over a persistent worker pool."""

    def __init__(self, db, n_workers: int = 2) -> None:
        self.db = db
        self.n_workers = max(1, int(n_workers))
        self.stats = ParallelStats()
        self._workers: list[_Worker] = []
        self._shipped: list[dict] = []   # per worker: relation -> token
        self._epoch: int | None = None
        self._stmt_seq = 0
        # Chaos hooks (repro.resilience.chaos): one-shot fault triggers.
        self._chaos_kill_next = False
        self._chaos_stale_next = False

    # -- pool lifecycle ----------------------------------------------------

    def ensure_workers(self) -> None:
        """Spawn the pool if absent (lazily, and again after shutdown)."""
        if self._workers:
            return
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else None)
        from repro.parallel.worker import worker_main

        workers = []
        for _ in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            workers.append(_Worker(proc, parent_conn))
        self._workers = workers
        self._shipped = [{} for _ in workers]
        self.stats.record_spawn(len(workers))

    def shutdown(self) -> None:
        """Stop every worker; the pool respawns lazily on next use."""
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
            try:
                worker.conn.close()
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=2)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=2)
        self._workers = []
        self._shipped = []
        self._epoch = None

    # -- statement execution ----------------------------------------------

    def execute_statement(self, spec, tier: str, table_fn=None):
        """Fan one fused statement across the pool and gather its result.

        Returns ``None`` when the relation is too small to bother (the
        driver drains its serial anchor), a row list for the ``rows``
        and ``probe`` sinks, or a merged ``{group_key: [AggState]}``
        dict for the ``agg`` sink.  *table_fn* (probe sinks) produces
        the build-side hash table; it runs only after the bypass
        decision — and before any pool traffic, because the build
        subtree may itself re-enter this coordinator with a nested
        statement.  Raises :class:`ParallelError` on worker loss or a
        worker-reported exception (pool already shut down), and
        :class:`repro.resilience.QueryTimeout` past the statement
        deadline.
        """
        db = self.db
        rel = db.relation(spec.relation)
        heap = rel.heap
        n_pages = heap.page_count
        if n_pages < MIN_PARALLEL_PAGES:
            self.stats.record_bypass()
            return None
        table = table_fn() if table_fn is not None else None
        self.ensure_workers()
        self.stats.record_statement()
        self._sync_epoch()
        token = (heap.uid, heap.version)
        sections = rel.sections_list()
        layout = rel.layout
        pages = [
            [raw for _slot, raw in page.live_tuples()] for page in heap.pages
        ]
        skip_ship = -1
        if self._chaos_stale_next:
            # Chaos site "parallel-stale-epoch": drop worker 0's cached
            # snapshots without shipping fresh ones, so its first task
            # answers ``stale`` and the re-ship/retry path is exercised.
            self._chaos_stale_next = False
            skip_ship = 0
            self._send(self._workers[0], ("invalidate",))
            self._shipped[0].clear()
        for i in range(len(self._workers)):
            if i != skip_ship:
                self._ship_snapshot(i, spec.relation, token, pages, sections, layout)
        stmt_id = self._prepare(spec, tier, table)
        return self._dispatch(
            stmt_id, spec, token, n_pages, pages, sections, layout
        )

    def _sync_epoch(self) -> None:
        """Relay a query-epoch bump (DDL) as a pool-wide invalidation."""
        epoch = self.db.bee_module.query_epoch
        if self._epoch == epoch:
            return
        if self._epoch is not None:
            for i, worker in enumerate(self._workers):
                self._send(worker, ("invalidate",))
                self._shipped[i].clear()
            self.stats.record_epoch_invalidation()
        self._epoch = epoch

    def _ship_snapshot(self, i, relation, token, pages, sections, layout):
        if self._shipped[i].get(relation) == token:
            return
        self._send(
            self._workers[i],
            ("snapshot", relation, token, pages, sections, layout),
        )
        self._shipped[i][relation] = token
        self.db.ledger.charge_fn(
            "parallel_snapshot", C.PAR_SNAPSHOT_PER_PAGE * len(pages)
        )
        self.stats.record_snapshot_ship()

    def _prepare(self, spec, tier: str, table) -> int:
        self._stmt_seq += 1
        stmt_id = self._stmt_seq
        spec_bytes = pickle.dumps(spec)
        charge_fn = self.db.ledger.charge_fn
        for worker in self._workers:
            self._send(worker, ("prepare", stmt_id, spec_bytes, tier, table))
            charge_fn("parallel_prepare", C.PAR_PREPARE)
        for worker in self._workers:
            reply = self._recv(worker)
            if reply[0] == "error":
                self._fail("exception", f"prepare failed: {reply[1]}")
            if reply[0] != "ready" or reply[1] != stmt_id:
                self._fail("protocol", f"unexpected prepare reply {reply[:2]!r}")
        return stmt_id

    def _dispatch(self, stmt_id, spec, token, n_pages, pages, sections, layout):
        ranges = _morsel_ranges(n_pages, len(self._workers))
        self.stats.record_morsels(len(ranges))
        ledger = self.db.ledger
        ledger.charge_fn("parallel_dispatch", C.PAR_DISPATCH * len(ranges))
        workers = self._workers
        results: list = [None] * len(ranges)
        # Per-worker accumulated deltas: [total, seq, rand, hit].
        worker_cost = [[0, 0, 0, 0] for _ in workers]
        by_conn = {worker.conn: i for i, worker in enumerate(workers)}
        next_morsel = 0
        outstanding = 0
        for i in range(len(workers)):
            if self._send_morsel(i, stmt_id, spec.relation, token, ranges,
                                 next_morsel):
                next_morsel += 1
                outstanding += 1
        if self._chaos_kill_next:
            # Chaos site "parallel-worker-loss": lose a worker with its
            # morsel in flight; the wait loop below must observe the
            # EOF and degrade rather than hang or mis-merge.
            self._chaos_kill_next = False
            workers[0].proc.kill()
        deadline = getattr(self.db, "_deadline", None)
        last_progress = perf_counter()
        while outstanding:
            if deadline is not None and perf_counter() >= deadline:
                from repro.resilience.errors import QueryTimeout

                self.shutdown()
                raise QueryTimeout("statement timeout exceeded")
            ready = mpc.wait([w.conn for w in workers], timeout=1.0)
            if not ready:
                if any(not w.proc.is_alive() for w in workers):
                    self._crash()
                if perf_counter() - last_progress > _STALL_TIMEOUT_S:
                    self._fail("stall", "no worker progress")
                continue
            last_progress = perf_counter()
            for conn in ready:
                worker_idx = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._crash()
                tag = message[0]
                if tag == "error":
                    self._fail("exception", str(message[1]))
                if message[1] != stmt_id:
                    continue   # residue from an abandoned statement
                if tag == "stale":
                    # The worker's snapshot predates the task token:
                    # re-ship the current snapshot and resend the morsel.
                    morsel_idx = message[2]
                    self.stats.record_stale_retry()
                    self.db.resilience.record_event(
                        "parallel_stale_retry",
                        relation=spec.relation,
                        morsel=morsel_idx,
                    )
                    self._shipped[worker_idx].pop(spec.relation, None)
                    self._ship_snapshot(
                        worker_idx, spec.relation, token, pages, sections,
                        layout,
                    )
                    lo, hi = ranges[morsel_idx]
                    self._send(
                        workers[worker_idx],
                        ("task", stmt_id, morsel_idx, spec.relation, token,
                         lo, hi),
                    )
                    continue
                if tag != "result":
                    self._fail("protocol", f"unexpected reply {tag!r}")
                _tag, _sid, morsel_idx, payload, delta = message
                results[morsel_idx] = payload
                for j in range(4):
                    worker_cost[worker_idx][j] += delta[j]
                outstanding -= 1
                if self._send_morsel(worker_idx, stmt_id, spec.relation,
                                     token, ranges, next_morsel):
                    next_morsel += 1
                    outstanding += 1
        self._charge_makespan(worker_cost)
        return self._merge(spec, results)

    def _send_morsel(self, worker_idx, stmt_id, relation, token, ranges,
                     idx) -> bool:
        """Send morsel *idx* to a worker; False once the list is drained."""
        if idx >= len(ranges):
            return False
        lo, hi = ranges[idx]
        self._send(
            self._workers[worker_idx],
            ("task", stmt_id, idx, relation, token, lo, hi),
        )
        return True

    def _charge_makespan(self, worker_cost) -> None:
        """Price the statement as its slowest worker's ledger delta."""
        ledger = self.db.ledger
        worst = max(worker_cost, key=lambda cost: cost[0])
        total, seq, rand, hit = worst
        ledger.charge_fn("parallel_makespan", total)
        for _ in range(seq):
            ledger.read_page(sequential=True)
        for _ in range(rand):
            ledger.read_page(sequential=False)
        for _ in range(hit):
            ledger.hit_page()

    def _merge(self, spec, results):
        """Gather morsel payloads in morsel order (= heap page order)."""
        ledger = self.db.ledger
        if spec.sink == "agg":
            groups: dict = {}
            n_partial = 0
            for partial in results:
                n_partial += len(partial)
                for group_key, states in partial:
                    have = groups.get(group_key)
                    if have is None:
                        groups[group_key] = states
                    else:
                        for state, other in zip(have, states):
                            state.merge(other)
            ledger.charge_fn(
                "parallel_merge", C.PAR_MERGE_PER_GROUP * n_partial
            )
            return groups
        rows: list = []
        for payload in results:
            rows.extend(payload)
        ledger.charge_fn("parallel_merge", C.PAR_MERGE_PER_ROW * len(rows))
        return rows

    # -- plumbing ----------------------------------------------------------

    def _send(self, worker: _Worker, message) -> None:
        try:
            worker.conn.send(message)
        except (OSError, ValueError):
            self._crash()

    def _recv(self, worker: _Worker):
        if not worker.conn.poll(_STALL_TIMEOUT_S):
            self._fail("stall", "worker unresponsive")
        try:
            return worker.conn.recv()
        except (EOFError, OSError):
            self._crash()

    def _crash(self):
        """A worker died mid-statement: record, reset the pool, degrade."""
        self.stats.record_worker_crash()
        self.db.resilience.record_event(
            "parallel_worker_lost", workers=len(self._workers)
        )
        self._fail("worker-lost", "parallel worker process died")

    def _fail(self, kind: str, detail: str):
        self.shutdown()
        raise ParallelError(kind, detail)


__all__ = [
    "MIN_PARALLEL_PAGES",
    "MORSEL_PAGES",
    "MORSELS_PER_WORKER",
    "ParallelCoordinator",
    "ParallelError",
    "ParallelStats",
]
