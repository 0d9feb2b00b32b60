"""The declared shared-state registry: the engine's mutable surface.

Every attribute/global/container write the shared-state pass finds on a
path reachable from ``Database.sql`` must match exactly one entry here
(or be provably statement-local).  An entry names the *guard* a future
morsel-parallel tier must take before touching the state and the
*epoch* whose bump invalidates anything derived from it — so the
registry is not documentation, it is the machine-checked contract the
parallel PR consumes: partition the entries by guard, and every write
outside the registry is a build failure, not a data race.

Scopes:

* ``shared-mutable`` — outlives a statement and is visible to every
  statement on the session (and, later, to every worker).  Must name a
  guard and an epoch.
* ``statement-local`` — owned by one statement execution (plan nodes,
  exec contexts, DML row buffers); reachable code writes it, but a new
  statement always starts from fresh objects, so workers never contend.
"""

from __future__ import annotations

from dataclasses import dataclass

SHARED = "shared-mutable"
LOCAL = "statement-local"


@dataclass(frozen=True)
class SharedState:
    """One declared mutable location: ``cls.attr`` (cls ``"*"`` matches
    writes whose receiver class static analysis cannot pin)."""

    cls: str
    attr: str
    scope: str          # SHARED | LOCAL
    guard: str = ""     # lock a morsel worker must hold (SHARED only)
    epoch: str = ""     # version whose bump invalidates derived state
    note: str = ""

    @property
    def key(self) -> str:
        return f"{self.cls}.{self.attr}"


def _shared(cls, attr, guard, epoch, note=""):
    return SharedState(cls, attr, SHARED, guard, epoch, note)


def _local(cls, attr, note=""):
    return SharedState(cls, attr, LOCAL, note=note)


#: The closed registry.  Ordering groups entries by subsystem.
REGISTRY: tuple[SharedState, ...] = (
    # -- cost ledger: every charge is a counter bump -------------------------
    _shared("Ledger", "total", "ledger_lock", "-",
            "monotonic instruction counter; per-worker ledgers merge"),
    _shared("Ledger", "by_function", "ledger_lock", "-",
            "per-function counter dict"),
    _shared("Ledger", "profiling", "ledger_lock", "-",
            "profiling on/off flag"),
    _shared("Ledger", "seq_pages_read", "ledger_lock", "-"),
    _shared("Ledger", "rand_pages_read", "ledger_lock", "-"),
    _shared("Ledger", "pages_hit", "ledger_lock", "-"),

    # -- buffer pool ---------------------------------------------------------
    _shared("BufferPool", "_resident", "buffer_lock", "HeapFile.version",
            "page residency set; morsel workers shard or replicate it"),

    # -- chunk cache (vector tier) ------------------------------------------
    _shared("ChunkCache", "_entries", "chunk_lock", "HeapFile.version",
            "uid -> entry (version, layout, frozen Chunk, the page "
            "versions and per-page slot counts it was built at; the "
            "chunk's sorted tids are its row -> page -> slot map); a "
            "refresh masks dead rows and appends the tuples born since "
            "into a *new* entry under the lock (and the reader's "
            "relation latch), arrays are read-only after insertion "
            "(escape pass)"),
    _shared("ChunkCache", "hits", "chunk_lock", "-"),
    _shared("ChunkCache", "misses", "chunk_lock", "-"),
    _shared("ChunkCache", "pages_decoded", "chunk_lock", "-"),
    _shared("ChunkCache", "pages_reused", "chunk_lock", "-"),
    _shared("ChunkCache", "tuples_decoded", "chunk_lock", "-"),
    _shared("ChunkCache", "rows_reused", "chunk_lock", "-"),

    # -- bee module memo caches ---------------------------------------------
    _shared("GenericBeeModule", "_evp_by_expr", "hive_lock",
            "GenericBeeModule.query_epoch"),
    _shared("GenericBeeModule", "_evj_by_shape", "hive_lock",
            "GenericBeeModule.query_epoch"),
    _shared("GenericBeeModule", "_agg_by_specs", "hive_lock",
            "GenericBeeModule.query_epoch"),
    _shared("GenericBeeModule", "_agg_counter", "hive_lock", "-",
            "name counter for generated AGG routines"),
    _shared("GenericBeeModule", "_idx_by_index", "hive_lock",
            "GenericBeeModule.query_epoch"),
    _shared("GenericBeeModule", "_fused_by_node", "hive_lock",
            "GenericBeeModule.query_epoch",
            "fused-driver routines of every tier; bounded, oldest-first"),
    _shared("*", "memo", "hive_lock", "GenericBeeModule.query_epoch",
            "parameter view of the EVP/AGG/fused memos above inside the "
            "one bounded-insert helper (_remember); same lock as the "
            "memo it was handed"),
    _shared("CodeCache", "_code", "hive_lock", "-",
            "proto-bee code objects keyed by generated source text; the "
            "key is the artifact, so no epoch invalidates it; bounded, "
            "oldest-first"),
    _shared("CodeCache", "compiles", "hive_lock", "-"),
    _shared("CodeCache", "hits", "hive_lock", "-"),
    _shared("GenericBeeModule", "query_epoch", "hive_lock", "-",
            "the invalidation epoch itself"),
    _shared("*", "executed", "hive_lock", "-",
            "GenericBeeModule.executed: per-tier count of fused drivers "
            "that ran their routine (the scanner cannot pin the class "
            "behind ``ctx.bees``)"),
    _shared("GenericBeeModule", "statement_hits", "hive_lock", "-",
            "statement front door outcomes (db.stats()['statements'])"),
    _shared("GenericBeeModule", "statement_misses", "hive_lock", "-"),
    _shared("GenericBeeModule", "statement_declined", "hive_lock", "-"),

    # -- resilience registry -------------------------------------------------
    _shared("ResilienceRegistry", "_health", "resilience_lock", "-",
            "bee name -> quarantine state machine"),
    _shared("ResilienceRegistry", "_events", "resilience_lock", "-"),
    _shared("ResilienceRegistry", "_counts", "resilience_lock", "-"),

    # -- the statement front door --------------------------------------------
    _local("Statement", "stmt",
           "one Statement per db.sql()/server statement; parsed lazily"),
    _local("Statement", "key",
           "cleared when parsing finds a subquery (declined)"),

    # -- session/database fields --------------------------------------------
    _shared("Database", "settings", "session", "-",
            "per-statement settings swap (use_settings); sessions get "
            "their own settings view under the server"),
    _shared("Database", "_deadline", "session", "-",
            "per-statement timeout deadline"),

    _shared("Database", "_relations", "catalog_lock", "HeapFile.version",
            "name -> Relation runtime mirror of the catalog; mutated by "
            "DDL via catalog listeners"),

    # -- catalog -------------------------------------------------------------
    _shared("Catalog", "_relations", "catalog_lock", "HeapFile.version",
            "relation name -> Relation; DDL only"),
    _shared("Catalog", "_relids", "catalog_lock", "-"),
    _shared("Catalog", "_next_relid", "catalog_lock", "-"),
    _shared("AnnotationSet", "_by_relation", "catalog_lock", "-",
            "relation -> value-distribution annotations (ANALYZE)"),

    # -- relations and their storage ----------------------------------------
    _shared("Relation", "heap", "relation_lock", "HeapFile.version",
            "heap swap on VACUUM"),
    _shared("Relation", "indexes", "relation_lock", "HeapFile.version",
            "index rebuild on VACUUM / CREATE INDEX"),
    _shared("Relation", "bee", "relation_lock", "-",
            "relation bee slot; replaced on ALTER"),
    _shared("Relation", "_index_keys", "relation_lock", "-",
            "index name -> key attnums; CREATE INDEX only"),
    _shared("Relation", "_idx_routines", "relation_lock", "-",
            "index name -> IDX extractor routine; CREATE INDEX only"),
    _shared("HeapFile", "pages", "relation_lock", "HeapFile.version",
            "page list append/extend under DML"),
    _shared("HeapFile", "live_count", "relation_lock", "-"),
    _shared("HeapFile", "version", "relation_lock", "-",
            "the storage invalidation epoch itself"),
    _shared("HeapFile", "page_versions", "relation_lock",
            "HeapFile.version",
            "per-page mutation counters, bumped with version under the "
            "relation write latch; the chunk cache patches by them"),
    _shared("HeapPage", "data", "relation_lock", "HeapFile.version",
            "slotted-page byte mutation under DML"),
    _shared("HeapPage", "upper", "relation_lock", "HeapFile.version"),
    _shared("HeapPage", "lower", "relation_lock", "HeapFile.version"),
    _shared("HeapPage", "nslots", "relation_lock", "HeapFile.version"),
    _shared("BTreeIndex", "_keys", "relation_lock", "HeapFile.version"),
    _shared("BTreeIndex", "_tids", "relation_lock", "HeapFile.version"),
    _shared("BTreeIndex", "_seq", "relation_lock", "HeapFile.version"),
    _shared("HashIndex", "_buckets", "relation_lock", "HeapFile.version"),

    # -- bee lifecycle -------------------------------------------------------
    _shared("BeeCache", "relation_bees", "hive_lock",
            "GenericBeeModule.query_epoch",
            "relation -> installed GCL/SCL routines"),
    _shared("BeeCache", "query_bees", "hive_lock",
            "GenericBeeModule.query_epoch",
            "statement shape key -> QueryBee.  A statement takes its "
            "shape's bee out with one atomic dict.pop (check-out), owns "
            "it while it runs, and stores it back (check-in); the "
            "server does both inside Statement.run, under the "
            "statement's latches, so no DDL — which clears the dict "
            "(ALTER) or deletes the relation's entries (DROP) under the "
            "exclusive catalog latch — runs in between.  Statements of "
            "other sessions do: every step is one atomic dict "
            "operation, and eviction (the budget trim, the check-in "
            "replacing a twin) pops with a default, so a bee another "
            "session already took or evicted is skipped, not an error"),
    _shared("QueryBee", "key", "check-out",
            "GenericBeeModule.query_epoch",
            "set once, by the statement that built the bee, before it "
            "is first published"),
    _shared("*", "stacked", "check-out",
            "GenericBeeModule.query_epoch",
            "PlanNode.stacked on the root of a new query bee's plan; "
            "as for key.  What a later statement of the shape mutates "
            "is the plan's constants (QueryBee.bind) and, when their "
            "routines are next acquired, those routines' _K{n} holes "
            "(BeeRoutine.repatch): both only between its check-out and "
            "its check-in, on a plan no other statement can reach"),
    _shared("BeeRoutine", "namespace", "check-out",
            "GenericBeeModule.query_epoch",
            "repatch re-reads a memoized routine's literal holes from "
            "the plan constants its owner just re-bound"),
    _shared("BeeCollector", "collected_relation_bees", "hive_lock", "-",
            "uninstalled-routine graveyard (HSR reuse)"),
    _shared("BeeCollector", "collected_query_bees", "hive_lock", "-"),
    _shared("BeeMaker", "_evp_counter", "hive_lock", "-"),
    _shared("BeeMaker", "_evj_counter", "hive_lock", "-"),
    _shared("BeeMaker", "_fused_counter", "hive_lock", "-",
            "tier prefix -> fused routines named so far"),
    _shared("DataSectionStore", "_slabs", "hive_lock", "-",
            "data-section slab allocator"),
    _shared("*", "slab", "hive_lock", "-",
            "element view of DataSectionStore._slabs (from _slab_slot); "
            "same lock as the slab list itself"),
    _shared("DataSectionStore", "_by_key", "hive_lock", "-"),
    _shared("DataSectionStore", "_shadow", "hive_lock", "-"),
    _shared("DataSectionStore", "count", "hive_lock", "-"),
    _shared("DataSectionStore", "overflowed", "hive_lock", "-"),
    _shared("BeeHealth", "quarantined", "resilience_lock", "-"),
    _shared("BeeHealth", "probing", "resilience_lock", "-"),
    _shared("BeeHealth", "quarantines", "resilience_lock", "-"),
    _shared("BeeHealth", "window", "resilience_lock", "-"),
    _shared("BeeHealth", "denied", "resilience_lock", "-"),
    _shared("BeeHealth", "consecutive", "resilience_lock", "-"),

    # -- parallel tier: morsel coordinator + worker pool ---------------------
    # The coordinator lives on the session side of the worker pipes; only
    # the session thread running ``db.sql`` touches it today, but every
    # entry names the guard a multi-session server must take.  Worker-side
    # state (``_WorkerState``) is forked-process private: nothing aliases
    # coordinator memory, replies travel by pickle.
    _shared("Database", "_parallel", "session", "-",
            "lazily constructed morsel coordinator handle; close() joins"),
    _shared("ParallelCoordinator", "_workers", "parallel_lock", "-",
            "persistent worker pool; replaced wholesale on crash/shutdown"),
    _shared("ParallelCoordinator", "_shipped", "parallel_lock",
            "HeapFile.version",
            "per-worker relation -> (uid, version) snapshot tokens; a "
            "version bump forces a re-ship"),
    _shared("ParallelCoordinator", "_epoch", "parallel_lock",
            "GenericBeeModule.query_epoch",
            "last query epoch broadcast to the pool; a bump invalidates "
            "every worker-side bee/snapshot cache"),
    _shared("ParallelCoordinator", "_stmt_seq", "parallel_lock", "-",
            "monotonic statement id for the prepare/task protocol"),
    _shared("ParallelCoordinator", "_chaos_kill_next", "parallel_lock", "-",
            "one-shot chaos hook: kill a worker mid-morsel"),
    _shared("ParallelCoordinator", "_chaos_stale_next", "parallel_lock", "-",
            "one-shot chaos hook: force a stale-epoch retry"),
    _shared("ParallelStats", "workers_spawned", "parallel_lock", "-"),
    _shared("ParallelStats", "statements", "parallel_lock", "-"),
    _shared("ParallelStats", "morsels_dispatched", "parallel_lock", "-"),
    _shared("ParallelStats", "epoch_invalidations", "parallel_lock", "-"),
    _shared("ParallelStats", "snapshot_ships", "parallel_lock", "-"),
    _shared("ParallelStats", "stale_retries", "parallel_lock", "-"),
    _shared("ParallelStats", "worker_crashes", "parallel_lock", "-"),
    _shared("ParallelStats", "degradations", "parallel_lock", "-"),
    _shared("ParallelStats", "bypassed", "parallel_lock", "-"),

    # -- server: sessions, admission, schedule, data WAL ---------------------
    # The Hive Gate server (PR 10) is what finally *takes* the guards
    # declared above: ``repro.server.locks.HiveLocks`` materializes every
    # guard name into a live lock, and the ``locks`` pass certifies the
    # resolution in both directions.  ``session`` remains the
    # session-confinement pseudo-guard; ``latch-internal`` marks fields
    # mutated under the latch's own condition-variable lock.
    _shared("Database", "_server", "session", "-",
            "attached HiveServer handle; wired at server construction, "
            "cleared by close() — only the owning thread does either"),
    _shared("Session", "closed", "server_lock", "-",
            "set by HiveServer._close_session under server_lock"),
    _shared("Session", "statements", "session", "-",
            "per-session statement count; a session is used by one "
            "thread at a time"),
    _shared("Session", "_last_versions", "session", "-",
            "relation -> (heap uid, version) snapshot-monotonicity pins"),
    _shared("HiveServer", "_seq", "server_lock", "-",
            "global statement sequence, assigned after latch grant"),
    _shared("HiveServer", "_waiting", "server_lock", "-"),
    _shared("HiveServer", "_executing", "server_lock", "-"),
    _shared("HiveServer", "_closed", "server_lock", "-"),
    _shared("HiveServer", "_durable", "server_lock", "-",
            "flips to False when a group fsync fails (degraded mode)"),
    _shared("HiveServer", "_sessions", "server_lock", "-"),
    _shared("HiveServer", "_next_session_id", "server_lock", "-"),
    _shared("HiveServer", "schedule", "server_lock", "-",
            "ScheduleEntry list the serialized oracle replays"),
    _shared("ServerStats", "sessions_opened", "server_lock", "-"),
    _shared("ServerStats", "sessions_closed", "server_lock", "-"),
    _shared("ServerStats", "statements", "server_lock", "-"),
    _shared("ServerStats", "reads", "server_lock", "-"),
    _shared("ServerStats", "writes", "server_lock", "-"),
    _shared("ServerStats", "ddl", "server_lock", "-"),
    _shared("ServerStats", "errors", "server_lock", "-"),
    _shared("ServerStats", "timeouts", "server_lock", "-"),
    _shared("ServerStats", "lock_timeouts", "server_lock", "-"),
    _shared("ServerStats", "snapshot_violations", "server_lock", "-"),
    _shared("ServerStats", "refused", "server_lock", "-"),
    _shared("ServerStats", "sheds", "server_lock", "-"),
    _shared("ServerStats", "disconnects", "server_lock", "-"),
    _shared("ServerStats", "wal_failures", "server_lock", "-"),
    _shared("ServerStats", "queue_high_water", "server_lock", "-"),
    _shared("GroupCommitter", "_pending", "wal_lock", "-",
            "the forming group; wal_lock backs the condition variable"),
    _shared("GroupCommitter", "_ticket", "wal_lock", "-"),
    _shared("GroupCommitter", "_flushed", "wal_lock", "-",
            "highest ticket whose group flush was attempted"),
    _shared("GroupCommitter", "_flushed_ok", "wal_lock", "-",
            "highest ticket actually durable on disk"),
    _shared("GroupCommitter", "_leader", "wal_lock", "-"),
    _shared("GroupCommitter", "_broken", "wal_lock", "-",
            "poison: the exception that ended durability"),
    _shared("GroupCommitter", "batches", "wal_lock", "-"),
    _shared("GroupCommitter", "records_logged", "wal_lock", "-"),
    _shared("GroupCommitter", "max_batch", "wal_lock", "-"),
    _shared("DataWAL", "_chaos_fsync_fail", "group-leader", "-",
            "one-shot chaos hook: fail the next N fsyncs; armed before "
            "the run, consumed inside the leader's flush"),
    _shared("DataWAL", "fsyncs", "group-leader", "-",
            "bumped inside the leader's flush, which runs the file "
            "write outside wal_lock — leadership is the exclusion"),
    _shared("RWLatch", "_readers", "latch-internal", "-"),
    _shared("RWLatch", "_writer", "latch-internal", "-"),
    _shared("RWLatch", "_writers_waiting", "latch-internal", "-"),
    _shared("RelationLatches", "_latches", "latch-internal", "-",
            "name -> RWLatch, populated under the manager's own guard"),

    _shared("*", "epoch", "hive_lock", "GenericBeeModule.query_epoch",
            "query-epoch stamp written onto routines at memo time"),
)


_BY_KEY = {entry.key: entry for entry in REGISTRY}


def lookup(cls: str | None, attr: str) -> SharedState | None:
    """The registry entry for a write to ``cls.attr``, else None.

    Falls back to a ``"*"`` wildcard entry for *attr* when the receiver
    class is unknown (or has no exact entry) — acceptable because every
    write still has to match *some* declared entry.
    """
    if cls:
        entry = _BY_KEY.get(f"{cls}.{attr}")
        if entry is not None:
            return entry
    return _BY_KEY.get(f"*.{attr}")
