"""The Database: catalog + storage + executor + generic bee module.

This is the session object users interact with.  Two databases configured
with different :class:`repro.bees.BeeSettings` — ``stock()`` vs
``all_bees()`` — are the reproduction's "stock PostgreSQL" and "bee-enabled
PostgreSQL"; every experiment loads the same data into both and compares
ledger deltas.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.bees.emit import decode_row
from repro.bees.maker import RelationBee
from repro.bees.module import GenericBeeModule
from repro.bees.settings import BeeSettings
from repro.bees.vector.chunks import ChunkCache, reference_column_sink
from repro.catalog import Catalog, RelationSchema
from repro.cost import Ledger, TimeModel
from repro.cost.ledger import LedgerSnapshot
from repro.engine import dml
from repro.engine.deform import GenericDeformer, GenericFiller
from repro.engine.executor import execute as _execute
from repro.engine.nodes import PlanNode
from repro.resilience.guard import BeeGuard
from repro.resilience.registry import ResilienceRegistry
from repro.server.locks import HiveLocks
from repro.storage import BufferPool, HeapFile, TupleLayout, build_index
from repro.storage.buffer import DEFAULT_CAPACITY_PAGES


class Relation:
    """Runtime state of one relation: layout, heap, indexes, bee."""

    def __init__(
        self,
        schema: RelationSchema,
        layout: TupleLayout,
        heap: HeapFile,
        generic_deformer: GenericDeformer,
        generic_filler: GenericFiller,
        bee: RelationBee | None,
    ) -> None:
        self.schema = schema
        self.layout = layout
        self.heap = heap
        self.generic_deformer = generic_deformer
        self.generic_filler = generic_filler
        self.reference_sink = reference_column_sink(layout)
        #: Admission of the page decoder behind the vector tier's chunks
        #: (``column_sink() -> sink(raws, sections, cols, nulls)``); the
        #: owning Database rewires it to consult its settings and shield.
        self.column_sink: Callable[[], Callable] = lambda: self.reference_sink
        self.bee = bee
        self.indexes: dict[str, object] = {}
        self._index_keys: dict[str, list[int]] = {}
        self._idx_routines: dict[str, object] = {}

    def sections_list(self) -> list[tuple]:
        """Tuple-bee data sections, beeID-indexed (empty if none)."""
        if self.bee is None or self.bee.data_sections is None:
            return []
        return self.bee.data_sections.as_list()

    def add_index(self, index, key_columns: Sequence[str]) -> None:
        self.indexes[index.name] = index
        self._index_keys[index.name] = [
            self.schema.attnum(col) for col in key_columns
        ]

    def set_idx_routine(self, index_name: str, extractor) -> None:
        """Install an IDX key extractor for one index (future-work flag).

        *extractor* is a plain ``values -> key tuple`` callable: the IDX
        bee routine's ``fn``, or its beeshield-guarded wrapper.
        """
        self._idx_routines[index_name] = extractor

    def _extract_key(self, name: str, values: list) -> tuple:
        """Key extraction for one index: IDX bee routine or generic loop."""
        routine = self._idx_routines.get(name)
        if routine is not None:
            return routine(values)   # charges its own specialized cost
        from repro.bees.routines.idx import generic_idx_cost

        key_idx = self._index_keys[name]
        self.heap.ledger.charge_fn(
            "index_key_extract", generic_idx_cost(len(key_idx))
        )
        return tuple(values[i] for i in key_idx)

    def index_insert(self, values: list, tid) -> None:
        from repro.cost import constants as _C

        for name, index in self.indexes.items():
            self.heap.ledger.charge(_C.INDEX_MAINTAIN)
            index.insert(self._extract_key(name, values), tid)

    def index_delete(self, values: list, tid) -> None:
        from repro.cost import constants as _C

        for name, index in self.indexes.items():
            self.heap.ledger.charge(_C.INDEX_MAINTAIN)
            index.delete(self._extract_key(name, values), tid)


@dataclass
class MeasuredRun:
    """Result of :meth:`Database.measure`: outcome plus priced costs."""

    result: object
    instructions: int
    seq_pages_read: int
    rand_pages_read: int
    cpu_seconds: float
    io_seconds: float

    @property
    def seconds(self) -> float:
        """Total simulated run time."""
        return self.cpu_seconds + self.io_seconds


class Database:
    """A single-session, bee-enabled (or stock) relational database."""

    def __init__(
        self,
        settings: BeeSettings | None = None,
        bee_cache_dir: str | Path | None = None,
        buffer_capacity_pages: int = DEFAULT_CAPACITY_PAGES,
        parallel_workers: int = 2,
    ) -> None:
        self.settings = settings or BeeSettings.stock()
        self.ledger = Ledger()
        self.catalog = Catalog()
        # Materialized guard registry (swarmcheck's lock plan made real);
        # single-session use never contends, the server shares these.
        self.locks = HiveLocks()
        self.buffer_pool = BufferPool(
            self.ledger, buffer_capacity_pages,
            lock=self.locks.buffer_lock,
        )
        self.resilience = ResilienceRegistry()
        self.shield = BeeGuard(self.resilience, self.ledger)
        self.bee_module = GenericBeeModule(
            self.ledger, self.settings, bee_cache_dir,
            registry=self.resilience,
        )
        self.time_model = TimeModel()
        # Columnar chunk cache for the vector tier (validated against
        # heap versions, so it is safe to hold even when vectors are off).
        self.chunk_cache = ChunkCache(lock=self.locks.chunk_lock)
        # Morsel-parallel tier: the worker-pool coordinator is created
        # lazily on first parallel statement (spawning processes is not
        # free, and most sessions never enable the tier).
        self.parallel_workers = parallel_workers
        self._parallel = None
        # The attached HiveServer, if any (set by HiveServer.__init__;
        # feeds the ``server`` section of stats()).
        self._server = None
        self._relations: dict[str, Relation] = {}
        self._deadline: float | None = None
        self.catalog.on("drop", self._on_drop)
        self.catalog.on("alter", self._on_alter)

    # -- DDL --------------------------------------------------------------------

    def create_table(
        self, schema: RelationSchema, annotate: Sequence[str] = ()
    ) -> Relation:
        """Create a relation; *annotate* names low-cardinality attributes.

        Annotations are recorded regardless of settings (they are schema
        metadata); they only change the physical layout when tuple bees
        are enabled.
        """
        self.catalog.create_relation(schema)
        if annotate:
            self.catalog.annotations.annotate(schema.name, *annotate)
        bee_attrs: tuple[str, ...] = ()
        if self.settings.tuple_bees and annotate:
            bee_attrs = tuple(annotate)
        layout = TupleLayout(schema, bee_attrs)
        heap = HeapFile(schema.name, self.ledger, self.buffer_pool)
        bee = None
        if self.settings.gcl or self.settings.scl or bee_attrs:
            bee = self.bee_module.create_relation_bee(layout)
        relation = self._new_relation(schema, layout, heap, bee)
        self._relations[schema.name] = relation
        return relation

    def _new_relation(self, schema, layout, heap, bee) -> Relation:
        relation = Relation(
            schema,
            layout,
            heap,
            GenericDeformer(layout, self.ledger),
            GenericFiller(layout, self.ledger),
            bee,
        )
        relation.column_sink = partial(self._admit_column_sink, relation)
        return relation

    def _admit_column_sink(self, rel: Relation) -> Callable:
        """Deform admission for a chunk decode of *rel* — the column
        twin of :func:`repro.engine.nodes.admit_deform`: the relation
        bee's GCL column sink while ``settings.gcl`` is on (under
        beeshield, guarded per page and only while not quarantined),
        the reference decoder otherwise."""
        settings = self.settings
        if not (settings.gcl and rel.bee is not None):
            return rel.reference_sink
        if settings.shield:
            return self.shield.column_sink(
                rel.bee.gcl_cols, rel.reference_sink
            )
        return rel.bee.gcl_cols.fn

    def create_index(
        self,
        relation: str,
        name: str,
        columns: Sequence[str],
        kind: str = "hash",
        unique: bool = False,
    ) -> None:
        """Create a hash or btree index and backfill it from the heap."""
        rel = self.relation(relation)
        index = build_index(kind, name, relation, columns, unique=unique)
        rel.add_index(index, columns)
        if getattr(self.settings, "idx", False):
            key_idx = [rel.schema.attnum(col) for col in columns]
            if getattr(self.settings, "shield", True):
                extractor = self._guarded_idx_extractor(
                    relation, name, key_idx
                )
                if extractor is not None:
                    rel.set_idx_routine(name, extractor)
            else:
                rel.set_idx_routine(
                    name, self.bee_module.get_idx(relation, name, key_idx).fn
                )
        sections = rel.sections_list()
        key_idx = [rel.schema.attnum(col) for col in columns]
        for tid, raw in rel.heap.scan():
            values = decode_row(rel.layout, raw, sections)
            index.insert(tuple(values[i] for i in key_idx), tid)

    def _guarded_idx_extractor(self, relation, name, key_idx):
        """Beeshield wrapper for one index's IDX routine; None when the
        generator faults (the relation then uses the generic loop)."""
        try:
            routine = self.bee_module.get_idx(relation, name, key_idx)
        except Exception as exc:  # noqa: BLE001 — the guard is the handler
            from repro.resilience.errors import is_verification_refusal

            if is_verification_refusal(exc):
                raise
            self.resilience.record_failure(
                f"IDX_{relation}_{name}", site="idx", kind="generate", error=exc
            )
            return None

        def make_generic():
            from repro.bees.routines.idx import generic_idx_cost

            cost = generic_idx_cost(len(key_idx))
            ledger = self.ledger
            indexes = list(key_idx)

            def generic_extract(values):
                ledger.charge_fn("index_key_extract", cost)
                return tuple(values[i] for i in indexes)

            return generic_extract

        return self.shield.idx(routine, key_idx, make_generic)

    def drop_table(self, name: str) -> None:
        """Drop a relation: catalog, storage, buffer pages, and its bees."""
        self.catalog.drop_relation(name)

    def _on_drop(self, name: str, _schema) -> None:
        self._relations.pop(name, None)
        self.buffer_pool.invalidate_relation(name)
        self.bee_module.drop_relation_bee(name)

    def _on_alter(self, name: str, _schema) -> None:
        """Bee reconstruction on ALTER: the relation bee is regenerated
        for the relation's current layout, and every query bee is evicted
        — plans bind column positions and constants against the old
        schema, so their routines (and IDX routines) may be stale."""
        rel = self._relations.get(name)
        if rel is not None and rel.bee is not None:
            rel.bee = self.bee_module.reconstruct_relation_bee(rel.layout)
        self.bee_module.invalidate_query_bees()

    def reannotate(self, name: str, annotate: Sequence[str]) -> Relation:
        """Change a relation's annotations and rebuild its storage.

        This is the bee-reconstruction path: the relation bee is
        regenerated for the new layout and every tuple is re-encoded.
        """
        rel = self.relation(name)
        rows = self.read_all(name)
        schema = rel.schema
        self.catalog.annotations.clear(name)
        if annotate:
            self.catalog.annotations.annotate(name, *annotate)
        bee_attrs = tuple(annotate) if self.settings.tuple_bees else ()
        layout = TupleLayout(schema, bee_attrs)
        heap = HeapFile(name, self.ledger, self.buffer_pool)
        self.buffer_pool.invalidate_relation(name)
        bee = None
        if self.settings.gcl or self.settings.scl or bee_attrs:
            bee = self.bee_module.reconstruct_relation_bee(layout)
        new_rel = self._new_relation(schema, layout, heap, bee)
        index_specs = [
            (index.name, index.key_columns, index.kind, index.unique)
            for index in rel.indexes.values()
        ]
        self._relations[name] = new_rel
        self.copy_from(name, rows)
        for idx_name, key_columns, kind, unique in index_specs:
            self.create_index(name, idx_name, key_columns, kind, unique)
        self.catalog.alter_relation(schema)
        return new_rel

    # -- DML --------------------------------------------------------------------

    def insert(self, relation: str, values: Sequence):
        """Insert one row; returns its TID."""
        return dml.insert_row(self, relation, values)

    def copy_from(self, relation: str, rows: Iterable[Sequence]) -> int:
        """Bulk-load rows (the COPY path); returns the row count."""
        return dml.copy_from(self, relation, rows)

    def delete_where(
        self, relation: str, predicate,
        settings: BeeSettings | None = None, timeout: float | None = None,
    ) -> int:
        """Delete the rows *predicate* accepts.

        *predicate* is a ``values -> bool`` callable, an engine
        expression over the relation's columns, or ``None`` (every row).
        Either way the match is a plan (:func:`repro.engine.dml.
        match_plan`) run through :meth:`execute` with *settings* and
        *timeout*; only an expression can use the bee tiers — a
        callable is opaque to them.
        """
        return dml.delete_rows(self, relation, predicate, settings, timeout)

    def update_where(
        self, relation: str, predicate, updater: Callable,
        settings: BeeSettings | None = None, timeout: float | None = None,
    ) -> int:
        """Update rows matching *predicate* (as for :meth:`delete_where`)
        via *updater*, a map from old values to new values."""
        return dml.update_rows(
            self, relation, predicate, updater, settings, timeout
        )

    def update_by_tid(self, relation: str, tid, new_values: Sequence):
        """Index-driven single-row update."""
        return dml.update_by_tid(self, relation, tid, new_values)

    def delete_by_tid(self, relation: str, tid) -> None:
        """Index-driven single-row delete."""
        dml.delete_by_tid(self, relation, tid)

    def vacuum(self, name: str) -> dict:
        """Compact a relation's heap: rewrite live tuples into fresh pages
        and rebuild its indexes (dead line pointers are never reclaimed
        otherwise, as in PostgreSQL without VACUUM).

        Returns ``{"pages_before", "pages_after", "tuples"}``.
        """
        from repro.cost import constants as _C

        rel = self.relation(name)
        pages_before = rel.heap.page_count
        live: list[bytes] = []
        for page in rel.heap.pages:
            for _slot, raw in page.live_tuples():
                live.append(raw)
        self.buffer_pool.invalidate_relation(name)
        fresh = HeapFile(name, self.ledger, self.buffer_pool)
        sections = rel.sections_list()
        tid_values = []
        for raw in live:
            self.ledger.charge_fn("vacuum", _C.VACUUM_PER_TUPLE)
            tid = fresh.insert(raw)
            tid_values.append((tid, decode_row(rel.layout, raw, sections)))
        rel.heap = fresh
        for index_name, index in rel.indexes.items():
            fresh_index = build_index(
                index.kind, index_name, name, index.key_columns,
                unique=index.unique,
            )
            key_idx = rel._index_keys[index_name]
            for tid, values in tid_values:
                fresh_index.insert(tuple(values[i] for i in key_idx), tid)
            rel.indexes[index_name] = fresh_index
        return {
            "pages_before": pages_before,
            "pages_after": rel.heap.page_count,
            "tuples": len(live),
        }

    # -- query ------------------------------------------------------------------

    def execute(
        self, plan: PlanNode, emit: bool = True,
        settings: BeeSettings | None = None,
        timeout: float | None = None,
    ) -> list[tuple]:
        """Run a plan and return result rows.

        *settings* overrides this database's bee settings for the one
        execution (``BeeSettings.stock()`` forces the generic code paths
        over the same physical data).  *timeout* is a wall-clock budget
        in seconds; exceeding it raises
        :class:`repro.resilience.QueryTimeout` with the ledger rolled
        back to the statement start.
        """
        from time import perf_counter

        deadline = None if timeout is None else perf_counter() + timeout
        return _execute(
            self, plan, emit=emit, settings=settings, deadline=deadline
        )

    def resolve_settings(
        self, bees: bool | BeeSettings | None
    ) -> BeeSettings:
        """Resolve a per-statement bee toggle to concrete settings.

        ``None``/``True`` keep the database's own settings; ``False``
        disables every bee routine family for the statement; an explicit
        :class:`BeeSettings` is used as given.
        """
        if bees is None or bees is True:
            return self.settings
        if bees is False:
            return BeeSettings.stock()
        return bees

    @contextmanager
    def use_settings(self, settings: BeeSettings):
        """Temporarily execute with different bee settings.

        Every code path reads ``db.settings`` at execution time (scans,
        filters, joins, the DML write path), so swapping it here toggles
        bee routines per statement without touching the physical layout —
        relation bees and tuple-bee storage created at DDL time stay as
        they are, and re-enabling simply resumes using them.
        """
        previous = self.settings
        self.settings = settings
        try:
            yield self
        finally:
            self.settings = previous

    def parallel_coordinator(self):
        """The morsel-parallel worker-pool coordinator (lazily created)."""
        if self._parallel is None:
            from repro.parallel.coordinator import ParallelCoordinator

            self._parallel = ParallelCoordinator(self, self.parallel_workers)
        return self._parallel

    def close(self) -> None:
        """Release external resources (the parallel worker pool and any
        attached server).

        Idempotent: the pool reference is taken before shutdown, so a
        second ``close()`` never touches an already-joined coordinator.
        The database stays usable afterwards (a later parallel statement
        respawns the pool).  Workers are daemons, so an unclosed
        database cannot outlive the process.
        """
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
        pool, self._parallel = self._parallel, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def sql(
        self,
        statement: str,
        bees: bool | BeeSettings | None = None,
        timeout: float | None = None,
    ):
        """Execute one SQL statement: SELECT, EXPLAIN, CREATE TABLE,
        DROP TABLE, INSERT, UPDATE, DELETE or VACUUM.

        Returns a :class:`repro.sql.SQLResult`; SELECT results are in
        ``result.rows``.  CREATE TABLE supports the paper's ``ANNOTATE``
        DDL clause for tuple-bee attributes.  A SELECT, INSERT, UPDATE
        or DELETE whose *shape* (the text but for its literals) was seen
        before under the same settings is served from that shape's
        query bee — literals lifted and bound into the cached plan, no
        parse, no planning (:mod:`repro.sql.session`;
        ``stats()["statements"]`` counts it).  ``bees=False`` runs this one
        statement through the generic code paths (see
        :meth:`resolve_settings`); results must be identical either way —
        the invariant the differential oracle checks.  An explicit
        :class:`BeeSettings` runs the statement under that point, e.g.
        ``bees=db.settings.enabling(vectors=True)`` compiles its fusable
        segments into NumPy kernels.

        *timeout* is a per-statement wall-clock budget in seconds,
        checked at batch boundaries in the executor; exceeding it raises
        :class:`repro.resilience.QueryTimeout` with the ledger rolled
        back, leaving the database usable.
        """
        from repro.sql.session import execute_sql

        settings = self.resolve_settings(bees)
        if timeout is not None:
            from time import perf_counter

            self._deadline = perf_counter() + timeout
        try:
            with self.use_settings(settings):
                return execute_sql(self, statement)
        finally:
            self._deadline = None

    def relation(self, name: str) -> Relation:
        """Runtime relation state; raises KeyError for unknown names."""
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"relation {name!r} does not exist") from None

    def read_all(self, name: str) -> list[list]:
        """All rows of a relation via the reference decoder (no charges)."""
        rel = self.relation(name)
        sections = rel.sections_list()
        return [
            decode_row(rel.layout, raw, sections)
            for page in rel.heap.pages
            for _slot, raw in page.live_tuples()
        ]

    # -- cache & measurement ------------------------------------------------------

    def warm_cache(self) -> None:
        """Make every page of every relation buffer-resident (Fig. 4 state)."""
        for name, rel in self._relations.items():
            self.buffer_pool.warm(name, rel.heap.page_count)

    def cold_cache(self) -> None:
        """Empty the buffer pool (Fig. 5 state)."""
        self.buffer_pool.clear()

    def measure(self, fn: Callable[[], object]) -> MeasuredRun:
        """Run *fn* and price its ledger delta with the time model."""
        before = self.ledger.snapshot()
        result = fn()
        delta = self.ledger.delta_since(before)
        return MeasuredRun(
            result=result,
            instructions=delta.total,
            seq_pages_read=delta.seq_pages_read,
            rand_pages_read=delta.rand_pages_read,
            cpu_seconds=self.time_model.cpu_seconds(delta),
            io_seconds=self.time_model.io_seconds(delta),
        )

    def snapshot(self) -> LedgerSnapshot:
        """Convenience pass-through to the ledger."""
        return self.ledger.snapshot()

    def stats(self) -> dict:
        """Observability roll-up: bee population, what the statement
        front door served from query bees, resilience health.

        The snapshot is deep-copied: the registries hand back their live
        dicts/lists, and a caller mutating the snapshot must never reach
        engine state through it (swarmcheck certifies the engine's
        shared-state boundary, and an aliased stats dict would puncture
        it from outside).
        """
        import copy

        from repro.parallel.coordinator import ParallelStats

        parallel = (
            self._parallel.stats if self._parallel is not None
            else ParallelStats()
        )
        server = (
            self._server.stats_snapshot() if self._server is not None
            else {}
        )
        return copy.deepcopy({
            "bees": self.bee_module.statistics(),
            "statements": self.bee_module.statement_statistics(),
            "chunks": self.chunk_cache.statistics(),
            "resilience": self.resilience.report(),
            "parallel": parallel.snapshot(),
            "server": server,
        })

    def table_names(self) -> list[str]:
        return list(self._relations)
