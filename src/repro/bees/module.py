"""The Generic Bee Module: the DBMS-independent facade of Fig. 3.

The DBMS (our :class:`repro.db.Database`) talks to bees exclusively through
this module: it requests relation bees at schema-definition time, query
bees at plan-preparation time, and tuple bees during inserts; the module
owns the maker, cache, cache manager, placement optimizer, and collector.
The paper stresses that wiring this module into PostgreSQL took only
~600 SLOC of DBMS changes — mirrored here by the thin call sites in
``repro.db`` and the executor nodes.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.bees.cache import BeeCache
from repro.bees.collector import BeeCollector
from repro.bees.maker import BeeMaker, QueryBee, RelationBee
from repro.bees.placement import BeePlacementOptimizer
from repro.bees.routines.base import BeeRoutine, CodeCache
from repro.bees.routines.evj import EVJRoutine
from repro.bees.settings import BeeSettings
from repro.engine.expr import Expr
from repro.storage.layout import TupleLayout

#: Proto-bee code-cache bound: distinct generated sources whose code
#: objects are kept.  A warm TPC-H pass holds ~100 shapes and the short
#: statement mix a dozen, so only a stream of ever-new shapes evicts.
CODE_CACHE_CAP = 512


class GenericBeeModule:
    """Creation, caching, invocation support, and GC for all bee kinds."""

    def __init__(
        self,
        ledger,
        settings: BeeSettings,
        disk_dir: str | Path | None = None,
        registry=None,
    ) -> None:
        self.ledger = ledger
        self.settings = settings
        # Compiled proto-bees, keyed by generated source text.  Per
        # module (so per Database): it dies with it, and a fresh one
        # starts cold.
        self.code_cache = CodeCache(CODE_CACHE_CAP)
        self.maker = BeeMaker(
            ledger,
            verify=settings.verify_on_generate,
            code_cache=self.code_cache,
        )
        self.cache = BeeCache()
        self.collector = BeeCollector(self.cache, disk_dir)
        self.placement = BeePlacementOptimizer()
        self.disk_dir = Path(disk_dir) if disk_dir else None
        # Beeshield integration: the resilience registry (quarantine and
        # fault accounting) shares invalidation edges with the bee
        # caches, and every query routine is stamped with the
        # invalidation epoch it was generated under, so the plan node
        # that holds it can tell it from one that outlived a DDL event
        # (:meth:`held`).
        self.registry = registry
        self.query_epoch = 0
        # The content-keyed routine maps: an EVJ template clone per join
        # shape, an IDX routine per index.  Every other query routine is
        # held by the plan node that runs it.
        self._evj_by_shape: dict[tuple[str, int], EVJRoutine] = {}
        self._idx_by_index: dict[tuple[str, str], BeeRoutine] = {}
        #: Fused drivers that ran their tier's routine (rather than
        #: draining their anchor), per tier name.
        self.executed: Counter = Counter()
        # The statement front door's outcomes (repro.sql.session).
        self.statement_hits = 0
        self.statement_misses = 0
        self.statement_declined = 0

    # -- relation bees (schema definition time) ---------------------------------

    def create_relation_bee(self, layout: TupleLayout) -> RelationBee:
        """Create and cache the relation bee for *layout*."""
        bee = self.maker.make_relation_bee(layout)
        self.cache.put_relation_bee(bee)
        return bee

    def relation_bee(self, relation: str) -> RelationBee | None:
        """The cached relation bee, or None for stock relations."""
        return self.cache.get_relation_bee(relation)

    def reconstruct_relation_bee(self, layout: TupleLayout) -> RelationBee:
        """Bee reconstruction after ALTER TABLE: regenerate from the new
        layout, preserving data sections when the annotated attributes are
        unchanged."""
        old = self.cache.get_relation_bee(layout.schema.name)
        bee = self.maker.make_relation_bee(layout)
        if (
            old is not None
            and old.data_sections is not None
            and bee.data_sections is not None
            and old.layout.bee_attrs == layout.bee_attrs
        ):
            bee.data_sections = old.data_sections
        self.cache.put_relation_bee(bee)
        if self.registry is not None:
            self.registry.clear_prefix(
                f"GCL_{layout.schema.name}",
                f"GCLC_{layout.schema.name}",
                f"SCL_{layout.schema.name}",
            )
        return bee

    def drop_relation_bee(self, relation: str) -> None:
        """Collector entry point for DROP TABLE: the relation bee, and
        every query bee whose statement reads or writes the relation (a
        table created later under the same name is another relation)."""
        self.collector.collect_relation(relation)
        for key in [
            key for key, bee in self.cache.query_bees.items()
            if relation in bee.relations
        ]:
            del self.cache.query_bees[key]
            self.collector.collected_query_bees += 1
        for key in [k for k in self._idx_by_index if k[0] == relation]:
            del self._idx_by_index[key]
        if self.registry is not None:
            # Quarantine state describes bees that no longer exist.
            self.registry.clear_prefix(
                f"GCL_{relation}",
                f"GCLC_{relation}",
                f"SCL_{relation}",
                f"IDX_{relation}_",
                f"PIPE:{relation}:",
                f"VEC:{relation}:",
                f"PAR:{relation}:",
            )

    def invalidate_query_bees(self) -> int:
        """Evict every query bee and IDX routine, and start a new query
        epoch (ALTER path).

        Plans — and the routines their nodes hold — may bind column
        positions and constants from the old schema: the cached plans
        go, and a routine a surviving plan still holds is older than
        the epoch, so its next acquisition regenerates it
        (:meth:`held`).  EVJ templates survive: they embed only the
        join type and key arity, which no schema change affects.
        Returns the number of entries evicted.
        """
        n_query_bees = len(self.cache.query_bees)
        evicted = n_query_bees + len(self._idx_by_index)
        self.cache.query_bees.clear()
        self._idx_by_index.clear()
        self.collector.collected_query_bees += n_query_bees
        self.query_epoch += 1
        if self.registry is not None:
            # The invalidation edge also clears quarantine state: the
            # routines it described are gone, and the regenerated ones
            # deserve a fresh health record (EVJ templates survive the
            # eviction, but conservative re-admission is harmless).
            self.registry.clear_prefix(
                "EVP:", "EVJ:", "AGG:", "IDX_", "PIPE:", "VEC:", "PAR:"
            )
        return evicted

    # -- query bees (query preparation time) ------------------------------------

    def held(self, node, make, check) -> BeeRoutine:
        """The query routine plan node *node* runs: the one it holds.

        A routine made under the current invalidation epoch is reused —
        a statement may have re-bound the plan's constants since, so its
        holes are re-patched and, when one moved, *check* re-verifies
        it (the ``verify_on_generate`` gate).  Otherwise ``make()``
        instantiates one (from the proto-bee code cache when the shape
        was compiled before) and the node holds it from then on: a
        routine lives exactly as long as its plan.  A held routine of
        an older epoch outlived an invalidation edge; it is replaced,
        and the registry logs a ``routine_regenerated`` event.
        """
        routine = node.routine
        if routine is not None:
            if routine.epoch == self.query_epoch:
                if routine.repatch():
                    check(routine)
                return routine
            if self.registry is not None:
                self.registry.record_event(
                    "routine_regenerated", bee=routine.name,
                    epoch=routine.epoch, query_epoch=self.query_epoch,
                )
        routine = make()
        routine.epoch = self.query_epoch
        node.routine = routine
        return routine

    def get_evp(
        self, node, expr: Expr, assume_not_null: bool = False
    ) -> BeeRoutine:
        """EVP routine for predicate *expr*, held by *node* (a Filter,
        or a join for its qualification)."""
        maker = self.maker
        return self.held(
            node,
            lambda: maker.make_evp(expr, assume_not_null),
            lambda routine: maker.check_evp(routine, expr),
        )

    def get_agg(
        self, node, specs: tuple, assume_not_null: bool = False
    ) -> BeeRoutine:
        """AGG routine for a HashAgg *node*'s aggregate list.

        Experimental (the paper's Section VIII future work); only used
        when :attr:`BeeSettings.agg` is enabled.
        """
        maker = self.maker
        return self.held(
            node,
            lambda: maker.make_agg(specs, assume_not_null),
            lambda routine: maker.check_agg(routine, specs, assume_not_null),
        )

    def get_fused(self, node, tier, spec) -> BeeRoutine:
        """*tier*'s routine for fused driver *node*'s plan segment
        *spec*; *tier* is the driver's :class:`repro.bees.drivers.Tier`
        row (it owns the generator)."""
        maker = self.maker
        return self.held(
            node,
            lambda: maker.make_fused(tier, spec),
            lambda routine: maker.check_fused(routine, tier, spec),
        )

    def get_idx(
        self, relation: str, index_name: str, key_indexes: list[int]
    ) -> BeeRoutine:
        """IDX routine for one index's key extraction (one per index).

        Experimental (Section VIII future work: "indexing"); only used
        when :attr:`BeeSettings.idx` is enabled.
        """
        key = (relation, index_name)
        routine = self._idx_by_index.get(key)
        if routine is None:
            routine = self.maker.make_idx(
                key_indexes, f"IDX_{relation}_{index_name}"
            )
            routine.epoch = self.query_epoch
            self._idx_by_index[key] = routine
        return routine

    def get_evj(self, join_type: str, n_keys: int) -> EVJRoutine:
        """EVJ routine for a join shape (clone of a pre-compiled template)."""
        shape = (join_type, n_keys)
        routine = self._evj_by_shape.get(shape)
        if routine is None:
            routine = self.maker.make_evj(join_type, n_keys)
            self._evj_by_shape[shape] = routine
        return routine

    def check_out(self, key: tuple) -> QueryBee | None:
        """Take the query bee of shape *key* out of the cache — a
        statement-cache hit: the caller owns the bee (and may re-bind
        its plan's constants) until it hands it back through
        :meth:`check_in`.  One atomic ``dict.pop``, so of two concurrent
        statements of a shape one gets the bee and the other ``None``.
        A bee built under an older invalidation epoch is dropped, and
        counted."""
        bee = self.cache.query_bees.pop(key, None)
        if bee is None:
            return None
        if bee.epoch != self.query_epoch:
            self.collector.collected_query_bees += 1
            return None
        self.statement_hits += 1
        return bee

    def check_in(self, bee: QueryBee) -> None:
        """Put a query bee (back) into the cache as its newest entry,
        within the collector's budget — unless DDL ran since it was
        built.  The twin a concurrent statement of the shape built
        meanwhile is replaced, and counted."""
        if bee.epoch != self.query_epoch:
            self.collector.collected_query_bees += 1
            return
        if self.cache.query_bees.pop(bee.key, None) is not None:
            self.collector.collected_query_bees += 1
        self.cache.put_query_bee(bee)
        self.collector.trim_query_bees()

    def register_query_bee(self, key: tuple, bee: QueryBee) -> None:
        """Cache the query bee a statement-cache miss built for shape
        *key*."""
        bee.key = key
        self.statement_misses += 1
        self.check_in(bee)

    def decline_statement(self) -> None:
        """Count a statement that ran ad hoc: not a class query bees
        serve, or one whose bee could not be trusted to be reused."""
        self.statement_declined += 1

    def statement_statistics(self) -> dict:
        """What the statement front door did: statements served from a
        query bee, statements that built one, statements that ran ad
        hoc (declined), query bees cached now and evicted so far."""
        return {
            "hits": self.statement_hits,
            "misses": self.statement_misses,
            "declined": self.statement_declined,
            "entries": len(self.cache.query_bees),
            "evicted": self.collector.collected_query_bees,
        }

    # -- tuple bees (query execution time) ---------------------------------------

    def tuple_bee_id(self, relation: str, key: tuple) -> int:
        """Find or create the tuple bee for annotated values *key*.

        Charges the memcmp scan + clone cost into the ledger (the bulk-load
        overhead the paper measures in Fig. 8).
        """
        bee = self.cache.get_relation_bee(relation)
        if bee is None or bee.data_sections is None:
            raise LookupError(
                f"relation {relation!r} has no tuple-bee data sections"
            )
        return bee.data_sections.get_or_create(key, self.ledger)

    # -- persistence & placement -------------------------------------------------

    def flush_to_disk(self) -> int:
        """Write the bee cache to its directory; returns bees written."""
        if self.disk_dir is None:
            raise RuntimeError("bee module was created without a disk dir")
        return self.cache.save_to(self.disk_dir)

    def load_from_disk(self, layouts: dict[str, TupleLayout]) -> int:
        """Reload persisted bees at server start; returns bees loaded."""
        if self.disk_dir is None:
            raise RuntimeError("bee module was created without a disk dir")
        return self.cache.load_from(self.disk_dir, self.maker, layouts)

    def placement_report(self) -> dict:
        """Run the placement optimizer over all cached bee routines."""
        bees = [
            (routine.name, routine.size_bytes, 1.0 + routine.invocations / 1000)
            for routine in self.cache.all_routines()
        ]
        naive = self.placement.naive_placement(bees)
        optimized = self.placement.optimize(bees)
        return {
            "naive": self.placement.evaluate(naive),
            "optimized": self.placement.evaluate(optimized),
        }

    def statistics(self) -> dict:
        """Bee population counts (used by tests and EXPERIMENTS.md)."""
        tuple_bees = sum(
            len(bee.data_sections)
            for bee in self.cache.relation_bees.values()
            if bee.data_sections is not None
        )
        from repro.bees import drivers

        made = self.maker.made
        return {
            "relation_bees": len(self.cache.relation_bees),
            "query_bees": len(self.cache.query_bees),
            # Query routines instantiated so far (a plan holds its own,
            # so none of these is a cache size).
            "evp_routines": made["EVP"],
            "evj_routines": len(self._evj_by_shape),
            **{
                f"{tier.name}_routines": made[tier.prefix]
                for tier in drivers.TIERS if not tier.remote
            },
            **{f"{tier}_executed": n for tier, n in self.executed.items()},
            "tuple_bees": tuple_bees,
            "collected_relation_bees": self.collector.collected_relation_bees,
            "compiles": self.code_cache.compiles,
            "code_cache_hits": self.code_cache.hits,
            "code_cache_entries": len(self.code_cache),
        }
