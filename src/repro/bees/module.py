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

from collections import Counter, OrderedDict
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

#: Bound of each identity-keyed query-routine memo (EVP, AGG, fused).
#: Plans are rebuilt per statement and the memos key on (and pin) their
#: nodes and expressions, so without a bound a long-running session
#: leaks one plan subtree per statement.  Far above what one prepared
#: workload or checker corpus holds live (a full TPC-H pass memoizes
#: ~100 routines), so only ad-hoc statement streams ever evict.
FUSED_MEMO_CAP = 256

#: Proto-bee code-cache bound: distinct generated sources whose code
#: objects are kept.  A warm TPC-H pass holds ~100 shapes and the short
#: statement mix a dozen, so only a stream of ever-new shapes evicts.
CODE_CACHE_CAP = 512


def _remember(memo: OrderedDict, key, entry: tuple) -> None:
    """Insert *entry* into an identity-keyed query-routine memo.

    Every entry starts with the object whose ``id()`` is in its key
    (holding the reference pins the id, which would otherwise be
    recycled after GC) and ends with its routine.  The memos are
    insertion ordered and bounded by :data:`FUSED_MEMO_CAP`, oldest
    evicted first: a running plan holds its own reference to its
    routine, so eviction only costs a re-instantiation if that plan is
    ever executed again.
    """
    memo.pop(key, None)   # a recycled id re-enters as the newest
    memo[key] = entry
    if len(memo) > FUSED_MEMO_CAP:
        # One call, so atomic under the GIL: server reads of different
        # sessions insert concurrently.
        memo.popitem(last=False)


def _sweep(memo: OrderedDict) -> list:
    """``(key, entry)`` pairs of *memo*, for the checker corpus sweeps.

    A sweep must see every routine its statements generated, so a memo
    that has filled to the cap (and may have evicted) is an error here,
    not a silently shorter corpus.
    """
    if len(memo) >= FUSED_MEMO_CAP:
        raise RuntimeError(
            f"query-routine memo reached its cap ({FUSED_MEMO_CAP}): "
            "the sweep would certify a truncated corpus"
        )
    return list(memo.items())


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
        # memos, and every memoized query routine is stamped with the
        # invalidation epoch it was generated under so the guard can
        # detect a memo that survived a DDL event it should not have.
        self.registry = registry
        self.query_epoch = 0
        # Query-bee routine memoization.  EVP and AGG routines are keyed
        # by (id of the expression / spec tuple, nullability variant),
        # entries (expr | specs, routine); fused-driver routines of every
        # tier by (tier name, id of the anchor plan node the driver
        # replaced), entries (anchor, spec, routine) — the spec is kept
        # so beecheck can re-verify cached routines post hoc.
        self._evp_by_expr: OrderedDict[
            tuple[int, bool], tuple[Expr, BeeRoutine]
        ] = OrderedDict()
        self._evj_by_shape: dict[tuple[str, int], EVJRoutine] = {}
        self._agg_by_specs: OrderedDict[tuple[int, bool], tuple] = OrderedDict()
        self._agg_counter = 0
        self._idx_by_index: dict[tuple[str, str], tuple[list[int], BeeRoutine]] = {}
        self._fused_by_node: OrderedDict[
            tuple[str, int], tuple[object, object, BeeRoutine]
        ] = OrderedDict()
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
        for key in [
            k
            for k, (_anchor, spec, _routine) in self._fused_by_node.items()
            if spec.relation == relation
        ]:
            del self._fused_by_node[key]
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
        """Evict every query bee and memoized query routine (ALTER path).

        Plans — and the EVP/AGG/IDX/pipeline routines memoized off them —
        may bind column positions and constants from the old schema.  EVJ
        templates survive: they embed only the join type and key arity,
        which no schema change affects.  Returns the number of entries
        evicted.
        """
        n_query_bees = len(self.cache.query_bees)
        evicted = (
            n_query_bees
            + len(self._evp_by_expr)
            + len(self._agg_by_specs)
            + len(self._idx_by_index)
            + len(self._fused_by_node)
        )
        self.cache.query_bees.clear()
        self._evp_by_expr.clear()
        self._agg_by_specs.clear()
        self._idx_by_index.clear()
        self._fused_by_node.clear()
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

    def get_evp(self, expr: Expr, assume_not_null: bool = False) -> BeeRoutine:
        """EVP routine for a bound predicate (memoized by expression
        identity and nullability variant; a hit re-patches the holes
        from the expression's current constants, as for
        :meth:`get_fused`)."""
        key = (id(expr), assume_not_null)
        entry = self._evp_by_expr.get(key)
        if entry is not None and entry[0] is expr:
            routine = entry[1]
            if routine.repatch():
                self.maker.check_evp(routine, expr)
            return routine
        routine = self.maker.make_evp(expr, assume_not_null)
        routine.epoch = self.query_epoch
        _remember(self._evp_by_expr, key, (expr, routine))
        return routine

    def get_agg(self, specs: tuple, assume_not_null: bool = False) -> BeeRoutine:
        """AGG routine for a HashAgg node's aggregate list (memoized).

        Experimental (the paper's Section VIII future work); only used
        when :attr:`BeeSettings.agg` is enabled.
        """
        key = (id(specs), assume_not_null)
        entry = self._agg_by_specs.get(key)
        if entry is not None and entry[0] is specs:
            routine = entry[1]
            if routine.repatch():
                self._check_agg(routine, specs, assume_not_null)
            return routine
        from repro.bees.routines.agg import generate_agg

        self._agg_counter += 1
        routine = generate_agg(
            list(specs), self.ledger, f"AGG_{self._agg_counter}",
            assume_not_null, self.code_cache,
        )
        self._check_agg(routine, specs, assume_not_null)
        routine.epoch = self.query_epoch
        _remember(self._agg_by_specs, key, (specs, routine))
        return routine

    def _check_agg(self, routine, specs: tuple, assume_not_null: bool) -> None:
        """The ``verify_on_generate`` gate of an AGG routine."""
        if self.maker.verify:
            from repro.beecheck import verify_agg

            verify_agg(routine, list(specs), assume_not_null)

    def get_idx(
        self, relation: str, index_name: str, key_indexes: list[int]
    ) -> BeeRoutine:
        """IDX routine for one index's key extraction (memoized).

        Experimental (Section VIII future work: "indexing"); only used
        when :attr:`BeeSettings.idx` is enabled.
        """
        key = (relation, index_name)
        entry = self._idx_by_index.get(key)
        if entry is None:
            from repro.bees.routines.idx import generate_idx

            routine = generate_idx(
                key_indexes, self.ledger, f"IDX_{relation}_{index_name}"
            )
            if self.maker.verify:
                from repro.beecheck import verify_idx

                verify_idx(routine, key_indexes)
            routine.epoch = self.query_epoch
            entry = (list(key_indexes), routine)
            self._idx_by_index[key] = entry
        return entry[1]

    def get_fused(self, tier, spec, anchor) -> BeeRoutine:
        """Fused-driver routine for one plan segment (memoized by anchor).

        *tier* is the driver's :class:`repro.bees.drivers.Tier` row (it
        owns the generator) and *anchor* the node the driver
        replaced.  The memo keys routine reuse to repeated executions of
        one plan — a query bee's, whose constants a statement may have
        re-bound since, so a hit re-patches the routine's holes (and
        re-verifies it under ``verify_on_generate``); a fresh plan of a
        shape seen before re-instantiates its proto-bee from the code
        cache instead.  Evicted with the other query bees on DDL.
        """
        key = (tier.name, id(anchor))
        entry = self._fused_by_node.get(key)
        if entry is not None and entry[0] is anchor:
            routine = entry[2]
            if routine.repatch():
                self.maker.check_fused(routine, tier, spec)
            return routine
        routine = self.maker.make_fused(tier, spec)
        routine.epoch = self.query_epoch
        _remember(self._fused_by_node, key, (anchor, spec, routine))
        return routine

    def evp_entries(self) -> list[tuple[Expr, BeeRoutine]]:
        """Memoized EVP routines as ``(expr, routine)``, for checker
        sweeps (raises once the memo may have evicted)."""
        return [entry for _key, entry in _sweep(self._evp_by_expr)]

    def agg_entries(self) -> list[tuple[tuple, BeeRoutine]]:
        """Memoized AGG routines as ``(specs, routine)``, for checker
        sweeps (raises once the memo may have evicted)."""
        return [entry for _key, entry in _sweep(self._agg_by_specs)]

    def evj_entries(self) -> list[EVJRoutine]:
        """Cloned EVJ templates, for checker sweeps (one per join
        shape, never evicted)."""
        return list(self._evj_by_shape.values())

    def idx_entries(self) -> list[tuple[list[int], BeeRoutine]]:
        """Memoized IDX routines as ``(key_indexes, routine)``, for
        checker sweeps (one per live index, never evicted)."""
        return list(self._idx_by_index.values())

    def fused_entries(
        self, tier: str
    ) -> list[tuple[int, object, object, BeeRoutine]]:
        """Memoized *tier* routines as ``(anchor id, anchor, spec,
        routine)`` — the checker corpus sweeps' view of the memo
        (raises once the memo may have evicted).
        """
        return [
            (node, *entry)
            for (name, node), entry in _sweep(self._fused_by_node)
            if name == tier
        ]

    def get_evj(self, join_type: str, n_keys: int) -> EVJRoutine:
        """EVJ routine for a join shape (clone of a pre-compiled template)."""
        shape = (join_type, n_keys)
        routine = self._evj_by_shape.get(shape)
        if routine is None:
            routine = self.maker.make_evj(join_type, n_keys)
            self._evj_by_shape[shape] = routine
        return routine

    def evict_routine(self, routine) -> bool:
        """Evict one memoized query routine (beeshield staleness repair).

        Returns True when the routine was found in a memo.  The next
        acquisition regenerates it under the current epoch.
        """
        for memo in (
            self._evp_by_expr, self._agg_by_specs, self._idx_by_index,
            self._fused_by_node,
        ):
            # Every memo entry ends with its routine.
            for key, entry in list(memo.items()):
                if entry[-1] is routine:
                    del memo[key]
                    return True
        return False

    def stable_key(self, routine_name: str) -> str | None:
        """Map a generated routine name to its stable health key.

        Relation-scoped names (``GCL_orders``, ``IDX_rel_idx``) are
        already stable; counter-suffixed query routines (``EVP_17``,
        ``AGG_3``, ``PIPE_2``) are looked up in the memos so the
        resilience registry can track them across statements.  The
        name is per instantiation (the ``_NAME`` hole of the faulting
        frame's namespace), never the shared code object's.  Cold
        path: only called while attributing a fault.
        """
        if routine_name.startswith(("GCL_", "SCL_", "IDX_", "EVJ_")):
            return routine_name
        from repro.resilience.guard import agg_key, evp_key, fused_key

        for expr, routine in self._evp_by_expr.values():
            if routine.name == routine_name:
                return evp_key(expr)
        for specs, routine in self._agg_by_specs.values():
            if routine.name == routine_name:
                return agg_key(specs)
        for _anchor, spec, routine in self._fused_by_node.values():
            if routine.name == routine_name:
                # PIPE_7 / VEC_3: the name's prefix is the tier's.
                return fused_key(routine_name.split("_", 1)[0], spec)
        return None

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
        fused = Counter(tier for tier, _node in self._fused_by_node)
        return {
            "relation_bees": len(self.cache.relation_bees),
            "query_bees": len(self.cache.query_bees),
            "evp_routines": len(self._evp_by_expr),
            "evj_routines": len(self._evj_by_shape),
            "pipeline_routines": fused["pipeline"],
            "vector_routines": fused["vector"],
            # ...and whatever other local tier has memoized routines.
            **{f"{tier}_routines": n for tier, n in fused.items()},
            **{f"{tier}_executed": n for tier, n in self.executed.items()},
            "tuple_bees": tuple_bees,
            "collected_relation_bees": self.collector.collected_relation_bees,
            "compiles": self.code_cache.compiles,
            "code_cache_hits": self.code_cache.hits,
            "code_cache_entries": len(self.code_cache),
        }
