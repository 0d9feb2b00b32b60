"""Fused drivers and the tier table: one plan node for every fused tier.

A *fused driver* replaces one fusable plan segment.  It carries the
segment's :class:`~repro.bees.pipeline.codegen.PipelineSpec`, the
*anchor* — the subtree (or lower-tier driver) it replaced, kept for
EXPLAIN, as the routine memo key and as the degradation target — and,
for the ``probe`` sink, the join's build child.  There is exactly one
driver class; ``(tier.name, spec.sink)`` names what it runs.

What a tier genuinely changes is its :class:`Tier` row in :data:`TIERS`
(pipeline → vector → parallel): its settings/shield family and
health-key prefix, how it obtains input and how it calls the routine
for each sink.  Guarded acquisition, the anchor drain, the output width
check, group finalisation and the hash-table build exist once, in
:class:`FusedDriver`; the executor's :func:`stack_tiers`, the shared
re-wrapper :func:`lift` and the morsel workers all go through the table.

Drivers nest by anchor — parallel over vector over pipeline over the
generic subtree — so a quarantined, bypassed or faulted driver drains
the tier below without knowing what it is: the runtime's
parallel → vector → pipeline → routine → generic ladder.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Any, Callable, Iterable, Iterator

from repro.cost import constants as C
from repro.engine.agg import HashAgg
from repro.engine.joins import HashJoin, MergeJoin, NestLoop
from repro.engine.nodes import (
    ColumnSelect,
    ExecContext,
    Filter,
    Limit,
    Materialize,
    PlanNode,
    Project,
    Rename,
    Row,
    Sort,
    output_nullability,
)
from repro.resilience.guard import fused_key
from repro.storage.heapfile import CTID_SLOT_BITS

#: Fallback batch size when draining a generic anchor subtree.
_GENERIC_BATCH = 256

#: EXPLAIN suffix per sink (``PipelineScan[…]``, ``VectorAgg[…]``, …).
_SINK_LABELS = {"rows": "Scan", "probe": "Join", "agg": "Agg"}

def new_groups(spec: Any) -> tuple[dict, Callable[[], list]]:
    """Accumulator state for one ``agg``-sink run: ``(groups,
    make_states)``.  A grand aggregate owns its single ``()`` group from
    the start, so empty input still yields one row (``HashAgg``)."""
    aggs = spec.aggs

    def make_states() -> list:
        return [agg.make_state() for agg in aggs]

    groups: dict = {}
    if not spec.group_exprs:
        groups[()] = make_states()
    return groups, make_states


# -- the tier table -----------------------------------------------------------


class Tier:
    """One row of the tier table: what a fused tier genuinely changes.

    Adding a tier is one subclass (a few attributes, ``generate``,
    ``open`` and ``invoke``), one entry in :data:`TIERS`, plus its codegen.
    """

    #: Capitalized, the EXPLAIN label prefix (``PipelineScan[…]``).
    name: str
    #: :class:`BeeSettings` flag = beeshield family the retry disables.
    family: str
    #: Health-key prefix (``PIPE:rel:sink``; ``PIPE:fusion``).
    prefix: str
    #: Settings flags that stack this tier into a plan.
    enabled_by: tuple[str, ...]
    #: The routine and its sink state live in the pool workers:
    #: acquisition here is only the quarantine gate, and the ``probe``
    #: hash table ships with the statement instead of being passed.
    remote = False

    def generate(
        self, spec: Any, ledger: Any, fn_name: str, code_cache: Any = None,
        mergeable: bool = False,
    ) -> Any:
        """This tier's code generator over *spec* (never asked of a
        remote tier): what the bee maker and the pool workers both call.
        A worker asks for *mergeable* ``agg`` output — partial states
        the coordinator can fold across morsels.  Resolved per call
        through the codegen module's attribute (chaos sites and the
        injection registry patch it there)."""
        raise NotImplementedError

    def open(
        self, ctx: ExecContext, driver: "FusedDriver", rel: Any, build_table: Any
    ) -> Iterable[Any] | None:
        """Open the tier's input over *rel*: the units to invoke the
        routine on, or ``None`` to drain the anchor instead."""
        raise NotImplementedError

    def invoke(
        self, sink: str, fn: Any, unit: Any, sections: list, state: tuple
    ) -> Any:
        """Call routine *fn* on one input *unit* with the sink's
        *state* — ``()`` for ``rows``, ``(table,)`` for ``probe``,
        :func:`new_groups` for ``agg``.  Returns the rows the unit
        produced; an ``agg`` invoke that advanced *state* in place
        returns ``None`` instead of finished rows."""
        raise NotImplementedError

    def accepts(self, spec: Any) -> bool:
        """Whether this tier runs *spec*; a declined driver stays on the
        tier below."""
        return True

    def stack(self, plan: PlanNode, db: Any) -> PlanNode:
        """Rewrite *plan* around this tier's drivers: by default, wrap
        the drivers of the tier below."""
        return lift(self, plan)


class _Pipeline(Tier):
    name, family, prefix = "pipeline", "pipelines", "PIPE"
    enabled_by = ("pipelines", "vectors")

    def generate(
        self, spec: Any, ledger: Any, fn_name: str, code_cache: Any = None,
        mergeable: bool = False,
    ) -> Any:
        # The agg sink advances the caller's states in place: mergeable
        # as it stands.
        from repro.bees.pipeline import codegen

        return codegen.generate_pipeline(spec, ledger, fn_name, code_cache)

    def invoke(
        self, sink: str, fn: Any, unit: Any, sections: list, state: tuple
    ) -> Any:
        return fn(unit, sections, *state)

    def open(
        self, ctx: ExecContext, driver: "FusedDriver", rel: Any, build_table: Any
    ) -> Iterator[list]:
        """Each heap page's live raw tuples as one batch — ``(raw,
        ctid)`` pairs for a ctid spec — charging buffer access +
        PAGE_ACCESS per page exactly like ``HeapFile.scan``."""
        heap = rel.heap
        access = heap.buffer_pool.access
        charge = heap.ledger.charge
        name = heap.name
        ctid = driver.spec.ctid
        for pageno, page in enumerate(heap.pages):
            access(name, pageno, sequential=True)
            charge(C.PAGE_ACCESS)
            if ctid:
                page_base = pageno << CTID_SLOT_BITS      # pack_tid, inlined
                batch = [
                    (raw, page_base | slot) for slot, raw in page.live_tuples()
                ]
            else:
                batch = [raw for _slot, raw in page.live_tuples()]
            if batch:
                yield batch

    def stack(self, plan: PlanNode, db: Any) -> PlanNode:
        """The one tier that fuses generic subtrees itself: its matcher,
        resolved per call through the package attribute (the chaos
        campaign's fusion-raise site patches it there)."""
        from repro.bees import pipeline

        return pipeline.fuse_plan(plan, db)


class _Vector(Tier):
    name, family, prefix = "vector", "vectors", "VEC"
    enabled_by = ("vectors",)

    def generate(
        self, spec: Any, ledger: Any, fn_name: str, code_cache: Any = None,
        mergeable: bool = False,
    ) -> Any:
        from repro.bees.vector import codegen

        return codegen.generate_vector(
            spec, ledger, fn_name, code_cache, mergeable=mergeable
        )

    def invoke(
        self, sink: str, fn: Any, unit: Any, sections: list, state: tuple
    ) -> Any:
        if sink == "agg":
            # The agg kernel groups and finalizes (or, in a worker,
            # bulk-fills mergeable partials) itself: no accumulators.
            state = ()
        return fn(unit.cols, unit.nulls, unit.n, *state)

    def open(
        self, ctx: ExecContext, driver: "FusedDriver", rel: Any, build_table: Any
    ) -> Iterable[Any]:
        """The relation's frozen columnar chunk, whole (widened by its
        ``tids`` column for a ctid spec)."""
        chunk = ctx.db.chunk_cache.get(rel)
        return (chunk.with_ctid() if driver.spec.ctid else chunk,)


class _Parallel(Tier):
    name, family, prefix = "parallel", "parallel", "PAR"
    enabled_by = ("parallel",)
    remote = True

    def accepts(self, spec: Any) -> bool:
        """No ctid specs: a match scan runs under its statement's write
        latch, not on pool workers holding a shipped snapshot."""
        return not spec.ctid

    def invoke(
        self, sink: str, fn: Any, unit: Any, sections: list, state: tuple
    ) -> Any:
        if sink != "agg":
            return unit     # the gathered rows are the result
        state[0].update(unit)   # merged groups, left for finalisation
        return None

    def open(
        self, ctx: ExecContext, driver: "FusedDriver", rel: Any, build_table: Any
    ) -> Iterable[Any] | None:
        """The coordinator's gathered payload, whole.

        ``None`` (the relation is too small to fan out) drains the
        anchor.  *build_table* only runs once the coordinator commits
        to fanning out, so a bypassed statement never builds its hash
        table twice.  A :class:`ParallelError` becomes the
        statement-retry signal under beeshield and is re-raised
        unshielded.
        """
        from repro.parallel.coordinator import ParallelError

        coordinator = ctx.db.parallel_coordinator()
        below: Any = driver.anchor   # the serial driver the workers run
        try:
            payload = coordinator.execute_statement(
                driver.spec, below.tier.name, table_fn=build_table
            )
        except ParallelError as exc:
            coordinator.stats.record_degradation()
            shield = ctx.shield
            if shield is None:
                raise
            shield.fault(
                self.family, fused_key(self.prefix, driver.spec), exc.kind,
                error=exc,
            )
        return None if payload is None else (payload,)


PIPELINE, VECTOR, PARALLEL = _Pipeline(), _Vector(), _Parallel()

#: Bottom-up stacking order.
TIERS: tuple[Tier, ...] = (PIPELINE, VECTOR, PARALLEL)
TIER_BY_NAME: dict[str, Tier] = {tier.name: tier for tier in TIERS}


# -- the driver ---------------------------------------------------------------


class FusedDriver(PlanNode):
    """The one fused-driver node: ``(tier, spec.sink)`` names what runs.

    Exposes the usual ``rows(ctx)`` generator, but the executor prefers
    ``batches(ctx)`` so emission cost is charged per batch.  Under
    beeshield a quarantined or generation-faulted routine makes the
    driver drain its anchor instead, and a wrong-width output batch
    raises the statement-retry signal — on every tier and every sink.
    """

    def __init__(
        self,
        tier: Tier,
        spec: Any,
        anchor: PlanNode,
        build: PlanNode | None = None,
    ) -> None:
        self.tier = tier
        self.spec = spec
        self.anchor = anchor
        self.build = build
        self.identity = (tier.name, spec.sink)
        self.columns = list(anchor.columns)
        self.nullable = output_nullability(anchor)

    def children(self) -> tuple[PlanNode, ...]:
        return () if self.build is None else (self.build,)

    def node_label(self) -> str:
        fused = " <- ".join(self.spec.fused_nodes)
        label = self.tier.name.capitalize() + _SINK_LABELS[self.spec.sink]
        return f"{label}[{fused}]"

    def _hash_join(self) -> Any:
        """The generic ``HashJoin`` that owns the build key positions:
        the bottom of the anchor chain, however many tiers are stacked."""
        node: Any = self.anchor
        while hasattr(node, "anchor"):
            node = node.anchor
        return node

    def _anchor_batches(self, ctx: ExecContext) -> Iterator[list]:
        """Fallback: drain the replaced (lower-tier or generic) subtree."""
        anchor_batches = getattr(self.anchor, "batches", None)
        if anchor_batches is not None:
            yield from anchor_batches(ctx)
            return
        batch: list[Row] = []
        for row in self.anchor.rows(ctx):
            batch.append(row)
            if len(batch) >= _GENERIC_BATCH:
                yield batch
                batch = []
        if batch:
            yield batch

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        for batch in self.batches(ctx):
            yield from batch

    def batches(self, ctx: ExecContext) -> Iterator[list]:
        tier, spec, shield = self.tier, self.spec, ctx.shield
        sink = spec.sink
        # Resolve the routine; not admitted (quarantined bee, or the
        # generator faulted under the shield) drains the anchor.
        if shield is not None:
            admitted, fn, key = shield.fused(ctx, tier, spec, self.anchor)
        else:
            admitted, key = True, None
            fn = None if tier.remote else ctx.bees.get_fused(
                tier, spec, self.anchor
            ).fn
        units = None
        if admitted:
            state: tuple = ()
            build_table: Callable[[], dict] | None = None
            if sink == "probe":
                # The build side stays a (possibly itself fused)
                # subtree; the build phase is HashJoin's own.  A remote
                # tier builds lazily, once it commits to fanning out.
                build_table = partial(
                    self._hash_join().build_table, ctx, self.build
                )
                if not tier.remote:
                    state = (build_table(),)
            elif sink == "agg":
                state = new_groups(spec)
            rel = ctx.db.relation(spec.relation)
            if shield is not None:
                shield.scrub_sections(rel)
            units = tier.open(ctx, self, rel, build_table)
        if units is None:
            yield from self._anchor_batches(ctx)
            return
        if shield is not None:
            ctx.shield_used.append(key)
        ctx.bees.executed[tier.name] += 1
        sections = rel.sections_list()
        invoke = partial(tier.invoke, sink, fn)
        outputs: Iterable[Any]
        if sink == "agg":
            finished = None
            for unit in units:
                finished = invoke(unit, sections, state)
            if finished is None:
                # Accumulated in place: the final pass mirrors
                # ``HashAgg.rows`` — one row per group, NODE_OVERHEAD
                # each (a finalizing kernel's rows cost the same).
                finished = [
                    list(group_key) + [s.result() for s in states]
                    for group_key, states in state[0].items()
                ]
            ctx.ledger.charge(C.NODE_OVERHEAD * len(finished))
            outputs = (finished,)
        else:
            outputs = (invoke(unit, sections, state) for unit in units)
        width = len(self.columns)
        for out in outputs:
            if out:
                if shield is not None and len(out[0]) != width:
                    shield.fault(tier.family, key, "arity")
                yield out


# -- plan rewriting -----------------------------------------------------------

# How to reach the children of each generic node when rebuilding a plan
# around fused subtrees.
_CHILD_ATTRS: dict[type, tuple[str, ...]] = {
    Filter: ("child",),
    Project: ("child",),
    ColumnSelect: ("child",),
    Rename: ("child",),
    Sort: ("child",),
    Limit: ("child",),
    Materialize: ("child",),
    HashAgg: ("child",),
    HashJoin: ("probe", "build"),
    NestLoop: ("outer", "inner"),
    MergeJoin: ("left", "right"),
}


def rewrite(
    plan: PlanNode, visit: Callable[[PlanNode], PlanNode | None]
) -> PlanNode:
    """Clone-on-change plan walk shared by every tier's rewriter.

    *visit* returns a node's replacement, or ``None`` to keep the node
    and descend into its children.  Untouched subtrees are shared with
    the input plan; rebuilt interior nodes are shallow copies, so the
    caller's plan object is never mutated (plans are rebuilt per query
    anyway, but EXPLAIN paths hold onto them).
    """
    replaced = visit(plan)
    if replaced is not None:
        return replaced
    attrs = _CHILD_ATTRS.get(type(plan))
    if not attrs:
        return plan
    children = {name: rewrite(getattr(plan, name), visit) for name in attrs}
    if all(children[name] is getattr(plan, name) for name in attrs):
        return plan
    clone = copy.copy(plan)
    for name, child in children.items():
        setattr(clone, name, child)
    return clone


def lift(tier: Tier, plan: PlanNode) -> PlanNode:
    """Wrap every fused driver in *plan* in its *tier* counterpart.

    Same spec, and the wrapped driver kept as the anchor, so a degraded
    site falls back to exactly the tier it replaced.  The fusable
    language never widens here: a lifted tier runs precisely the specs
    the pipeline matcher produced.

    A join's build subtree is lifted too, and — crucially — grafted
    into the *anchor* as well: when the probe side drains its anchor
    (quarantine, or the pool bypassing a small relation), the anchor
    must still compute its build-side aggregates with the same tier the
    rest of the query used, or cross-statement float identities (TPC-H
    Q15 compares a SUM against its own MAX with ``=``) break on
    re-associated partial sums.
    """

    def visit(node: PlanNode) -> PlanNode | None:
        if not isinstance(node, FusedDriver):
            return None
        if not tier.accepts(node.spec):
            return node
        build = None if node.build is None else rewrite(node.build, visit)
        anchor = node
        if build is not node.build:
            anchor = copy.copy(node)
            anchor.build = build
        return FusedDriver(tier, node.spec, anchor, build)

    return rewrite(plan, visit)


def fuse_vector_plan(plan: PlanNode, db: Any) -> PlanNode:
    """Return *plan* rewritten around vector drivers where fusable.

    Segments the pipeline matcher declines stay generic here too; the
    vector tier never widens the fusable language, it only compiles the
    same specs to columnar kernels.
    """
    return VECTOR.stack(PIPELINE.stack(plan, db), db)


def settings_points(base: Any) -> list[tuple[Tier, Any]]:
    """One :class:`BeeSettings` point per tier row, bottom-up, over *base*.

    A row's point turns on its own flag (the first of ``enabled_by``)
    on top of every row below it, so each point stacks exactly the
    tiers up to its row: the parallel point is pipelines + vectors +
    parallel, never one lone flag over a plan with no fused driver.
    The differential oracle's N-way lane and the checker corpus take
    their settings points from here, so a new row is covered by both.
    """
    points: list[tuple[Tier, Any]] = []
    flags: dict[str, bool] = {}
    for tier in TIERS:
        flags[tier.enabled_by[0]] = True
        points.append((tier, base.enabling(**flags)))
    return points


def stack_tiers(plan: PlanNode, db: Any, settings: Any, shield: Any) -> PlanNode:
    """Rewrite *plan* through every tier *settings* enable, bottom-up.

    Under beeshield a raising rewriter keeps the plan it was given and
    records the fault under the tier's ``<prefix>:fusion`` key.
    """
    for tier in TIERS:
        if not any(getattr(settings, flag, False) for flag in tier.enabled_by):
            continue
        if shield is None:
            plan = tier.stack(plan, db)
        else:
            plan = shield.fuse(
                tier.stack, plan, db, key=f"{tier.prefix}:fusion"
            )
    return plan
