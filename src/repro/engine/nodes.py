"""Volcano-style executor nodes: scans, filter, project, sort, limit.

Every node exposes ``columns`` (its output row descriptor, fixed at plan
construction) and ``rows(ctx)`` (a generator of flat value lists).  Costs
are charged per row into the context's ledger; nodes that micro-specialize
(Filter via EVP, scans via GCL) pick their implementation when iteration
starts, based on the database's :class:`repro.bees.BeeSettings`.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.cost import constants as C
from repro.engine.expr import Expr, Opaque, bind, static_nullable
from repro.storage.heapfile import pack_tid

Row = list

#: Name of the trailing system column a ctid scan emits.
CTID_COLUMN = "ctid"


def output_nullability(node: "PlanNode") -> list[bool]:
    """*node*'s per-column nullability vector, defensively widened.

    Every node built by the planner records ``nullable`` alongside
    ``columns``; hand-built or third-party nodes may not, and scans bind
    lazily, so a missing or mis-sized vector degrades to all-nullable
    (the conservative answer) instead of raising.
    """
    got = getattr(node, "nullable", None)
    if isinstance(got, list) and len(got) == len(node.columns):
        return list(got)
    return [True] * len(node.columns)


class ExecContext:
    """Per-execution state handed to every node.

    *settings* overrides the database's :class:`BeeSettings` for this one
    execution — the per-query bee disable toggle the differential oracle
    uses to compare specialized and generic interpretation of the same
    physical data.
    """

    def __init__(self, db, settings=None) -> None:
        self.db = db
        self.ledger = db.ledger
        self.settings = settings if settings is not None else db.settings
        self.bees = db.bee_module
        # Beeshield: the database's guard, active unless the settings
        # disable it.  ``shield_used`` collects the health keys of bees
        # served this execution so the executor can close re-admission
        # probes when the statement finishes cleanly; ``routine_keys``
        # maps each query routine acquired to its health key, so a
        # fault inside one is booked under that key.
        shield = getattr(db, "shield", None)
        if shield is not None and not getattr(self.settings, "shield", True):
            shield = None
        self.shield = shield
        self.shield_used: list[str] = []
        self.routine_keys: dict[str, str] = {}


class PlanNode:
    """Base class for executor nodes.

    ``columns`` is the output row descriptor; ``nullable`` is the
    positionally-aligned may-be-NULL vector (consumed by wagglecheck and
    required once outer joins land).  Read it through
    :func:`output_nullability`, which tolerates nodes that never set it.
    """

    columns: list[str]
    nullable: list[bool]
    #: On the root of a query bee's plan: ``(settings, the plan as the
    #: tier stack rewrote it under them)`` — see
    #: :func:`repro.engine.executor.stack`.
    stacked: tuple | None = None
    #: The query routine this node runs — a Filter's or a join's EVP, a
    #: HashAgg's AGG, a fused driver's tier routine — held by the node
    #: from its first acquisition (:meth:`GenericBeeModule.held`), so it
    #: lives exactly as long as the plan.
    routine: object | None = None

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        raise NotImplementedError

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def node_label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Pretty-print the plan tree (EXPLAIN analog)."""
        lines = ["  " * indent + "-> " + self.node_label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


def admit_deform(ctx: ExecContext, rel):
    """Deform admission for one scan of *rel*: ``(deform, checked)``.

    *deform* is the relation bee's GCL when the statement's settings
    enable it — under beeshield only while it is not quarantined, and
    wrapped in the per-call budget when one is armed — and the generic
    ``slot_deform_tuple`` otherwise.  *checked* tells the caller to
    compare each result's arity against the schema and raise the
    statement-retry signal (``ctx.shield.fault("gcl", name, "arity")``)
    on a mismatch: true exactly for a shielded GCL.  Every tuple-at-a-
    time scan — SeqScan, IndexScan, the DML match scan — admits here.
    """
    generic = rel.generic_deformer
    if not (ctx.settings.gcl and rel.bee is not None):
        return generic, False
    gcl = rel.bee.gcl
    shield = ctx.shield
    if shield is None:
        return gcl.fn, False
    deform = shield.admit_deform(ctx, gcl, generic)
    if deform is generic:
        return generic, False
    return shield.maybe_timed(deform, "gcl", gcl.name), True


class SeqScan(PlanNode):
    """Sequential heap scan; deforms via GCL bee or generic path.

    With *ctid* the scan carries one trailing system column, ``ctid``:
    each tuple's identifier packed into a NOT NULL int
    (:func:`repro.storage.heapfile.pack_tid`).  It costs nothing extra —
    the scan already holds the TID — and is what lets the match phase
    of UPDATE/DELETE be an ordinary plan.
    """

    def __init__(self, relation: str, ctid: bool = False) -> None:
        self.relation = relation
        self.ctid = ctid
        self.columns: list[str] = []
        self.nullable: list[bool] = []
        self._schema = None

    def bind_schema(self, schema) -> None:
        """Resolve output columns once the catalog is available."""
        self._schema = schema
        self.columns = schema.column_names()
        self.nullable = [attr.nullable for attr in schema.attributes]
        if self.ctid:
            self.columns.append(CTID_COLUMN)
            self.nullable.append(False)

    def node_label(self) -> str:
        return f"SeqScan({self.relation}{'+ctid' if self.ctid else ''})"

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        rel = ctx.db.relation(self.relation)
        if not self.columns:
            self.bind_schema(rel.schema)
        shield = ctx.shield
        if shield is not None:
            shield.scrub_sections(rel)
        sections = rel.sections_list()
        deform, checked = admit_deform(ctx, rel)
        per_row = C.SEQSCAN_NEXT + C.SLOT_STORE + C.NODE_OVERHEAD
        charge = ctx.ledger.charge
        if self.ctid:
            gcl_name = rel.bee.gcl.name if checked else None
            natts = rel.layout.schema.natts
            for (pageno, slot), raw in rel.heap.scan():
                charge(per_row)
                row = deform(raw, sections)
                if checked and len(row) != natts:
                    shield.fault("gcl", gcl_name, "arity")
                yield [*row, pack_tid(pageno, slot)]
        elif checked:
            gcl_name = rel.bee.gcl.name
            natts = rel.layout.schema.natts
            for _tid, raw in rel.heap.scan():
                charge(per_row)
                row = deform(raw, sections)
                if len(row) != natts:
                    shield.fault("gcl", gcl_name, "arity")
                yield row
        else:
            for _tid, raw in rel.heap.scan():
                charge(per_row)
                yield deform(raw, sections)


class IndexScan(PlanNode):
    """Index lookup (point or range) followed by heap fetches."""

    def __init__(
        self,
        relation: str,
        index: str,
        equal: tuple | None = None,
        low: tuple | None = None,
        high: tuple | None = None,
    ) -> None:
        if equal is None and low is None and high is None:
            raise ValueError("IndexScan needs an equality key or a range")
        self.relation = relation
        self.index = index
        self.equal = equal
        self.low = low
        self.high = high
        self.columns: list[str] = []
        self.nullable: list[bool] = []

    def node_label(self) -> str:
        key = self.equal if self.equal is not None else (self.low, self.high)
        return f"IndexScan({self.relation}.{self.index} {key})"

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        rel = ctx.db.relation(self.relation)
        if not self.columns:
            self.columns = rel.schema.column_names()
            self.nullable = [a.nullable for a in rel.schema.attributes]
        index = rel.indexes[self.index]
        if self.equal is not None:
            tids = index.lookup(self.equal)
        else:
            tids = index.range_lookup(self.low, self.high)
        shield = ctx.shield
        if shield is not None:
            shield.scrub_sections(rel)
        sections = rel.sections_list()
        deform, checked = admit_deform(ctx, rel)
        per_row = C.INDEXSCAN_NEXT + C.SLOT_STORE + C.NODE_OVERHEAD
        charge = ctx.ledger.charge
        if checked:
            gcl_name = rel.bee.gcl.name
            natts = rel.layout.schema.natts
            for tid in tids:
                charge(per_row)
                raw = rel.heap.fetch(tid, sequential=False)
                row = deform(raw, sections)
                if len(row) != natts:
                    shield.fault("gcl", gcl_name, "arity")
                yield row
        else:
            for tid in tids:
                charge(per_row)
                raw = rel.heap.fetch(tid, sequential=False)
                yield deform(raw, sections)


class Filter(PlanNode):
    """Qualification node; uses the EVP query bee when enabled."""

    def __init__(
        self, child: PlanNode, qual: Expr, not_null: bool = False
    ) -> None:
        self.child = child
        self.qual = bind(qual, child.columns)
        self.not_null = not_null
        self.columns = list(child.columns)
        self.nullable = output_nullability(child)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def node_label(self) -> str:
        return f"Filter({self.qual!r})"

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        charge = ctx.ledger.charge
        overhead = C.NODE_OVERHEAD
        if ctx.settings.evp and not isinstance(self.qual, Opaque):
            shield = ctx.shield
            if shield is None:
                routine = ctx.bees.get_evp(self, self.qual, self.not_null)
                predicate = routine.fn   # charges its own (specialized) cost
                for row in self.child.rows(ctx):
                    charge(overhead)
                    if predicate(row) is True:
                        yield row
                return
            entry = shield.predicate(ctx, self, self.qual, self.not_null)
            if entry is not None:
                predicate, key = entry
                for row in self.child.rows(ctx):
                    charge(overhead)
                    result = predicate(row)
                    if result is True:
                        yield row
                    elif result is not False and result is not None:
                        shield.fault("evp", key, "type")
                return
            # Quarantined or generation faulted: generic interpretation.
        qual = self.qual
        cost = qual.generic_cost + overhead
        evaluate = qual.evaluate
        for row in self.child.rows(ctx):
            charge(cost)
            if evaluate(row) is True:
                yield row


class Project(PlanNode):
    """Target-list evaluation (generic in both systems, per the paper)."""

    def __init__(
        self, child: PlanNode, exprs: list[Expr], names: list[str]
    ) -> None:
        if len(exprs) != len(names):
            raise ValueError("Project needs one name per expression")
        self.child = child
        self.exprs = [bind(expr, child.columns) for expr in exprs]
        self.columns = list(names)
        child_nullable = output_nullability(child)
        self.nullable = [
            static_nullable(expr, child_nullable) for expr in self.exprs
        ]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def node_label(self) -> str:
        return f"Project({', '.join(self.columns)})"

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        charge = ctx.ledger.charge
        exprs = self.exprs
        cost = (
            C.NODE_OVERHEAD
            + C.PROJECT_PER_COLUMN * len(exprs)
            + sum(expr.generic_cost for expr in exprs)
        )
        for row in self.child.rows(ctx):
            charge(cost)
            yield [expr.evaluate(row) for expr in exprs]


class ColumnSelect(PlanNode):
    """Cheap projection by column name (no expression evaluation)."""

    def __init__(self, child: PlanNode, names: list[str]) -> None:
        self.child = child
        self._indexes = [child.columns.index(name) for name in names]
        self.columns = list(names)
        child_nullable = output_nullability(child)
        self.nullable = [child_nullable[i] for i in self._indexes]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        charge = ctx.ledger.charge
        indexes = self._indexes
        cost = C.NODE_OVERHEAD + C.PROJECT_PER_COLUMN * len(indexes)
        for row in self.child.rows(ctx):
            charge(cost)
            yield [row[i] for i in indexes]


class Rename(PlanNode):
    """Relabels columns (table aliases for self-joins); zero-cost."""

    def __init__(self, child: PlanNode, prefix: str) -> None:
        self.child = child
        self.prefix = prefix
        self.columns = [f"{prefix}.{name}" for name in child.columns]
        self.nullable = output_nullability(child)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def node_label(self) -> str:
        return f"Rename({self.prefix})"

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        return self.child.rows(ctx)


class Sort(PlanNode):
    """In-memory sort, multi-key with per-key direction."""

    def __init__(
        self,
        child: PlanNode,
        keys: list[tuple[Expr, bool]],
        limit: int | None = None,
    ) -> None:
        self.child = child
        self.keys = [(bind(expr, child.columns), desc) for expr, desc in keys]
        self.limit = limit
        self.columns = list(child.columns)
        self.nullable = output_nullability(child)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def node_label(self) -> str:
        return f"Sort({len(self.keys)} keys)"

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        rows = list(self.child.rows(ctx))
        n = len(rows)
        key_cost = sum(expr.generic_cost for expr, _desc in self.keys)
        comparisons = int(n * math.log2(n)) if n > 1 else 0
        ctx.ledger.charge_fn(
            "tuplesort",
            n * (C.SORT_PER_ROW + key_cost) + comparisons * C.SORT_COMPARE,
        )
        # Stable multi-pass sort: apply keys from least to most significant.
        # NULLs sort last ascending / first descending (PostgreSQL default).
        def null_safe(expr: Expr):
            def key(row: Row):
                value = expr.evaluate(row)
                return (value is None, value)

            return key

        for expr, desc in reversed(self.keys):
            rows.sort(key=null_safe(expr), reverse=desc)
        if self.limit is not None:
            rows = rows[: self.limit]
        yield from rows


class Limit(PlanNode):
    """Stop after *n* rows."""

    def __init__(self, child: PlanNode, n: int) -> None:
        if n < 0:
            raise ValueError("LIMIT must be non-negative")
        self.child = child
        self.n = n
        self.columns = list(child.columns)
        self.nullable = output_nullability(child)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def node_label(self) -> str:
        return f"Limit({self.n})"

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        if self.n == 0:
            return
        emitted = 0
        for row in self.child.rows(ctx):
            yield row
            emitted += 1
            if emitted >= self.n:
                return


class Materialize(PlanNode):
    """Caches the child's output for repeated iteration."""

    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.columns = list(child.columns)
        self.nullable = output_nullability(child)
        self._cache: list[Row] | None = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        if self._cache is None:
            self._cache = list(self.child.rows(ctx))
            ctx.ledger.charge(C.MATERIALIZE_ROW * len(self._cache))
        yield from self._cache


class ValuesNode(PlanNode):
    """Constant rows (useful for tests and decorrelated subplans)."""

    def __init__(self, columns: list[str], rows: list[Row]) -> None:
        self.columns = list(columns)
        self._rows = [list(row) for row in rows]
        self.nullable = [
            any(row[i] is None for row in self._rows)
            for i in range(len(self.columns))
        ]

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        yield from self._rows
