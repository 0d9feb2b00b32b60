"""Pipeline fusion: rewrite a Volcano plan around fused pipeline bees.

:func:`fuse_plan` walks a planned query bottom-up-via-recursion and
replaces every *fusable pipeline* — a segment the pipeline-bee codegen
can compile into one batch-at-a-time loop — with a pipeline-tier
:class:`~repro.bees.drivers.FusedDriver`.  Three shapes fuse, matched in
priority order at each node:

1. ``HashAgg`` fed directly by a scan chain → the ``agg`` sink
   (aggregate transition; EXPLAINs as ``PipelineAgg``),
2. ``HashJoin`` whose *probe* side is a scan chain → the ``probe`` sink
   (``PipelineJoin``; the build side recurses independently),
3. a bare scan chain, optionally topped by one ``Project`` /
   ``ColumnSelect`` → the ``rows`` sink (``PipelineScan``).

A *scan chain* is ``[Project|ColumnSelect]? (Filter|Rename)* SeqScan``.
Because nothing below the optional projection reorders columns, every
bound column index in the segment is a schema attnum — exactly what the
pruned inlined deform needs — or, over a ctid scan (the match plan of
UPDATE/DELETE; ``rows`` sink only), ``natts``: the tuple identifier the
tier's input hands over beside each tuple.  Anything else (index scans, nest-loop or
merge joins, residual join quals, VALUES, materialization) keeps its
generic node and only its inputs are considered for fusion, so
unsupported shapes degrade to stock Volcano execution rather than
failing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import expr as E
from repro.engine.agg import HashAgg
from repro.engine.joins import HashJoin
from repro.engine.nodes import (
    ColumnSelect,
    Filter,
    PlanNode,
    Project,
    Rename,
    SeqScan,
)
from repro.bees.drivers import PIPELINE, FusedDriver, rewrite
from repro.bees.emit import referenced
from repro.bees.pipeline.codegen import PipelineSpec

# Expression node types the pipeline codegen can emit (mirrors the EVP
# emitters; anything else rejects fusion for its segment).
_SUPPORTED_EXPRS = (
    E.Const, E.Col, E.Cmp, E.Arith, E.And, E.Or, E.Not, E.Like,
    E.InList, E.Between, E.Case, E.IsNull, E.Func,
)


def _emittable(expr) -> bool:
    if not isinstance(expr, _SUPPORTED_EXPRS):
        return False
    return all(_emittable(child) for child in expr.children())


@dataclass
class _ScanChain:
    """A matched ``[projection]? (Filter|Rename)* SeqScan`` segment."""

    scan: SeqScan
    quals: list
    projection: list | None
    labels: tuple


def _match_scan_chain(node: PlanNode, allow_projection: bool) -> _ScanChain | None:
    labels = []
    projection = None
    if allow_projection and type(node) is Project:
        projection = list(node.exprs)
        labels.append("Project")
        node = node.child
    elif allow_projection and type(node) is ColumnSelect:
        projection = [
            E.Col(name, index)
            for name, index in zip(node.columns, node._indexes)
        ]
        labels.append("ColumnSelect")
        node = node.child
    quals = []
    while True:
        if type(node) is Filter:
            quals.append(node.qual)
            labels.append("Filter")
            node = node.child
        elif type(node) is Rename:
            labels.append("Rename")
            node = node.child
        else:
            break
    if type(node) is not SeqScan:
        return None
    labels.append(node.node_label())
    return _ScanChain(node, quals, projection, tuple(labels))


def _chain_spec(chain: _ScanChain, db, **sink_fields) -> PipelineSpec | None:
    """Build a :class:`PipelineSpec` for *chain*, or ``None`` when any
    part of the segment is outside what the codegen supports."""
    scan = chain.scan
    try:
        rel = db.relation(scan.relation)
    except KeyError:
        return None
    if scan.ctid and sink_fields["sink"] != "rows":
        return None      # only the rows sink emits the scan's own row
    if not scan.columns:
        scan.bind_schema(rel.schema)
    exprs = list(chain.quals) + list(chain.projection or [])
    width = rel.schema.natts + scan.ctid
    for expr in exprs:
        if not _emittable(expr) or not E.is_bound(expr):
            return None
        acc: set = set()
        referenced(expr, acc)
        if any(i < 0 or i >= width for i in acc):
            return None
    if not chain.quals:
        qual = None
    elif len(chain.quals) == 1:
        qual = chain.quals[0]
    else:
        qual = E.And(*chain.quals)
    return PipelineSpec(
        relation=scan.relation,
        layout=rel.layout,
        qual=qual,
        output=chain.projection,
        fused_nodes=chain.labels,
        ctid=scan.ctid,
        **sink_fields,
    )


def _try_agg(plan: HashAgg, db) -> FusedDriver | None:
    chain = _match_scan_chain(plan.child, allow_projection=False)
    if chain is None:
        return None
    for expr in plan.group_exprs:
        if not _emittable(expr) or not E.is_bound(expr):
            return None
    for spec in plan.aggs:
        if spec.arg is not None and (
            not _emittable(spec.arg) or not E.is_bound(spec.arg)
        ):
            return None
    pipe_spec = _chain_spec(
        chain, db,
        sink="agg",
        group_exprs=tuple(plan.group_exprs),
        aggs=tuple(plan.aggs),
    )
    if pipe_spec is None:
        return None
    return FusedDriver(PIPELINE, pipe_spec, plan)


def _try_join(plan: HashJoin, db) -> FusedDriver | None:
    if plan.extra_qual is not None:
        return None
    chain = _match_scan_chain(plan.probe, allow_projection=False)
    if chain is None:
        return None
    build = plan.build
    build_width = len(build.columns) if build.columns else 0
    if plan.join_type in ("inner", "left") and not build_width:
        return None
    spec = _chain_spec(
        chain, db,
        sink="probe",
        join_type=plan.join_type,
        probe_idx=tuple(plan.probe_idx),
        build_width=build_width,
    )
    if spec is None:
        return None
    return FusedDriver(PIPELINE, spec, plan, fuse_plan(build, db))


def _match(plan: PlanNode, db) -> FusedDriver | None:
    """The pipeline driver replacing *plan*, if its root starts a
    fusable segment."""
    if isinstance(plan, HashAgg):
        fused = _try_agg(plan, db)
        if fused is not None:
            return fused
    if isinstance(plan, HashJoin):
        fused = _try_join(plan, db)
        if fused is not None:
            return fused
    chain = _match_scan_chain(plan, allow_projection=True)
    if chain is not None:
        spec = _chain_spec(chain, db, sink="rows")
        if spec is not None:
            return FusedDriver(PIPELINE, spec, plan)
    return None


def fuse_plan(plan: PlanNode, db) -> PlanNode:
    """Return *plan* rewritten around pipeline drivers where fusable
    (the clone-on-change walk is :func:`repro.bees.drivers.rewrite`)."""
    return rewrite(plan, lambda node: _match(node, db))
