"""Pass 2 — rewrite soundness: fusion must be plan-preserving.

Each tier's ``stack`` (the pipeline matcher, then the re-wrappers above
it — :data:`repro.bees.drivers.TIERS`) replaces fusable
segments with driver nodes carrying a :class:`PipelineSpec`.  This pass
proves, for every driver in the rewritten plan, that the spec *replays*
exactly to the subtree it replaced — same relation and layout, the same
qualifications (conjunction order preserved), the same projection
expressions and constants, the same join keys and type, the same
aggregate specs — and that every node fusion did **not** touch is
structurally identical to the original (identity sharing is accepted as
the strongest proof).

The replay deliberately re-implements the scan-chain match rather than
calling into :mod:`repro.bees.pipeline.fusion`: an analyzer that trusts
the rewriter's own matcher would inherit its bugs.
"""

from __future__ import annotations

from repro.engine import expr as E
from repro.engine.agg import HashAgg
from repro.engine.aggregates import AggSpec
from repro.engine.joins import HashJoin, MergeJoin, NestLoop
from repro.engine.nodes import (
    ColumnSelect,
    Filter,
    IndexScan,
    Limit,
    Materialize,
    PlanNode,
    Project,
    Rename,
    SeqScan,
    Sort,
)
from repro.verify.report import Finding

# Scalar fields that must match for two expression nodes of the same
# type to be structurally equal (children compared recursively).
_EXPR_SCALARS = {
    E.Const: ("value",),
    E.Col: ("name", "index"),
    E.Cmp: ("op",),
    E.Arith: ("op",),
    E.Like: ("pattern", "negate"),
    E.InList: ("values",),
    E.Between: ("low", "high"),
    E.IsNull: ("negate",),
    E.Func: ("name",),
}

# Same idea for generic plan nodes (the unfused-residue walk).
_NODE_SCALARS = {
    Filter: ("not_null", "columns"),
    Project: ("columns",),
    ColumnSelect: ("columns",),
    Rename: ("prefix",),
    Sort: ("limit",),
    Limit: ("n",),
    Materialize: (),
    SeqScan: ("relation", "ctid"),
    IndexScan: ("relation", "index", "equal", "low", "high"),
    HashJoin: ("join_type", "probe_idx", "build_idx", "not_null"),
    NestLoop: ("join_type", "not_null"),
    MergeJoin: ("join_type", "left_idx", "right_idx"),
    HashAgg: ("group_names",),
}

_NODE_CHILDREN = {
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


def expr_equal(a: E.Expr | None, b: E.Expr | None) -> bool:
    """Structural equality over expression trees.

    Constant comparison is type-exact (``1`` is not ``1.0`` is not
    ``True``) because codegen inlines constants verbatim.
    """
    if a is b:
        return True
    if a is None or b is None or type(a) is not type(b):
        return False
    for field_name in _EXPR_SCALARS.get(type(a), ()):
        left, right = getattr(a, field_name), getattr(b, field_name)
        if type(left) is not type(right) or left != right:
            return False
    left_children, right_children = a.children(), b.children()
    if len(left_children) != len(right_children):
        return False
    return all(
        expr_equal(x, y) for x, y in zip(left_children, right_children)
    )


def agg_spec_equal(a: AggSpec, b: AggSpec) -> bool:
    return (
        a.func == b.func
        and a.name == b.name
        and getattr(a, "distinct", False) == getattr(b, "distinct", False)
        and expr_equal(a.arg, b.arg)
    )


def _is_driver(node: PlanNode) -> bool:
    """A fused driver of any tier: carries a spec plus its anchor."""
    return hasattr(node, "spec") and hasattr(node, "anchor")


class RewriteChecker:
    """Compares a fused plan against the original it was derived from."""

    def __init__(self, subject: str, db) -> None:
        self.subject = subject
        self.db = db
        self.findings: list[Finding] = []
        self.rewrites_checked = 0

    def fail(self, message: str) -> None:
        self.findings.append(Finding("rewrite", self.subject, message))

    # -- plan comparison ----------------------------------------------------

    def compare(self, fused: PlanNode, orig: PlanNode) -> None:
        """Prove *fused* is *orig* rewritten only around sound drivers."""
        if fused is orig:
            return      # untouched residue shared by identity
        if _is_driver(fused):
            self.rewrites_checked += 1
            anchor = fused.anchor
            if _is_driver(anchor):
                # Vector driver stacked on the pipeline driver it shadows:
                # both tiers must compile the *same* spec.
                if fused.spec is not anchor.spec and not self._spec_quiet_eq(
                    fused.spec, anchor.spec
                ):
                    self.fail(
                        f"{fused.node_label()} carries a different spec "
                        "than the pipeline driver it wraps"
                    )
                self.compare(anchor, orig)
                build = getattr(fused, "build", None)
                if build is not None and isinstance(orig, HashJoin):
                    self.compare(build, orig.build)
                return
            if anchor is not orig:
                self.fail(
                    f"{fused.node_label()} anchor is not the subtree "
                    "it replaced"
                )
            self.check_spec(fused.spec, orig)
            build = getattr(fused, "build", None)
            if build is not None:
                if isinstance(orig, HashJoin):
                    self.compare(build, orig.build)
                else:
                    self.fail(
                        "probe-sink driver replaced a non-HashJoin node"
                    )
            return
        # Generic residue: same node type, same local fields, recurse.
        if type(fused) is not type(orig):
            self.fail(
                f"rewrite changed a {type(orig).__name__} node into "
                f"{type(fused).__name__}"
            )
            return
        self._compare_locals(fused, orig)
        for attr in _NODE_CHILDREN.get(type(fused), ()):
            self.compare(getattr(fused, attr), getattr(orig, attr))

    def _spec_quiet_eq(self, a, b) -> bool:
        """Spec equality without emitting findings (identity fallback)."""
        probe = RewriteChecker(self.subject, self.db)
        return probe._specs_equal(a, b)

    def _specs_equal(self, a, b) -> bool:
        if (
            a.relation != b.relation
            or a.ctid != b.ctid
            or a.sink != b.sink
            or a.join_type != b.join_type
            or a.probe_idx != b.probe_idx
            or a.build_width != b.build_width
            or not expr_equal(a.qual, b.qual)
        ):
            return False
        for mine, theirs in (
            (a.output or [], b.output or []),
            (a.group_exprs, b.group_exprs),
        ):
            if len(mine) != len(theirs) or not all(
                expr_equal(x, y) for x, y in zip(mine, theirs)
            ):
                return False
        return len(a.aggs) == len(b.aggs) and all(
            agg_spec_equal(x, y) for x, y in zip(a.aggs, b.aggs)
        )

    def _compare_locals(self, fused: PlanNode, orig: PlanNode) -> None:
        label = type(orig).__name__
        for field_name in _NODE_SCALARS.get(type(orig), ()):
            if getattr(fused, field_name, None) != getattr(
                orig, field_name, None
            ):
                self.fail(
                    f"rewrite changed {label}.{field_name} on an unfused "
                    "node"
                )
        pairs: list[tuple[E.Expr | None, E.Expr | None, str]] = []
        if isinstance(orig, Filter):
            pairs.append((fused.qual, orig.qual, "qual"))
        elif isinstance(orig, HashJoin):
            pairs.append((fused.extra_qual, orig.extra_qual, "extra_qual"))
        elif isinstance(orig, NestLoop):
            pairs.append((fused.qual, orig.qual, "qual"))
        elif isinstance(orig, Project):
            for left, right in zip(fused.exprs, orig.exprs):
                pairs.append((left, right, "exprs"))
        elif isinstance(orig, Sort):
            for (le, ld), (re_, rd) in zip(fused.keys, orig.keys):
                if ld != rd:
                    self.fail("rewrite flipped a Sort key direction")
                pairs.append((le, re_, "keys"))
        elif isinstance(orig, HashAgg):
            for left, right in zip(fused.group_exprs, orig.group_exprs):
                pairs.append((left, right, "group_exprs"))
            if len(fused.aggs) != len(orig.aggs) or not all(
                agg_spec_equal(x, y)
                for x, y in zip(fused.aggs, orig.aggs)
            ):
                self.fail("rewrite changed HashAgg aggregate specs")
        for left, right, field_name in pairs:
            if (left is None) != (right is None) or (
                left is not None and not expr_equal(left, right)
            ):
                self.fail(
                    f"rewrite changed {label}.{field_name} on an unfused "
                    "node"
                )

    # -- spec replay --------------------------------------------------------

    def check_spec(self, spec, replaced: PlanNode) -> None:
        """Replay *spec* against the subtree it claims to have replaced."""
        if _is_driver(replaced):
            # Cached vector spec anchored on a pipeline driver: the two
            # tiers share the spec; replay against the inner anchor.
            if spec is not replaced.spec and not self._spec_quiet_eq(
                spec, replaced.spec
            ):
                self.fail(
                    "vector spec differs from the pipeline spec it shadows"
                )
            self.check_spec(replaced.spec, replaced.anchor)
            return
        if spec.sink == "rows":
            chain = self._match_chain(replaced, allow_projection=True)
            if chain is None:
                self.fail("rows-sink spec replaced a non-scan-chain subtree")
                return
            self._check_chain(spec, *chain)
        elif spec.sink == "probe":
            if not isinstance(replaced, HashJoin):
                self.fail("probe-sink spec replaced a non-HashJoin subtree")
                return
            if replaced.extra_qual is not None:
                self.fail(
                    "rewrite lost the residual join qualification: "
                    "fusion must decline joins with extra_qual"
                )
            if spec.join_type != replaced.join_type:
                self.fail(
                    f"spec join_type {spec.join_type!r} differs from the "
                    f"replaced join's {replaced.join_type!r}"
                )
            if tuple(spec.probe_idx) != tuple(replaced.probe_idx):
                self.fail(
                    f"spec probe keys {tuple(spec.probe_idx)} differ from "
                    f"the replaced join's {tuple(replaced.probe_idx)}"
                )
            expected_width = (
                len(replaced.build.columns) if replaced.build.columns else 0
            )
            if spec.build_width != expected_width:
                self.fail(
                    f"spec build_width {spec.build_width} differs from the "
                    f"build side's row width {expected_width}"
                )
            chain = self._match_chain(replaced.probe, allow_projection=False)
            if chain is None:
                self.fail("probe-sink spec's probe side is not a scan chain")
                return
            self._check_chain(spec, *chain)
        elif spec.sink == "agg":
            if not isinstance(replaced, HashAgg):
                self.fail("agg-sink spec replaced a non-HashAgg subtree")
                return
            if len(spec.group_exprs) != len(replaced.group_exprs) or not all(
                expr_equal(a, b)
                for a, b in zip(spec.group_exprs, replaced.group_exprs)
            ):
                self.fail(
                    "spec group expressions differ from the replaced "
                    "HashAgg's"
                )
            if len(spec.aggs) != len(replaced.aggs) or not all(
                agg_spec_equal(a, b)
                for a, b in zip(spec.aggs, replaced.aggs)
            ):
                self.fail(
                    "spec aggregate specs differ from the replaced "
                    "HashAgg's"
                )
            chain = self._match_chain(replaced.child, allow_projection=False)
            if chain is None:
                self.fail("agg-sink spec's input is not a scan chain")
                return
            self._check_chain(spec, *chain)
        else:
            self.fail(f"unknown pipeline sink {spec.sink!r}")

    def _match_chain(self, node: PlanNode, allow_projection: bool):
        """Independent re-match of ``[Project|ColumnSelect]?
        (Filter|Rename)* SeqScan`` (mirrors the fuser's language)."""
        labels: list[str] = []
        projection: list | None = None
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
        quals: list[E.Expr] = []
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
        labels.append(
            f"SeqScan({node.relation}{'+ctid' if node.ctid else ''})"
        )
        return node, quals, projection, tuple(labels)

    def _check_chain(
        self,
        spec,
        scan: SeqScan,
        quals: list[E.Expr],
        projection: list | None,
        labels: tuple,
    ) -> None:
        if spec.relation != scan.relation:
            self.fail(
                f"spec scans {spec.relation!r} but the replaced chain "
                f"scans {scan.relation!r}"
            )
            return
        try:
            rel = self.db.relation(scan.relation)
        except KeyError:
            self.fail(f"spec relation {scan.relation!r} no longer exists")
            return
        if spec.layout is not rel.layout:
            self.fail(
                f"spec embeds a stale layout for {scan.relation!r} "
                "(not the catalog's current TupleLayout)"
            )
        if spec.ctid != scan.ctid:
            self.fail(
                f"spec ctid={spec.ctid} but the replaced scan has "
                f"ctid={scan.ctid}: the routine's row width is wrong"
            )
        elif spec.ctid and spec.sink != "rows":
            self.fail(
                f"{spec.sink}-sink spec over a ctid scan: only the rows "
                "sink carries the tuple identifier"
            )
        if not quals:
            expected_qual = None
        elif len(quals) == 1:
            expected_qual = quals[0]
        else:
            expected_qual = E.And(*quals)
        if (spec.qual is None) != (expected_qual is None) or (
            spec.qual is not None and not expr_equal(spec.qual, expected_qual)
        ):
            if spec.qual is None and expected_qual is not None:
                self.fail(
                    "rewrite lost a residual qualification: the replaced "
                    f"chain filters with {expected_qual!r} but the spec "
                    "is unfiltered"
                )
            else:
                self.fail(
                    f"spec qualification {spec.qual!r} differs from the "
                    f"replaced chain's {expected_qual!r}"
                )
        spec_output = spec.output
        if (spec_output is None) != (projection is None):
            self.fail(
                "spec projection presence differs from the replaced chain"
            )
        elif spec_output is not None and projection is not None:
            if len(spec_output) != len(projection) or not all(
                expr_equal(a, b) for a, b in zip(spec_output, projection)
            ):
                self.fail(
                    "spec projection differs from the replaced chain's "
                    "target list"
                )
        if tuple(spec.fused_nodes) != labels:
            self.fail(
                f"spec fused-node trail {tuple(spec.fused_nodes)} differs "
                f"from the replaced chain {labels}"
            )


def check_fusion(
    plan: PlanNode, db, subject: str
) -> tuple[list[Finding], int]:
    """Stack *plan* through every tier and prove each result equivalent.

    One replay per row of :data:`repro.bees.drivers.TIERS`, bottom-up,
    each tier's ``stack`` applied to the plan the tier below produced —
    what ``stack_tiers`` does with every flag on — so a new tier row is
    replayed by construction.  Upper-tier drivers carry the same spec
    object as the driver they wrap, so the driver-on-driver stacking
    rules apply unchanged: a node that invented its own spec (or
    grafted a build subtree that no longer replays against the original
    join's build side) is a finding.
    """
    from repro.bees.drivers import TIERS

    checker = RewriteChecker(subject, db)
    rewritten = plan
    for tier in TIERS:
        try:
            rewritten = tier.stack(rewritten, db)
        except Exception as exc:    # noqa: BLE001 - a crashing rewriter is a finding
            checker.fail(
                f"{tier.name} tier's rewrite raised "
                f"{type(exc).__name__}: {exc}"
            )
            break
        checker.compare(rewritten, plan)
    return checker.findings, checker.rewrites_checked


def check_cached_spec(
    spec, anchor: PlanNode, db, subject: str
) -> tuple[list[Finding], int]:
    """Replay one memoized driver spec against its cached anchor."""
    checker = RewriteChecker(subject, db)
    checker.rewrites_checked += 1
    checker.check_spec(spec, anchor)
    return checker.findings, checker.rewrites_checked
