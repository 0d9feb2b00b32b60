"""Pass 1 — type flow: contracts through every plan node, plus the
cross-checks against what codegen assumes.

The node walk infers an output contract per node from the catalog up
(:mod:`repro.wagglecheck.contracts` owns the expression lattice) and
verifies, at each operator, the invariants the code generators bake in:

* scans: columns and nullability must match the catalog exactly;
* Filter: the qualification types as boolean, and the ``not_null``
  EVP-direct variant is only claimed over provably NOT NULL inputs;
* joins: probe/build key kinds are pairwise comparable;
* HashAgg: accumulator kinds fit the aggregate function;
* recorded per-node ``nullable`` vectors never erase inferred NULLs.

Per relation, :func:`check_relation` re-derives the physical layout
(stored offsets, widths, header geometry) from the catalog with an
independent walk and compares it to the ``TupleLayout`` codegen reads,
then checks the vector tier's dtype choice and NULL-mask presence
against the same contract.
"""

from __future__ import annotations

from repro.catalog.types import align_offset
from repro.engine import expr as E
from repro.engine.agg import HashAgg
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
    ValuesNode,
)
from repro.wagglecheck.contracts import (
    ColumnContract,
    TypeChecker,
    comparable,
    contracts_from_schema,
    kind_of_sql_type,
)
from repro.verify.report import Finding

#: Vector dtype family the columnar tier must choose per contract kind
#: (numpy dtype ``kind`` codes: i=signed int, b=bool, f=float, O=object).
_EXPECTED_DTYPE_KIND = {
    "int": "i",
    "date": "i",
    "bool": "b",
    "float": "f",
    "string": "O",
}


def _referenced_columns(expr: E.Expr, acc: set[int]) -> None:
    if isinstance(expr, E.Col):
        acc.add(expr.index)
    for child in expr.children():
        _referenced_columns(child, acc)


class PlanChecker(TypeChecker):
    """Walks a plan tree, inferring contracts and checking each node."""

    def __init__(self, subject: str, db) -> None:
        super().__init__(subject)
        self.db = db
        self.nodes_checked = 0

    # -- node dispatch ------------------------------------------------------

    def infer(self, node: PlanNode) -> list[ColumnContract]:
        """Infer *node*'s output contract, checking it along the way."""
        self.nodes_checked += 1
        if isinstance(node, (SeqScan, IndexScan)):
            return self._infer_scan(node)
        if isinstance(node, Filter):
            return self._infer_filter(node)
        if isinstance(node, Project):
            return self._infer_project(node)
        if isinstance(node, ColumnSelect):
            inputs = self.infer(node.child)
            indexes = getattr(node, "_indexes", [])
            out = [
                ColumnContract(
                    name=name,
                    kind=inputs[i].kind,
                    nullable=inputs[i].nullable,
                    width=inputs[i].width,
                    type_name=inputs[i].type_name,
                )
                if 0 <= i < len(inputs)
                else ColumnContract(name, "any", True)
                for name, i in zip(node.columns, indexes)
            ]
            self.check_recorded_nullability(node, "ColumnSelect", out)
            return out
        if isinstance(node, Rename):
            inputs = self.infer(node.child)
            out = [
                ColumnContract(
                    name=name,
                    kind=contract.kind,
                    nullable=contract.nullable,
                    width=contract.width,
                    type_name=contract.type_name,
                )
                for name, contract in zip(node.columns, inputs)
            ]
            self.check_recorded_nullability(node, "Rename", out)
            return out
        if isinstance(node, Sort):
            inputs = self.infer(node.child)
            for key_expr, _desc in node.keys:
                self.type_expr(key_expr, inputs)
            self.check_recorded_nullability(node, "Sort", inputs)
            return inputs
        if isinstance(node, (Limit, Materialize)):
            inputs = self.infer(node.child)
            self.check_recorded_nullability(
                node, type(node).__name__, inputs
            )
            return inputs
        if isinstance(node, HashJoin):
            return self._infer_hash_join(node)
        if isinstance(node, NestLoop):
            return self._infer_nest_loop(node)
        if isinstance(node, MergeJoin):
            return self._infer_merge_join(node)
        if isinstance(node, HashAgg):
            return self._infer_agg(node)
        if isinstance(node, ValuesNode):
            recorded = getattr(node, "nullable", None)
            return [
                ColumnContract(
                    name=name,
                    kind="any",
                    nullable=(
                        recorded[i]
                        if isinstance(recorded, list)
                        and len(recorded) == len(node.columns)
                        else True
                    ),
                )
                for i, name in enumerate(node.columns)
            ]
        anchor = getattr(node, "anchor", None)
        if anchor is not None and hasattr(node, "spec"):
            # Pipeline/vector driver: the contract is the anchor's.
            return self.infer(anchor)
        # Unknown operator (future work lands here): conservative contract,
        # children still checked.
        for child in node.children():
            self.infer(child)
        return [ColumnContract(name, "any", True) for name in node.columns]

    # -- per-node rules -----------------------------------------------------

    def _infer_scan(self, node) -> list[ColumnContract]:
        try:
            rel = self.db.relation(node.relation)
        except KeyError:
            self.fail(f"scan of unknown relation {node.relation!r}")
            return [ColumnContract(name, "any", True) for name in node.columns]
        contract = contracts_from_schema(rel.schema)
        if getattr(node, "ctid", False):
            # The tuple identifier a ctid scan carries: a packed int,
            # never NULL, legal only as this trailing column.
            contract.append(ColumnContract("ctid", "int", False, 8))
        expected = [column.name for column in contract]
        if node.columns and list(node.columns) != expected:
            self.fail(
                f"scan of {node.relation!r} disagrees with catalog columns: "
                f"{node.columns} vs {expected}"
            )
        self.check_recorded_nullability(
            node, f"scan({node.relation})", contract
        )
        return contract

    def _infer_filter(self, node: Filter) -> list[ColumnContract]:
        inputs = self.infer(node.child)
        qual_type = self.type_expr(node.qual, inputs)
        if qual_type.kind not in ("bool", "any"):
            self.fail(
                f"filter qualification is not boolean "
                f"({qual_type.kind}): {node.qual!r}"
            )
        if node.not_null:
            # The EVP direct variant elides NULL checks; it is only sound
            # when every referenced input column is provably NOT NULL.
            referenced: set[int] = set()
            _referenced_columns(node.qual, referenced)
            for index in sorted(referenced):
                if 0 <= index < len(inputs) and inputs[index].nullable:
                    self.fail(
                        "not_null EVP variant claimed over nullable "
                        f"column {inputs[index].name!r} in {node.qual!r}"
                    )
        if list(node.columns) != [c.name for c in inputs]:
            self.fail("Filter changed its child's output columns")
        self.check_recorded_nullability(node, "Filter", inputs)
        return inputs

    def _infer_project(self, node: Project) -> list[ColumnContract]:
        inputs = self.infer(node.child)
        out = [
            self.contract_of_expr(expr, name, inputs)
            for expr, name in zip(node.exprs, node.columns)
        ]
        self.check_recorded_nullability(node, "Project", out)
        return out

    def _join_key_check(
        self,
        label: str,
        left: list[ColumnContract],
        right: list[ColumnContract],
        left_idx,
        right_idx,
    ) -> None:
        for li, ri in zip(left_idx, right_idx):
            lc = left[li] if 0 <= li < len(left) else None
            rc = right[ri] if 0 <= ri < len(right) else None
            if lc is None or rc is None:
                self.fail(f"{label}: join key index out of range")
                continue
            if not comparable(lc.kind, rc.kind):
                self.fail(
                    f"{label}: join key type mismatch — "
                    f"{lc.name}({lc.kind}) vs {rc.name}({rc.kind})"
                )

    def _padded(self, side: list[ColumnContract]) -> list[ColumnContract]:
        """The NULL-padded (outer) version of one join side's contract."""
        return [
            ColumnContract(
                name=c.name,
                kind=c.kind,
                nullable=True,
                width=c.width,
                type_name=c.type_name,
            )
            for c in side
        ]

    def _infer_hash_join(self, node: HashJoin) -> list[ColumnContract]:
        probe = self.infer(node.probe)
        build = self.infer(node.build)
        self._join_key_check(
            "HashJoin", probe, build, node.probe_idx, node.build_idx
        )
        if node.join_type == "inner":
            out = probe + build
        elif node.join_type == "left":
            out = probe + self._padded(build)
        else:
            out = list(probe)
        if node.extra_qual is not None:
            qual_type = self.type_expr(node.extra_qual, probe + build)
            if qual_type.kind not in ("bool", "any"):
                self.fail(
                    f"HashJoin residual qual is not boolean "
                    f"({qual_type.kind}): {node.extra_qual!r}"
                )
        self.check_recorded_nullability(node, "HashJoin", out)
        return out

    def _infer_nest_loop(self, node: NestLoop) -> list[ColumnContract]:
        outer = self.infer(node.outer)
        inner = self.infer(node.inner)
        if node.join_type == "inner":
            out = outer + inner
        elif node.join_type == "left":
            out = outer + self._padded(inner)
        else:
            out = list(outer)
        if node.qual is not None:
            qual_type = self.type_expr(node.qual, outer + inner)
            if qual_type.kind not in ("bool", "any"):
                self.fail(
                    f"NestLoop qual is not boolean ({qual_type.kind}): "
                    f"{node.qual!r}"
                )
        self.check_recorded_nullability(node, "NestLoop", out)
        return out

    def _infer_merge_join(self, node: MergeJoin) -> list[ColumnContract]:
        left = self.infer(node.left)
        right = self.infer(node.right)
        self._join_key_check(
            "MergeJoin", left, right, [node.left_idx], [node.right_idx]
        )
        if node.join_type == "left":
            out = left + self._padded(right)
        else:
            out = left + right
        self.check_recorded_nullability(node, "MergeJoin", out)
        return out

    def _infer_agg(self, node: HashAgg) -> list[ColumnContract]:
        inputs = self.infer(node.child)
        out = [
            self.contract_of_expr(expr, name, inputs)
            for expr, name in zip(node.group_exprs, node.group_names)
        ]
        grand = not node.group_exprs
        for spec in node.aggs:
            if spec.arg is None:
                if spec.func != "count":
                    self.fail(
                        f"aggregate {spec.func}(*) only counts may omit "
                        "an argument"
                    )
                out.append(ColumnContract(spec.name, "int", False, 8))
                continue
            arg = self.type_expr(spec.arg, inputs)
            if spec.func in ("sum", "avg") and arg.kind in (
                "string", "date", "bool",
            ):
                self.fail(
                    f"agg accumulator mismatch: {spec.func}() over "
                    f"{arg.kind} argument {spec.arg!r}"
                )
            if spec.func == "count":
                out.append(ColumnContract(spec.name, "int", False, 8))
                continue
            if spec.func == "avg":
                kind = "float"
            elif spec.func == "sum":
                kind = arg.kind if arg.kind in ("int", "float") else "any"
            else:   # min / max keep the argument kind
                kind = arg.kind
            nullable = True if grand else arg.nullable
            out.append(ColumnContract(spec.name, kind, nullable))
        self.check_recorded_nullability(node, "HashAgg", out)
        return out


def check_plan(plan: PlanNode, db, subject: str) -> tuple[list[Finding], int]:
    """Run the typeflow pass over one plan tree."""
    checker = PlanChecker(subject, db)
    checker.infer(plan)
    return checker.findings, checker.nodes_checked


# ---------------------------------------------------------------------------
# Relation-level cross-checks: TupleLayout and the vector tier.
# ---------------------------------------------------------------------------


def _recompute_stored_offsets(stored_attrs) -> list[int]:
    """Independent re-derivation of the fixed data-area offsets codegen
    inlines (mirrors PostgreSQL's attcacheoff rule: walk in order, align
    per type, widths advance, unknown after the first varlena)."""
    offsets: list[int] = []
    offset = 0
    known = True
    for attr in stored_attrs:
        if not known:
            offsets.append(-1)
            continue
        offset = align_offset(offset, attr.sql_type.attalign)
        offsets.append(offset)
        if attr.sql_type.attlen >= 0:
            offset += attr.sql_type.attlen
        else:
            known = False
    return offsets


def check_relation(rel, subject: str) -> list[Finding]:
    """Cross-check one relation's physical layout and vector contract."""
    checker = TypeChecker(subject)
    schema = rel.schema
    layout = rel.layout

    # The layout must store exactly the non-annotated attributes, in
    # catalog order, at the widths the catalog declares.
    bee_set = set(layout.bee_attrs)
    expected_stored = [
        attr for attr in schema.attributes if attr.name not in bee_set
    ]
    stored = list(layout.stored_attrs)
    if [a.name for a in stored] != [a.name for a in expected_stored]:
        checker.fail(
            f"layout stores {[a.name for a in stored]} but the catalog "
            f"implies {[a.name for a in expected_stored]}"
        )
    else:
        for attr, expected in zip(stored, expected_stored):
            if attr.sql_type.attlen != expected.sql_type.attlen:
                checker.fail(
                    f"layout width narrowing on {attr.name!r}: layout "
                    f"stores {attr.sql_type.attlen} bytes, catalog "
                    f"declares {expected.sql_type.attlen}"
                )
            elif attr.sql_type.name != expected.sql_type.name:
                checker.fail(
                    f"layout type drift on {attr.name!r}: "
                    f"{attr.sql_type.name} vs catalog "
                    f"{expected.sql_type.name}"
                )
        expected_offsets = _recompute_stored_offsets(expected_stored)
        actual = [layout.stored_offset(i) for i in range(len(stored))]
        if actual != expected_offsets:
            checker.fail(
                f"layout offset skew: stored offsets {actual} differ from "
                f"the catalog-derived {expected_offsets}"
            )

    _check_vector_contract(checker, schema)
    return checker.findings


def _check_vector_contract(checker: TypeChecker, schema) -> None:
    """The columnar tier's dtype and NULL-mask choices per attribute."""
    try:
        import numpy as np

        from repro.bees.vector.chunks import chunk_from_rows
    except Exception:   # noqa: BLE001 - vector tier absent: nothing to check
        return
    chunk = chunk_from_rows(schema, [])
    for i, attr in enumerate(schema.attributes):
        kind = kind_of_sql_type(attr.sql_type)
        expected = _EXPECTED_DTYPE_KIND.get(kind)
        actual = np.asarray(chunk.cols[i]).dtype.kind
        if expected is not None and actual != expected:
            checker.fail(
                f"vector dtype mismatch on {attr.name!r}: chunk uses "
                f"dtype kind {actual!r}, contract kind {kind} needs "
                f"{expected!r}"
            )
        has_mask = chunk.nulls[i] is not None
        if has_mask != attr.nullable:
            checker.fail(
                f"vector NULL-mask presence disagrees with contract on "
                f"{attr.name!r}: mask={'yes' if has_mask else 'no'}, "
                f"nullable={attr.nullable}"
            )
