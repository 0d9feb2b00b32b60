"""Join nodes: hash, sort-merge, and nested-loop joins.

The generic implementations interpret a ``JoinState``-like description per
candidate tuple pair (join-type branch + fmgr key comparison); with the EVJ
query bee enabled, the per-pair charge drops to the specialized routine's
cost while producing identical results.  SQL semantics: NULL join keys
never match.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Iterator

from repro.cost import constants as C
from repro.bees.routines.evj import GENERIC_JOIN
from repro.engine.expr import Expr, bind
from repro.engine.nodes import ExecContext, PlanNode, Row, output_nullability

JOIN_TYPES = ("inner", "left", "semi", "anti")


def _key_indexes(columns: list[str], keys: list) -> list[int]:
    """Resolve key specs (column names) to row indexes."""
    indexes = []
    for key in keys:
        if isinstance(key, str):
            try:
                indexes.append(columns.index(key))
            except ValueError:
                raise KeyError(
                    f"join key {key!r} not in columns {columns}"
                ) from None
        else:
            raise TypeError("join keys must be column names")
    return indexes


class HashJoin(PlanNode):
    """Equi-join: build a hash table on the build side, probe with the other.

    Args:
        probe: the outer (probed) input — also the side emitted by
            left/semi/anti joins.
        build: the inner (hashed) input.
        probe_keys / build_keys: column names, positionally paired.
        join_type: ``inner``, ``left``, ``semi``, or ``anti``.
        extra_qual: residual predicate over the concatenated row
            (inner/left only).
        not_null: planner hint that qual inputs are NOT NULL (EVP variant).
    """

    def __init__(
        self,
        probe: PlanNode,
        build: PlanNode,
        probe_keys: list[str],
        build_keys: list[str],
        join_type: str = "inner",
        extra_qual: Expr | None = None,
        not_null: bool = False,
    ) -> None:
        if join_type not in JOIN_TYPES:
            raise ValueError(f"unknown join type {join_type!r}")
        if len(probe_keys) != len(build_keys) or not probe_keys:
            raise ValueError("probe and build keys must pair up (>=1)")
        self.probe = probe
        self.build = build
        self.join_type = join_type
        self.probe_idx = _key_indexes(probe.columns, probe_keys)
        self.build_idx = _key_indexes(build.columns, build_keys)
        self.not_null = not_null
        if join_type == "inner":
            self.columns = list(probe.columns) + list(build.columns)
            self.nullable = output_nullability(probe) + output_nullability(build)
        elif join_type == "left":
            # Unmatched probe rows are padded with NULLs on the build side.
            self.columns = list(probe.columns) + list(build.columns)
            self.nullable = output_nullability(probe) + [True] * len(build.columns)
        else:
            self.columns = list(probe.columns)
            self.nullable = output_nullability(probe)
        self.extra_qual = (
            bind(extra_qual, list(probe.columns) + list(build.columns))
            if extra_qual is not None
            else None
        )
        if extra_qual is not None and join_type not in ("inner", "left", "semi", "anti"):
            raise ValueError("extra_qual unsupported for this join type")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.probe, self.build)

    def node_label(self) -> str:
        return f"HashJoin({self.join_type}, {len(self.probe_idx)} keys)"

    def build_table(self, ctx: ExecContext, build: PlanNode) -> dict:
        """The build phase: hash *build*'s rows on this join's build keys.

        Every hash-join build goes through here — ``rows`` below with
        the join's own build child, the fused drivers with the fused
        subtree that replaced it — so the phase is charged identically
        on every tier.
        """
        build_idx = self.build_idx
        build_cost = (
            C.NODE_OVERHEAD
            + C.JOIN_HASH_COMPUTE
            + C.EXPR_COLUMN * len(build_idx)
        )
        # The build always drains its input (unlike the probe loop, which
        # LIMIT can abandon), so it is charged once, by row count.
        rows = list(build.rows(ctx))
        ctx.ledger.charge(build_cost * len(rows))
        table: dict[tuple, list[Row]] = defaultdict(list)
        if len(build_idx) == 1:
            (i,) = build_idx
            for row in rows:
                value = row[i]
                if value is not None:       # NULL keys never match
                    table[(value,)].append(row)
        else:
            key_of = itemgetter(*build_idx)
            for row in rows:
                key = key_of(row)
                if None not in key:
                    table[key].append(row)
        table.default_factory = None   # misses must not insert from here on
        return table

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        ledger = ctx.ledger
        charge = ledger.charge
        shield = ctx.shield
        n_keys = len(self.probe_idx)
        evj = None
        if ctx.settings.evj:
            if shield is None:
                evj = ctx.bees.get_evj(self.join_type, n_keys)
            else:
                evj = shield.evj(ctx, self.join_type, n_keys)
        if evj is not None:
            compare_cost = evj.cost_per_compare
            compare_fn_name = evj.name
        else:
            compare_cost = GENERIC_JOIN.per_compare(n_keys)
            compare_fn_name = "ExecHashJoin"

        table = self.build_table(ctx, self.build)

        # Probe phase.
        probe_idx = self.probe_idx
        probe_cost = (
            C.NODE_OVERHEAD
            + C.JOIN_HASH_COMPUTE
            + C.JOIN_HASH_PROBE
            + C.EXPR_COLUMN * n_keys
        )
        join_type = self.join_type
        extra = self.extra_qual
        extra_fn = None
        extra_cost = 0
        if extra is not None and ctx.settings.evj:
            if shield is None:
                extra_fn = ctx.bees.get_evp(self, extra, self.not_null).fn
            else:
                entry = shield.predicate(
                    ctx, self, extra, self.not_null, checked=True
                )
                if entry is not None:
                    extra_fn = entry[0]
            # extra_cost stays 0: the routine charges itself.
        if extra is not None and extra_fn is None:
            extra_fn = extra.evaluate
            extra_cost = extra.generic_cost

        build_width = len(self.build.columns)
        for row in self.probe.rows(ctx):
            charge(probe_cost)
            key = tuple(row[i] for i in probe_idx)
            candidates = table.get(key, ()) if None not in key else ()
            if candidates:
                ledger.charge_fn(compare_fn_name, compare_cost * len(candidates))
            matched = False
            for build_row in candidates:
                if extra_fn is not None:
                    if extra_cost:
                        charge(extra_cost)
                    joined = row + build_row
                    if extra_fn(joined) is not True:
                        continue
                    matched = True
                    if join_type in ("inner", "left"):
                        charge(C.JOIN_EMIT)
                        yield joined
                    elif join_type == "semi":
                        break
                    else:  # anti: a surviving match suppresses emission
                        break
                else:
                    matched = True
                    if join_type in ("inner", "left"):
                        charge(C.JOIN_EMIT)
                        yield row + build_row
                    elif join_type == "semi":
                        break
                    else:
                        break
            if join_type == "semi" and matched:
                charge(C.JOIN_EMIT)
                yield row
            elif join_type == "anti" and not matched:
                charge(C.JOIN_EMIT)
                yield row
            elif join_type == "left" and not matched:
                charge(C.JOIN_EMIT)
                yield row + [None] * build_width


class NestLoop(PlanNode):
    """Nested-loop join over a materialized inner, for non-equi conditions."""

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        join_type: str = "inner",
        qual: Expr | None = None,
        not_null: bool = False,
    ) -> None:
        if join_type not in JOIN_TYPES:
            raise ValueError(f"unknown join type {join_type!r}")
        self.outer = outer
        self.inner = inner
        self.join_type = join_type
        self.not_null = not_null
        if join_type == "inner":
            self.columns = list(outer.columns) + list(inner.columns)
            self.nullable = output_nullability(outer) + output_nullability(inner)
        elif join_type == "left":
            self.columns = list(outer.columns) + list(inner.columns)
            self.nullable = output_nullability(outer) + [True] * len(inner.columns)
        else:
            self.columns = list(outer.columns)
            self.nullable = output_nullability(outer)
        self.qual = (
            bind(qual, list(outer.columns) + list(inner.columns))
            if qual is not None
            else None
        )

    def children(self) -> tuple[PlanNode, ...]:
        return (self.outer, self.inner)

    def node_label(self) -> str:
        return f"NestLoop({self.join_type})"

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        ledger = ctx.ledger
        charge = ledger.charge
        shield = ctx.shield
        inner_rows = list(self.inner.rows(ctx))
        charge(C.MATERIALIZE_ROW * len(inner_rows))
        evj = None
        if ctx.settings.evj:
            if shield is None:
                evj = ctx.bees.get_evj(self.join_type, 0)
            else:
                evj = shield.evj(ctx, self.join_type, 0)
        if evj is not None:
            pair_cost = evj.cost_per_compare
            fn_name = evj.name
        else:
            pair_cost = GENERIC_JOIN.per_compare(0)
            fn_name = "ExecNestLoop"
        qual = self.qual
        qual_fn = None
        qual_cost = 0
        if qual is not None and ctx.settings.evp:
            if shield is None:
                qual_fn = ctx.bees.get_evp(self, qual, self.not_null).fn
            else:
                entry = shield.predicate(
                    ctx, self, qual, self.not_null, checked=True
                )
                if entry is not None:
                    qual_fn = entry[0]
        if qual is not None and qual_fn is None:
            qual_fn = qual.evaluate
            qual_cost = qual.generic_cost
        join_type = self.join_type
        inner_width = len(self.inner.columns)

        for outer_row in self.outer.rows(ctx):
            charge(C.NODE_OVERHEAD)
            if inner_rows:
                ledger.charge_fn(fn_name, pair_cost * len(inner_rows))
            if qual_cost:
                charge(qual_cost * len(inner_rows))
            matched = False
            for inner_row in inner_rows:
                joined = outer_row + inner_row
                if qual_fn is not None and qual_fn(joined) is not True:
                    continue
                matched = True
                if join_type in ("inner", "left"):
                    charge(C.JOIN_EMIT)
                    yield joined
                else:
                    break
            if join_type == "semi" and matched:
                charge(C.JOIN_EMIT)
                yield outer_row
            elif join_type == "anti" and not matched:
                charge(C.JOIN_EMIT)
                yield outer_row
            elif join_type == "left" and not matched:
                charge(C.JOIN_EMIT)
                yield outer_row + [None] * inner_width


class MergeJoin(PlanNode):
    """Sort-merge equi-join over single-column keys.

    Inputs need not be pre-sorted: both sides are materialized and sorted
    on their key (charged like the Sort node), then merged in one pass.
    Chosen by hand-built plans when both inputs are large and the hash
    table would not fit; supports ``inner`` and ``left`` join types.
    NULL keys match nothing (SQL semantics) and sort last.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_key: str,
        right_key: str,
        join_type: str = "inner",
    ) -> None:
        if join_type not in ("inner", "left"):
            raise ValueError(
                f"MergeJoin supports inner/left, not {join_type!r}"
            )
        self.left = left
        self.right = right
        self.join_type = join_type
        self.left_idx = _key_indexes(left.columns, [left_key])[0]
        self.right_idx = _key_indexes(right.columns, [right_key])[0]
        self.columns = list(left.columns) + list(right.columns)
        if join_type == "left":
            self.nullable = (
                output_nullability(left) + [True] * len(right.columns)
            )
        else:
            self.nullable = output_nullability(left) + output_nullability(right)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def node_label(self) -> str:
        return f"MergeJoin({self.join_type})"

    @staticmethod
    def _sorted(rows: list, index: int, ledger) -> list:
        import math

        n = len(rows)
        comparisons = int(n * math.log2(n)) if n > 1 else 0
        ledger.charge_fn(
            "tuplesort", n * C.SORT_PER_ROW + comparisons * C.SORT_COMPARE
        )
        return sorted(
            rows, key=lambda row: (row[index] is None, row[index])
        )

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        ledger = ctx.ledger
        charge = ledger.charge
        shield = ctx.shield
        evj = None
        if ctx.settings.evj:
            if shield is None:
                evj = ctx.bees.get_evj(self.join_type, 1)
            else:
                evj = shield.evj(ctx, self.join_type, 1)
        if evj is not None:
            compare_cost = evj.cost_per_compare
            fn_name = evj.name
        else:
            compare_cost = GENERIC_JOIN.per_compare(1)
            fn_name = "ExecMergeJoin"

        left_rows = self._sorted(
            list(self.left.rows(ctx)), self.left_idx, ledger
        )
        right_rows = self._sorted(
            list(self.right.rows(ctx)), self.right_idx, ledger
        )
        li = self.left_idx
        ri = self.right_idx
        right_width = len(self.right.columns)
        left_join = self.join_type == "left"

        i = j = 0
        n_left, n_right = len(left_rows), len(right_rows)
        while i < n_left:
            left_row = left_rows[i]
            left_key = left_row[li]
            charge(C.NODE_OVERHEAD)
            if left_key is None:
                if left_join:
                    charge(C.JOIN_EMIT)
                    yield left_row + [None] * right_width
                i += 1
                continue
            # Advance the right side to the first key >= left_key.
            while j < n_right and (
                right_rows[j][ri] is not None
                and right_rows[j][ri] < left_key
            ):
                ledger.charge_fn(fn_name, compare_cost)
                j += 1
            # Collect the matching right group.
            k = j
            matched = False
            while k < n_right and right_rows[k][ri] == left_key:
                ledger.charge_fn(fn_name, compare_cost)
                charge(C.JOIN_EMIT)
                matched = True
                yield left_row + right_rows[k]
                k += 1
            if k < n_right:
                ledger.charge_fn(fn_name, compare_cost)   # the failed probe
            if not matched and left_join:
                charge(C.JOIN_EMIT)
                yield left_row + [None] * right_width
            i += 1
