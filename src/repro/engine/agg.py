"""Aggregation: hash aggregation with optional grouping.

Output rows are group-key values followed by aggregate results, in the
order given.  A grand aggregate (no GROUP BY) emits exactly one row even
for empty input, per SQL.  Aggregation is deliberately *not*
micro-specialized: the paper names it as remaining future work and points
at it to explain the lower improvements of q1/q9/q16/q18.
"""

from __future__ import annotations

from typing import Iterator

from repro.cost import constants as C
from repro.engine.aggregates import AggSpec
from repro.engine.expr import Expr, bind, static_nullable
from repro.engine.nodes import ExecContext, PlanNode, Row, output_nullability

_COUNT_STAR = object()


class HashAgg(PlanNode):
    """Hash-based grouping and aggregation."""

    def __init__(
        self,
        child: PlanNode,
        group_by: list[tuple[Expr, str]],
        aggs: list[AggSpec],
    ) -> None:
        self.child = child
        self.group_exprs = [bind(expr, child.columns) for expr, _n in group_by]
        self.group_names = [name for _e, name in group_by]
        self.aggs = aggs
        # One object per node: the AGG routine memo keys on its identity,
        # so a re-executed plan finds the routine it generated.
        self._agg_key = tuple(aggs)
        for spec in aggs:
            if spec.arg is not None:
                bind(spec.arg, child.columns)
        self.columns = self.group_names + [spec.name for spec in aggs]
        # Nullability: count never returns NULL; sum/avg/min/max do on an
        # empty (grand) input, and within a group only when the argument
        # itself can be NULL (an all-NULL group yields NULL).
        child_nullable = output_nullability(child)
        grand = not self.group_exprs
        self.nullable = [
            static_nullable(expr, child_nullable) for expr in self.group_exprs
        ]
        for spec in aggs:
            if spec.func == "count":
                self.nullable.append(False)
            elif grand or spec.arg is None:
                self.nullable.append(True)
            else:
                self.nullable.append(static_nullable(spec.arg, child_nullable))

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def node_label(self) -> str:
        aggs = ", ".join(spec.name for spec in self.aggs)
        return f"HashAgg(by {self.group_names}; {aggs})"

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        charge = ctx.ledger.charge
        group_exprs = self.group_exprs
        aggs = self.aggs
        key_cost = sum(expr.generic_cost for expr in group_exprs)
        # Experimental AGG bee routine (the paper's Section VIII future
        # work): the transition loop is generated with argument
        # expressions constant-folded; it charges its own specialized cost.
        agg_routine = None
        agg_fn = None
        if getattr(ctx.settings, "agg", False) and aggs:
            shield = ctx.shield
            if shield is None:
                agg_routine = ctx.bees.get_agg(self._agg_key)
                agg_fn = agg_routine.fn
            else:
                entry = shield.agg(ctx, self._agg_key)
                if entry is not None:
                    agg_routine, agg_bee_key = entry
                    agg_fn = shield.maybe_timed(
                        agg_routine.fn, "agg", agg_bee_key
                    )
        if agg_routine is not None:
            per_row = C.NODE_OVERHEAD + C.AGG_HASH_LOOKUP + key_cost
        else:
            arg_cost = sum(
                spec.arg.generic_cost if spec.arg is not None else 0
                for spec in aggs
            )
            per_row = (
                C.NODE_OVERHEAD
                + C.AGG_HASH_LOOKUP
                + C.AGG_TRANSITION * len(aggs)
                + arg_cost
                + key_cost
            )
        groups: dict[tuple, list] = {}
        grand = not group_exprs
        if grand:
            groups[()] = [spec.make_state() for spec in aggs]
        for row in self.child.rows(ctx):
            charge(per_row)
            key = () if grand else tuple(e.evaluate(row) for e in group_exprs)
            states = groups.get(key)
            if states is None:
                states = [spec.make_state() for spec in aggs]
                groups[key] = states
            if agg_fn is not None:
                agg_fn(row, states)
                continue
            for spec, state in zip(aggs, states):
                if spec.arg is None:
                    state.update(_COUNT_STAR)
                else:
                    value = spec.arg.evaluate(row)
                    if value is not None or spec.func != "count":
                        state.update(value)
        for key, states in groups.items():
            charge(C.NODE_OVERHEAD)
            yield list(key) + [state.result() for state in states]
