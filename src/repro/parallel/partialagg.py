"""Vector-form partial aggregation for worker morsels.

The serial vector tier's ``agg`` kernel groups **and finalizes** inside
the kernel, which makes its output unmergeable across morsels — so the
first cut of this tier ran aggregate morsels through the pipeline-form
per-row loop, and promptly lost to the serial vector tier: four workers
each ~25x slower per row is a net slowdown.

:func:`generate_partial_agg` closes that gap.  It reuses the vector
tier's kernel emitter — identical mask evaluation, compaction, and
insertion-ordered bucketing over the morsel chunk — but its epilogue
bulk-fills one :class:`~repro.engine.aggregates.AggState` per aggregate
per bucket (``count``/``total``/``extreme``/``seen``) instead of
producing finished rows.  The coordinator folds those partials with
``AggState.merge`` in morsel order and the parallel-tier fused driver
finalizes, so workers keep columnar speed while the result stays
combinable.  The folds inside each bucket are the same sequential
Python reductions the finalizing kernel runs (``sum``/``min``/``max``
over selected positions in row order); only the cross-morsel re-
association of float sums can differ from serial, in the last ulps.

The charge formula is the finalizing agg kernel's, verbatim:
``_C0 + _C1 * n + _C2 * _m`` with the same ``VEC_*`` constants — the
per-row work is identical and state construction replaces row emission
in the per-group epilogue.
"""

from __future__ import annotations

from repro.cost import constants as C
from repro.bees.routines.base import (
    BeeRoutine,
    compile_routine,
    proto_entry,
)
from repro.bees.vector.codegen import (
    PipelineSpec,
    _div,
    _expr_charge,
    _expr_nodes,
    _KernelEmitter,
    _materialize,
    _obj,
    _vectorizable,
    np,
)
from repro.engine import expr as E


def generate_partial_agg(
    spec: PipelineSpec, ledger, fn_name: str, code_cache=None
) -> BeeRoutine:
    """Compile *spec* (an ``agg`` sink) into a partial-agg kernel.

    The generated ``fn(cols, nulls, n) -> list[(group_key, [AggState])]``
    runs over one morsel chunk; pairs arrive in first-seen group order.
    A grand aggregate (no GROUP BY) always yields its single ``()``
    bucket, even over zero selected rows, matching ``HashAgg``.
    """
    if spec.sink != "agg":
        raise ValueError("partial-agg kernels require an agg-sink spec")
    layout = spec.layout
    schema = layout.schema
    exprs = list(spec.group_exprs) + [
        s.arg for s in spec.aggs if s.arg is not None
    ]
    if spec.qual is not None:
        exprs.append(spec.qual)
    for expr in exprs:
        if not E.is_bound(expr):
            raise ValueError(
                "vector specialization requires bound expressions"
            )

    namespace = {
        "_np": np,
        "_charge": ledger.charge_fn,
        "_obj": _obj,
        "_materialize": _materialize,
        "_div": _div,
    }
    em = _KernelEmitter(namespace, schema)
    header = [
        f"def {proto_entry(fn_name)}(cols, nulls, n):",
        f'    """Partial-agg kernel over relation '
        f'{spec.relation!r} (generated)."""',
    ]

    # -- selection: same one-mask/one-compaction shape as generate_vector --
    qual_cost = 0
    if spec.qual is None:
        mask = "True"
    elif _vectorizable(spec.qual, schema):
        mask, _u = em.emit(spec.qual)
        qual_cost = C.VEC_KERNEL_PER_VALUE * _expr_nodes(spec.qual)
    else:
        mask = em.object_mask(spec.qual)
        qual_cost = spec.qual.generic_cost
    if mask == "True":
        em.lines.append("    _m = n")
    elif mask == "False":
        nosel = np.array([], dtype=np.intp)
        nosel.setflags(write=False)  # captured state must be frozen
        namespace["_NOSEL"] = nosel
        em.lines.append("    _idx = _NOSEL")
        em.lines.append("    _m = 0")
        em.gather = "[_idx]"
    else:
        em.lines.append(f"    _idx = _np.nonzero({mask})[0]")
        em.lines.append("    _m = len(_idx)")
        em.gather = "[_idx]"

    # -- bucketing (identical to the finalizing kernel) --------------------
    group_lists = [em.output_list(expr) for expr in spec.group_exprs]
    arg_lists = {}
    for i, agg in enumerate(spec.aggs):
        if agg.arg is not None:
            arg_lists[i] = em.output_list(agg.arg)
    if spec.group_exprs:
        key = ", ".join(f"{g}[_i]" for g in group_lists)
        key_tuple = f"({key},)" if len(group_lists) == 1 else f"({key})"
        em.lines.append("    _buckets = {}")
        em.lines.append("    for _i in range(_m):")
        em.lines.append(f"        _k = {key_tuple}")
        em.lines.append("        _b = _buckets.get(_k)")
        em.lines.append("        if _b is None:")
        em.lines.append("            _buckets[_k] = _b = []")
        em.lines.append("        _b.append(_i)")
    else:
        em.lines.append("    _buckets = {(): list(range(_m))}")

    # -- epilogue: bulk-fill one mergeable state per agg per bucket --------
    em.lines.append("    out = []")
    em.lines.append("    for _k, _ix in _buckets.items():")
    em.lines.append("        _states = []")
    for i, agg in enumerate(spec.aggs):
        mk = f"_mk{i}"
        namespace[mk] = agg.make_state
        em.lines.append(f"        _s = {mk}()")
        if agg.arg is None:   # count(*): every bucketed row counts
            em.lines.append("        _s.count = len(_ix)")
            em.lines.append("        _states.append(_s)")
            continue
        values = arg_lists[i]
        if agg.distinct:
            em.lines.append(
                f"        _s.seen = {{v for v in "
                f"({values}[_i] for _i in _ix) if v is not None}}"
            )
            em.lines.append("        _states.append(_s)")
            continue
        # Sequential Python folds over the selected positions, in row
        # order: the same reductions the finalizing kernel runs.
        em.lines.append(
            f"        _vals = [v for v in "
            f"({values}[_i] for _i in _ix) if v is not None]"
        )
        em.lines.append("        _s.count = len(_vals)")
        if agg.func in ("sum", "avg"):
            em.lines.append("        _s.total = sum(_vals)")
        elif agg.func == "min":
            em.lines.append(
                "        _s.extreme = min(_vals) if _vals else None"
            )
        elif agg.func == "max":
            em.lines.append(
                "        _s.extreme = max(_vals) if _vals else None"
            )
        em.lines.append("        _states.append(_s)")
    em.lines.append("        out.append((_k, _states))")

    c1 = C.VEC_SELECT_PER_ROW + qual_cost
    costs = {
        "_C0": C.VEC_KERNEL_DISPATCH,
        "_C1": c1,
        "_C2": (
            C.VEC_GROUP_PER_ROW
            + C.VEC_EMIT_PER_COLUMN
            * (len(spec.group_exprs) + len(arg_lists))
            + sum(_expr_charge(expr, schema) for expr in spec.group_exprs)
            + sum(
                _expr_charge(agg.arg, schema)
                for agg in spec.aggs
                if agg.arg is not None
            )
        ),
    }
    namespace.update(costs)
    em.lines.append("    _charge(_NAME, _C0 + _C1 * n + _C2 * _m)")
    em.lines.append("    return out")
    source = "\n".join(header + em.lines) + "\n"
    fn = compile_routine(source, fn_name, namespace, code_cache)
    return BeeRoutine(
        name=fn_name, fn=fn, cost=c1, source=source, namespace=namespace,
    )


__all__ = ["generate_partial_agg"]
