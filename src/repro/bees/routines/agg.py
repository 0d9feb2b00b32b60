"""AGG — experimental aggregation-transition bee routine.

The paper's Section VIII names aggregation as the next micro-specialization
target (q1/q9/q16/q18 improve least because their aggregation work is not
specialized).  This routine implements that future work: for a HashAgg
node's aggregate list, it generates one straight-line function that
evaluates every aggregate argument with constants folded (EVP-style) and
feeds the accumulators, replacing the per-aggregate
``advance_transition_function`` dispatch.

Enabled by the experimental ``BeeSettings.agg`` flag (off in
``all_bees()``, which mirrors the paper's evaluated system; see
``BeeSettings.future()``).
"""

from __future__ import annotations

from repro.cost import constants as C
from repro.bees.emit import finish
from repro.bees.routines.base import BeeRoutine
from repro.bees.routines.evp import _Emitter, _emit_direct, _emit_guarded

# Specialized per-row transition cost per aggregate: the fmgr dispatch and
# transition-function indirection fold into inlined accumulator updates.
AGG_SPECIALIZED_PER_AGG = 12
AGG_SPECIALIZED_PROLOGUE = 10


def agg_routine_cost(specs, assume_not_null: bool) -> int:
    """Per-input-row cost of the generated AGG routine."""
    cost = AGG_SPECIALIZED_PROLOGUE
    for spec in specs:
        cost += AGG_SPECIALIZED_PER_AGG
        if spec.arg is not None:
            cost += spec.arg.evp_cost
    return cost


def generate_agg(
    specs,
    ledger,
    fn_name: str,
    assume_not_null: bool = False,
    code_cache=None,
) -> BeeRoutine:
    """Generate the specialized transition function for *specs*.

    The generated function has signature ``fn(row, states)`` where
    ``states`` is the per-group accumulator list; it performs exactly the
    updates :class:`repro.engine.agg.HashAgg` would make generically.
    Like EVP the source is a proto-bee (``_NAME`` / ``_K{n}`` holes).
    """
    cost = agg_routine_cost(specs, assume_not_null)
    em = _Emitter()
    namespace = em.holes.namespace
    namespace["_charge"] = ledger.charge_fn
    namespace["_COST"] = cost
    body = [
        '    """Specialized aggregate transition (generated)."""',
        "    _charge(_NAME, _COST)",
    ]
    for i, spec in enumerate(specs):
        if spec.arg is None:
            body.append(f"    states[{i}].update(None)")   # count(*)
            continue
        if assume_not_null:
            value = _emit_direct(spec.arg, em)
            tested = f"({value})"
        else:
            value = tested = _emit_guarded(spec.arg, em)
        body.extend(em.lines)
        em.lines = []
        if spec.func == "count":
            body.append(f"    if {tested} is not None:")
            body.append(f"        states[{i}].update({value})")
        else:
            body.append(f"    states[{i}].update({value})")
    return finish(
        fn_name, "row, states", body, namespace,
        ["_NAME"] + em.holes.consts, cost, code_cache, em.holes.binds,
    )


def generic_transition_cost(specs) -> int:
    """What the generic HashAgg charges per row for the same aggregates."""
    return C.AGG_TRANSITION * len(specs) + sum(
        spec.arg.generic_cost if spec.arg is not None else 0 for spec in specs
    )
