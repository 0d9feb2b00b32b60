"""Beecheck's own bug-injection self-test.

A verifier that never rejects is indistinguishable from one that cannot.
This module proves beecheck fires on two families of broken generators:

* **PR 1's dynamic injections** (:mod:`repro.oracle.inject`): the broken
  GCL adds 1 to the first integer column, the broken EVP inverts
  verdicts.  The differential oracle needs a full query campaign to see
  these; beecheck's translation-validation lane flags them at
  *generation time*, before a single tuple flows through the routine.
* **Source-level tampers**: mutated generated source (offset bump,
  weakened alignment round, reordered result list, smuggled loop,
  inflated cost) recompiled through the routine's own data section.
  These are caught *statically* — by the lint shape grammar, the
  symbolic offset interpreter, or the cost audit — demonstrating the
  passes are not just re-running the oracle.

``run_selftest`` returns ``{case: caught}``; the CLI folds it into the
sweep report and exits nonzero on any miss.
"""

from __future__ import annotations

import dataclasses

from repro.bees.routines.base import compile_routine
from repro.cost.ledger import Ledger
from repro.engine import expr as E
from repro.storage.layout import TupleLayout
from repro.workloads.tpch.schema import ALL_SCHEMAS
from repro.beecheck.checker import (
    check_agg,
    check_evj,
    check_evp,
    check_gcl,
    check_gcl_cols,
    check_idx,
    check_pipeline,
    check_scl,
    check_vector,
)


def _tamper(routine, old: str, new: str):
    """Recompile *routine* with its source mutated (old -> new)."""
    source = routine.source.replace(old, new)
    if source == routine.source:
        raise AssertionError(
            f"tamper pattern {old!r} not found in {routine.name}"
        )
    namespace = dict(routine.namespace)
    fn = compile_routine(source, routine.name, namespace)
    return dataclasses.replace(
        routine, fn=fn, source=source, namespace=namespace
    )


def _passes_fired(report) -> set[str]:
    return {finding.pass_name for finding in report.findings}


def run_selftest() -> dict[str, bool]:
    """Run every self-test case; returns ``{case: caught}``."""
    from repro.bees import maker as maker_mod
    from repro.bees.drivers import PIPELINE, VECTOR
    from repro.oracle.inject import inject_bug

    results: dict[str, bool] = {}
    layout = TupleLayout(ALL_SCHEMAS["orders"]())
    expr = E.And(
        E.Cmp("<", E.Col("o_orderkey", 0), E.Const(1000)),
        E.Like(E.Col("o_clerk", 6), "Clerk%"),
    )

    # -- PR 1's injected generator bugs, caught before execution --
    with inject_bug("gcl"):
        routine = maker_mod.generate_gcl(layout, Ledger(), "GCL_selftest")
    report = check_gcl(routine, layout)
    results["inject-gcl"] = "transval" in _passes_fired(report)

    with inject_bug("evp"):
        routine = maker_mod.generate_evp(expr, Ledger(), "EVP_selftest")
    report = check_evp(routine, expr)
    results["inject-evp"] = "transval" in _passes_fired(report)

    # -- source-level tampers, caught statically --
    gcl = maker_mod.generate_gcl(layout, Ledger(), "GCL_selftest")
    scl = maker_mod.generate_scl(layout, Ledger(), "SCL_selftest")

    static = ("lint", "absint", "costaudit")

    def caught_statically(report) -> bool:
        return bool(_passes_fired(report) & set(static))

    tampered = _tamper(
        gcl, "raw[off + 4 : off + 4 + ln]", "raw[off + 5 : off + 5 + ln]"
    )
    results["tamper-gcl-offset"] = caught_statically(
        check_gcl(tampered, layout)
    )

    tampered = _tamper(gcl, "(off + 3) & -4", "(off + 1) & -2")
    results["tamper-gcl-align"] = caught_statically(
        check_gcl(tampered, layout)
    )

    tampered = _tamper(
        gcl, "    return [", "    for _i in range(1): pass\n    return ["
    )
    results["tamper-gcl-loop"] = caught_statically(check_gcl(tampered, layout))

    tampered = _tamper(gcl, "return [v0, v1", "return [v1, v0")
    results["tamper-gcl-reorder"] = caught_statically(
        check_gcl(tampered, layout)
    )

    # An ambient-state read smuggled into an EVP: `id(row)` parses, is
    # branch-free, and returns a bool-ish value, but its result varies
    # per process — the determinism rule (and the name whitelist) must
    # both reject it before the translation validator even runs.
    evp = maker_mod.generate_evp(expr, Ledger(), "EVP_selftest")
    tampered = _tamper(evp, "t3 = row[0]", "t3 = row[0] if id(row) > 0 else row[0]")
    results["tamper-evp-nondet"] = "determinism" in _passes_fired(
        check_evp(tampered, expr)
    )

    # Proto-bee discipline: a literal inlined back into the source is
    # the same predicate (the validator agrees) but a private shape, and
    # a _NAME hole filled with another routine's name books this one's
    # charges and faults elsewhere.  Only the lint can see either.
    tampered = _tamper(evp, "t4 = _K0", "t4 = 1000")
    results["tamper-evp-literal"] = _passes_fired(
        check_evp(tampered, expr)
    ) == {"lint"}

    tampered = dataclasses.replace(
        evp, namespace=dict(evp.namespace, _NAME="EVP_other")
    )
    results["tamper-evp-name-hole"] = _passes_fired(
        check_evp(tampered, expr)
    ) == {"lint"}

    tampered = dataclasses.replace(gcl, cost=gcl.cost + 10)
    results["tamper-gcl-cost"] = caught_statically(
        check_gcl(tampered, layout)
    )

    # The column sink shares the GCL grammar through a rewrite into its
    # row sink: two attributes appended to each other's columns leave
    # every offset intact and come back as a misordered row.
    gcl_cols = maker_mod.generate_gcl_columns(layout, "GCLC_selftest")
    tampered = _tamper(
        gcl_cols, "a0(v0)\n        a1(v1)", "a0(v1)\n        a1(v0)"
    )
    results["tamper-gclc-columns"] = caught_statically(
        check_gcl_cols(tampered, layout)
    )

    tampered = _tamper(scl, "pad = ((off + 3) & -4)", "pad = ((off + 1) & -2)")
    results["tamper-scl-pad"] = caught_statically(check_scl(tampered, layout))

    tampered = _tamper(scl, "_PREFIX.pack(values[0]", "_PREFIX.pack(values[7]")
    results["tamper-scl-argswap"] = caught_statically(
        check_scl(tampered, layout)
    )

    # -- EVJ / AGG / IDX tampers --
    from repro.bees.routines.agg import generate_agg
    from repro.bees.routines.evj import instantiate_evj
    from repro.bees.routines.idx import generate_idx
    from repro.engine.aggregates import AggSpec

    # EVJ routines are frozen C text with no namespace; tampering is a
    # plain source replace, no recompilation involved.
    evj = instantiate_evj("inner", 2, "evj_inner")
    tampered = dataclasses.replace(
        evj,
        source=evj.source.replace("outer[1] != inner[1]", "outer[1] != inner[0]"),
    )
    results["tamper-evj-key"] = not check_evj(tampered).ok

    anti = instantiate_evj("anti", 1, "evj_anti")
    tampered = dataclasses.replace(
        anti,
        source=anti.source.replace(
            "return false;  /* match suppresses emission */", "return true;"
        ),
    )
    results["tamper-evj-return"] = not check_evj(tampered).ok

    columns = ["p", "d"]
    specs = [
        AggSpec("sum", E.bind(E.Col("p"), columns), name="s"),
        AggSpec("count", name="n"),
    ]
    agg = generate_agg(specs, Ledger(), "AGG_selftest")

    tampered = _tamper(agg, "states[1].update", "states[0].update")
    results["tamper-agg-index"] = not check_agg(tampered, specs).ok

    tampered = dataclasses.replace(agg, cost=agg.cost + 10)
    results["tamper-agg-cost"] = caught_statically(check_agg(tampered, specs))

    idx = generate_idx([2, 0], Ledger(), "IDX_selftest")
    tampered = _tamper(idx, "(values[2], values[0])", "(values[0], values[2])")
    results["tamper-idx-order"] = not check_idx(tampered, [2, 0]).ok

    # -- pipeline bees: injected fusion bug + source tampers --
    from repro.bees.pipeline.codegen import PipelineSpec

    columns = [attr.name for attr in layout.schema.attributes]
    pipe_spec = PipelineSpec(
        "orders",
        layout,
        qual=E.bind(
            E.Cmp("<", E.Col("o_orderkey"), E.Const(1000)), columns
        ),
        output=[
            E.bind(E.Col("o_orderkey"), columns),
            E.bind(E.Col("o_comment"), columns),
        ],
    )

    # The injected bug drops the residual qual at generation time; the
    # validator replays the *spec's* semantics, so the filterless routine
    # diverges on every enumerated row the qual rejects.
    with inject_bug("pipeline"):
        routine = PIPELINE.generate(
            pipe_spec, Ledger(), "PIPE_selftest"
        )
    report = check_pipeline(routine, pipe_spec)
    results["inject-pipeline"] = "transval" in _passes_fired(report)

    pipe = PIPELINE.generate(pipe_spec, Ledger(), "PIPE_selftest")

    tampered = _tamper(
        pipe, "raw[off + 4 : off + 4 + ln]", "raw[off + 5 : off + 5 + ln]"
    )
    results["tamper-pipe-offset"] = caught_statically(
        check_pipeline(tampered, pipe_spec)
    )

    tampered = _tamper(pipe, "_C1 * len(batch)", "_C1 * len(out)")
    results["tamper-pipe-charge"] = caught_statically(
        check_pipeline(tampered, pipe_spec)
    )

    tampered = dataclasses.replace(pipe, cost=pipe.cost + 10)
    results["tamper-pipe-cost"] = caught_statically(
        check_pipeline(tampered, pipe_spec)
    )

    # -- vector bees: injected mask drop + source tampers --
    # The same spec shape the pipeline cases use; the vector tier
    # compiles it to a whole-column kernel instead of a row loop.
    with inject_bug("vector"):
        routine = VECTOR.generate(
            pipe_spec, Ledger(), "VEC_selftest"
        )
    report = check_vector(routine, pipe_spec)
    results["inject-vector"] = "transval" in _passes_fired(report)

    vec = VECTOR.generate(pipe_spec, Ledger(), "VEC_selftest")

    # A flipped comparison direction survives the lint (expression text
    # is not pinned) but diverges against the interpreter on nearly
    # every enumerated row — the translation validator's lane.
    tampered = _tamper(vec, "cols[0] < _K0", "cols[0] > _K0")
    results["tamper-vec-op"] = "transval" in _passes_fired(
        check_vector(tampered, pipe_spec)
    )

    tampered = _tamper(vec, "_C0 + _C1 * n + _C2 * _m", "_C0 + _C1 * n + _C2 * n")
    results["tamper-vec-charge"] = caught_statically(
        check_vector(tampered, pipe_spec)
    )

    tampered = dataclasses.replace(vec, cost=vec.cost + 10)
    results["tamper-vec-cost"] = caught_statically(
        check_vector(tampered, pipe_spec)
    )

    # -- ctid specs (a write's match plan): the emitted tuple identifier
    # must be the emitted row's own — the validator hands every
    # enumerated tuple a distinct (pageno, slot).
    ctid_spec = dataclasses.replace(pipe_spec, output=None, ctid=True)
    natts = layout.schema.natts

    pipe = PIPELINE.generate(ctid_spec, Ledger(), "PIPE_selftest")
    tampered = _tamper(pipe, f", v{natts}])", ", v0])")   # a key, not the tid
    results["tamper-pipe-ctid"] = "transval" in _passes_fired(
        check_pipeline(tampered, ctid_spec)
    )

    vec = VECTOR.generate(ctid_spec, Ledger(), "VEC_selftest")
    tampered = _tamper(                       # the neighbouring row's tid
        vec, f"cols[{natts}][_idx]", f"cols[{natts}][_idx - 1]"
    )
    results["tamper-vec-ctid"] = "transval" in _passes_fired(
        check_vector(tampered, ctid_spec)
    )

    return results
