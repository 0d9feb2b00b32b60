"""Deliberate bee-bug injection — the oracle's self-test.

An oracle that never fires is indistinguishable from one that cannot.
:func:`inject_bug` swaps one generator for a subtly wrong variant; a
healthy oracle campaign run under it MUST report divergences.  The
patch point for the routine-bee generators is ``repro.bees.maker`` — the
maker imports them into its own namespace at import time, so patching
the defining modules (``repro.bees.routines.*``) would have no effect,
and the columnar engine's direct import of ``generate_evp`` stays
honest.  The fused generators are patched where they are defined: each
tier row resolves its generator through its codegen module per call
(:meth:`repro.bees.drivers.Tier.generate`), for the maker and the pool
workers alike.  There is one kind per routine family the oracle guards,
one per tier row of :data:`repro.bees.drivers.TIERS`, and one for the
chunk cache's tuple identifiers (what a vectorized write trusts), one
for the vector probe's survivor gather, one for the object lane of a
split vector qual and one for the statement front door's hole patching.
"""

from __future__ import annotations

import dataclasses
import pickle
from contextlib import contextmanager
from typing import Callable, Iterator


def _first_int_attnum(layout) -> int | None:
    """Schema position of the first stored integer attribute, if any."""
    stored = {attr.name for attr in layout.stored_attrs}
    for attr in layout.schema.attributes:
        if attr.name in stored and attr.sql_type.struct_fmt in ("i", "q"):
            return attr.attnum
    return None


def _off_by_one_gcl(original: Callable) -> Callable:
    def patched(layout, ledger, fn_name):
        routine = original(layout, ledger, fn_name)
        target = _first_int_attnum(layout)
        if target is None:
            return routine
        inner = routine.fn

        def corrupt(raw, sections):
            row = list(inner(raw, sections))
            if row[target] is not None:
                row[target] += 1
            return row

        routine.fn = corrupt
        return routine

    return patched


def _inverted_evp(original: Callable) -> Callable:
    def patched(*args, **kwargs):
        routine = original(*args, **kwargs)
        inner = routine.fn

        def flipped(row):
            verdict = inner(row)
            if isinstance(verdict, bool):
                return not verdict
            return verdict

        routine.fn = flipped
        return routine

    return patched


def _without_qual(spec):
    if spec.qual is None:
        return spec
    return dataclasses.replace(spec, qual=None)


def _qualless_generator(original: Callable) -> Callable:
    def patched(spec, *args, **kwargs):
        return original(_without_qual(spec), *args, **kwargs)

    return patched


def _qualless_prepare(original: Callable) -> Callable:
    def patched(self, stmt_id, spec_bytes, tier, table):
        spec = _without_qual(pickle.loads(spec_bytes))
        return original(self, stmt_id, pickle.dumps(spec), tier, table)

    return patched


def _stale_first_hole(original: Callable) -> Callable:
    def patched(routine):
        binds = routine.binds
        routine.binds = binds[1:]       # hole 0 keeps its first literal
        try:
            return original(routine)
        finally:
            routine.binds = binds

    return patched


def _shifted_tids(original: Callable) -> Callable:
    def patched(rel, old=None):
        import numpy as np

        entry, *counts = original(rel, old)
        if old is not None:
            entry.chunk.tids = np.roll(entry.chunk.tids, 1)
        return (entry, *counts)

    return patched


def _domain_gather(original: Callable) -> Callable:
    def patched(kind, table, keys, key_nulls, cols, nulls, idx, pad=None):
        # Survivors' positions are taken as chunk rows: ``hits``, not
        # ``idx[hits]``.
        return original(kind, table, keys, key_nulls, cols, nulls, None, pad)

    return patched


def _chunk_positions(original: Callable) -> Callable:
    def patched(cols, nulls, idx, used=None):
        # An object conjunct's rows are read at chunk rows ``0..m-1``,
        # not at the survivors' positions ``idx``.
        if used is not None and idx is not None:
            import numpy as np

            idx = np.arange(len(idx))
        return original(cols, nulls, idx, used)

    return patched


#: kind -> (module, dotted attribute to patch, wrapper of the original).
_BUGS: dict[str, tuple[str, str, Callable[[Callable], Callable]]] = {
    "gcl": ("repro.bees.maker", "generate_gcl", _off_by_one_gcl),
    "evp": ("repro.bees.maker", "generate_evp", _inverted_evp),
    "pipeline": (
        "repro.bees.pipeline.codegen", "generate_pipeline",
        _qualless_generator,
    ),
    "vector": (
        "repro.bees.vector.codegen", "generate_vector", _qualless_generator
    ),
    "parallel": (
        "repro.parallel.worker", "_WorkerState.prepare", _qualless_prepare
    ),
    "tids": ("repro.bees.vector.chunks", "_decode", _shifted_tids),
    "probe": ("repro.bees.vector.codegen", "_probe", _domain_gather),
    "split": (
        "repro.bees.vector.codegen", "_materialize", _chunk_positions
    ),
    "proto": (
        "repro.bees.routines.base", "BeeRoutine.repatch", _stale_first_hole
    ),
}

BUG_KINDS = tuple(_BUGS)


@contextmanager
def inject_bug(kind: str) -> Iterator[None]:
    """Make newly generated bees of the given kind subtly wrong.

    * ``'gcl'`` — the specialized deform routine adds 1 to the first
      integer column it decodes (a classic off-by-one in generated
      offset arithmetic).
    * ``'evp'`` — the specialized predicate routine inverts definite
      verdicts (True <-> False), leaving NULL verdicts alone.
    * ``'pipeline'`` — the fused pipeline bee drops the residual
      qualification (a classic fusion bug: the matcher consumes the
      Filter node but the generated loop forgets its predicate).
    * ``'vector'`` — the columnar kernel drops the predicate mask (the
      vector-tier analog: the selection vector degenerates to
      all-rows-pass while the charge and shape stay plausible).
    * ``'parallel'`` — the worker-side routine drops the residual
      qualification (the morsel-tier analog: the coordinator ships the
      right spec and every worker compiles the wrong one).  Workers
      inherit the patch when the pool forks.
    * ``'tids'`` — a chunk-cache refresh that patches a cached chunk
      (masks the rows that died, appends the tuples born since) leaves
      its ``tids`` column shifted by one row against the value columns:
      a vectorized UPDATE or DELETE writes the neighbouring row, and
      the next refresh — which reads ``tids`` to decide which cached
      rows survive — drops the wrong one.  The N-way lane over the
      write's match plan sees it first; reads behind it diverge too.
    * ``'probe'`` — the vector join sink looks its keys up over the
      selected rows, then gathers the survivors at their positions *in
      that selection* instead of their chunk rows (``hits`` where it
      means ``idx[hits]``): the index-space mix-up late materialisation
      invites.  Every probe behind a filter emits the wrong rows; a
      probe over a whole chunk stays right.
    * ``'split'`` — the object lane of a split vector qual evaluates a
      conjunct over the rows at chunk positions ``0..m-1`` instead of
      the *m* rows it was handed (``arange(m)`` where it means
      ``idx``), and indexes the survivors with that mask: every object
      conjunct behind a vector one selects the wrong rows; one that sees
      the whole chunk stays right.
    * ``'proto'`` — a statement served from its shape's query bee
      re-patches every literal hole of the routines its plan reaches
      *but the first*: the plan's constants are this statement's, one
      ``_K0`` is still the statement's that built the bee.  Only a
      cache hit with a different first literal shows it, which is what
      the generator's literal siblings are for.

    Only bees generated while the context is active are affected, so the
    oracle (its databases, and any worker pool) must be created inside
    the ``with``.
    """
    import importlib

    if kind not in _BUGS:
        raise ValueError(f"unknown bug kind {kind!r} (use {BUG_KINDS})")
    module_name, path, wrap = _BUGS[kind]
    *owners, attr = path.split(".")
    holder = importlib.import_module(module_name)
    for owner in owners:
        holder = getattr(holder, owner)
    original = getattr(holder, attr)
    setattr(holder, attr, wrap(original))
    try:
        yield
    finally:
        setattr(holder, attr, original)
