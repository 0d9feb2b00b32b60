"""Deliberate bee-bug injection — the oracle's self-test.

An oracle that never fires is indistinguishable from one that cannot.
These context managers wrap the bee generators with a subtly wrong
variant; a healthy oracle campaign run under them MUST report
divergences.  The patch point is ``repro.bees.maker`` — the maker imports
the generators into its own namespace at import time, so patching the
defining modules (``repro.bees.routines.*``) would have no effect, and
the columnar engine's direct import of ``generate_evp`` stays honest.
"""

from __future__ import annotations

from contextlib import contextmanager

BUG_KINDS = ("gcl", "evp", "pipeline", "vector")


def _first_int_attnum(layout) -> int | None:
    """Schema position of the first stored integer attribute, if any."""
    stored = {attr.name for attr in layout.stored_attrs}
    for attr in layout.schema.attributes:
        if attr.name in stored and attr.sql_type.struct_fmt in ("i", "q"):
            return attr.attnum
    return None


@contextmanager
def inject_bug(kind: str):
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

    Only bees generated while the context is active are affected, so the
    oracle (and its databases) must be constructed inside the ``with``.
    """
    import repro.bees.maker as maker

    if kind == "gcl":
        original = maker.generate_gcl

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

        maker.generate_gcl = patched
        try:
            yield
        finally:
            maker.generate_gcl = original
    elif kind == "evp":
        original = maker.generate_evp

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

        maker.generate_evp = patched
        try:
            yield
        finally:
            maker.generate_evp = original
    elif kind == "pipeline":
        import dataclasses

        original = maker.generate_pipeline

        def patched(spec, *args, **kwargs):
            if spec.qual is not None:
                spec = dataclasses.replace(spec, qual=None)
            return original(spec, *args, **kwargs)

        maker.generate_pipeline = patched
        try:
            yield
        finally:
            maker.generate_pipeline = original
    elif kind == "vector":
        import dataclasses

        original = maker.generate_vector

        def patched(spec, *args, **kwargs):
            if spec.qual is not None:
                spec = dataclasses.replace(spec, qual=None)
            return original(spec, *args, **kwargs)

        maker.generate_vector = patched
        try:
            yield
        finally:
            maker.generate_vector = original
    else:
        raise ValueError(f"unknown bug kind {kind!r} (use {BUG_KINDS})")
