"""Beeshield: guarded acquisition and invocation of bee routines.

Design: three tiers, chosen so the healthy fast path stays within the
zero-overhead guardrail (``benchmarks/gates.py``: shield overhead < 1.05).

* **Acquisition guards** (once per statement per call site): quarantine
  admission, guarded generation (a raising generator falls back to the
  generic path for that site), and invalidation-epoch staleness checks.
* **Inline result checks** (one comparison per row/batch, no wrapper
  call): wrong-arity deform results, non-boolean predicate results,
  wrong-width fused-driver batches.  A failed check raises
  :class:`BeeDegradeError`.
* **Statement-level retry** (in :func:`repro.engine.executor.execute`):
  any exception escaping a specialized execution rolls the ledger back
  and re-runs the plan with the faulting family disabled — attributed to
  the generated routine via its ``<bee:...>`` code filename and the
  ``_NAME`` hole of the faulting frame's globals.

Stateless write-path routines (SCL fill, IDX key extraction) are instead
wrapped per call: they run before any mutation for their row, so the
guard can transparently redo the single call on the generic path.

Health keys must be stable across statements (generated routine names
like ``EVP_17`` are not): relation bees use their routine name, query
bees a content key — see :mod:`repro.resilience.registry`.
"""

from __future__ import annotations

from time import perf_counter

from repro.resilience.errors import BeeDegradeError, is_verification_refusal
from repro.resilience.registry import ResilienceRegistry

#: Maps a generated routine name's prefix to the BeeSettings family flag
#: the statement retry disables when that routine faults.
FAMILY_BY_PREFIX = {
    "GCL": "gcl",
    "GCLC": "gcl",     # the relation bee's column sink rides the gcl flag
    "SCL": "scl",
    "EVP": "evp",
    "EVJ": "evj",
    "AGG": "agg",
    "IDX": "idx",
    "PIPE": "pipelines",
    "VEC": "vectors",
    "PAR": "parallel",
}


def evp_key(expr) -> str:
    return f"EVP:{expr!r}"


def evj_key(join_type: str, n_keys: int) -> str:
    return f"EVJ:{join_type}:{n_keys}"


def agg_key(specs) -> str:
    return "AGG:" + "|".join(repr(spec) for spec in specs)


def fused_key(prefix: str, spec) -> str:
    """Health key of a fused driver: *prefix* is its tier's
    (``PIPE`` / ``VEC`` / ``PAR``)."""
    return f"{prefix}:{spec.relation}:{spec.sink}"


class BeeGuard:
    """Per-database shield around every bee call site."""

    def __init__(self, registry: ResilienceRegistry, ledger) -> None:
        self.registry = registry
        self.ledger = ledger

    # ------------------------------------------------------------------
    # fault signalling (inline checks in executor nodes call this)

    def fault(
        self,
        family: str | None,
        bee: str,
        kind: str,
        site: str | None = None,
        error: BaseException | None = None,
    ):
        """Raise the statement-retry signal for a detected bee fault."""
        raise BeeDegradeError(family, bee, site or family or "statement", kind, error)

    def attribute(self, exc: BaseException, bee_module) -> tuple[str | None, str]:
        """Attribute a raw exception to (family, health key).

        Generated routines are compiled with ``<bee:...>`` filenames
        (:func:`repro.bees.routines.base.compile_routine`); a code
        object may be shared by every routine of its shape, so the
        routine's own name is the ``_NAME`` entry of the frame's
        globals — its private data section.  The deepest bee frame in
        the traceback names the faulting routine; the bee module maps
        that name back to its stable health key.  Unattributable
        exceptions degrade the whole statement to generic execution
        under a key no admission check ever consults.
        """
        tb = exc.__traceback__
        name = None
        while tb is not None:
            frame = tb.tb_frame
            if frame.f_code.co_filename.startswith("<bee:"):
                name = frame.f_globals["_NAME"]
            tb = tb.tb_next
        if name is None:
            return None, "STMT:unattributed"
        family = FAMILY_BY_PREFIX.get(name.split("_", 1)[0])
        key = bee_module.stable_key(name) or name
        return family, key

    # ------------------------------------------------------------------
    # per-call budget (off unless registry.call_budget_s is set)

    def maybe_timed(self, fn, family: str, bee: str):
        """Wrap *fn* with a wall-clock budget check when one is armed.

        With no budget configured (the default) *fn* is returned
        untouched, keeping clock reads off the hot path entirely.
        """
        budget = self.registry.call_budget_s
        if budget is None:
            return fn
        guard = self

        def timed(*args):
            start = perf_counter()
            result = fn(*args)
            if perf_counter() - start > budget:
                guard.fault(family, bee, "budget", site=family)
            return result

        return timed

    # ------------------------------------------------------------------
    # acquisition guards (read path; once per statement per site)

    def admit_deform(self, ctx, routine, generic):
        """Quarantine gate for a relation bee's GCL; key is its name."""
        key = routine.name
        if not self.registry.admit(key):
            return generic
        ctx.shield_used.append(key)
        return routine.fn

    def column_sink(self, routine, reference):
        """Guarded GCL column sink: *reference* redoes a faulted page.

        Per call, like the write-path guards: the sink only appends to
        lists its caller owns, so a page that faulted (an exception, or
        columns left at unequal lengths) is cut back to where it started
        and decoded by the reference decoder instead.
        """
        key = routine.name
        registry = self.registry
        if not registry.admit(key):
            return reference
        fn = self.maybe_timed(routine.fn, "gcl", key)

        def guarded_sink(raws, sections, cols, nulls):
            health = registry.health_or_none(key)
            if health is not None and health.quarantined:
                if not registry.admit_health(health):
                    return reference(raws, sections, cols, nulls)
            lists = [values for values in cols + nulls if values is not None]
            marks = [len(values) for values in lists]
            try:
                fn(raws, sections, cols, nulls)
            except Exception as exc:  # noqa: BLE001 — the guard is the handler
                registry.record_failure(
                    key, site="gcl", kind="exception", error=exc
                )
            else:
                n = len(raws)
                if all(
                    len(values) == mark + n
                    for values, mark in zip(lists, marks)
                ):
                    if health is not None:
                        registry.record_success(key)
                    return None
                registry.record_failure(key, site="gcl", kind="shape")
            for values, mark in zip(lists, marks):
                del values[mark:]
            return reference(raws, sections, cols, nulls)

        return guarded_sink

    def scrub_sections(self, rel) -> None:
        """Verify (and repair) tuple-bee data sections before a scan.

        Sections are the only copy of annotated attribute values, so a
        flipped entry would silently corrupt results on *both* the bee
        and generic paths; the store keeps a shadow copy and this scrub
        restores any divergent section, logging the repair.
        """
        bee = getattr(rel, "bee", None)
        if bee is None or bee.data_sections is None:
            return
        repaired = bee.data_sections.scrub()
        if repaired:
            self.registry.record_event(
                "section_repaired",
                relation=rel.schema.name,
                bee_ids=repaired,
            )

    def predicate(self, ctx, qual, not_null: bool, checked: bool = False):
        """Guarded EVP acquisition: ``(fn, key)`` or None for generic.

        With ``checked=True`` the returned fn validates its own result
        type per call (used at join call sites where the caller has no
        inline check); Filter does the check inline instead.
        """
        key = evp_key(qual)
        if not self.registry.admit(key):
            return None
        bees = ctx.bees
        routine = self._acquire_query_routine(
            key, "evp", lambda: bees.get_evp(qual, not_null), bees
        )
        if routine is None:
            return None
        ctx.shield_used.append(key)
        fn = self.maybe_timed(routine.fn, "evp", key)
        if checked:
            inner = fn
            guard = self

            def checked_fn(row):
                result = inner(row)
                if result is True or result is False or result is None:
                    return result
                guard.fault("evp", key, "type")

            fn = checked_fn
        return fn, key

    def evj(self, ctx, join_type: str, n_keys: int):
        """Guarded EVJ acquisition; None falls back to the generic cost."""
        key = evj_key(join_type, n_keys)
        if not self.registry.admit(key):
            return None
        try:
            routine = ctx.bees.get_evj(join_type, n_keys)
        except Exception as exc:  # noqa: BLE001 — the guard is the handler
            if is_verification_refusal(exc):
                raise
            self.registry.record_failure(key, site="evj", kind="generate", error=exc)
            return None
        cost = getattr(routine, "cost_per_compare", None)
        if not isinstance(cost, int) or cost < 0:
            self.registry.record_failure(key, site="evj", kind="shape")
            return None
        ctx.shield_used.append(key)
        return routine

    def agg(self, ctx, specs):
        """Guarded AGG acquisition: ``(routine, key)`` or None."""
        key = agg_key(specs)
        if not self.registry.admit(key):
            return None
        bees = ctx.bees
        routine = self._acquire_query_routine(
            key, "agg", lambda: bees.get_agg(specs), bees
        )
        if routine is None:
            return None
        ctx.shield_used.append(key)
        return routine, key

    def fused(self, ctx, tier, spec, anchor):
        """Guarded fused-driver acquisition, any tier:
        ``(admitted, fn, key)``; not admitted means the driver should
        drain its anchor (the tier below, or the generic subtree)
        instead.  A remote tier compiles its routines in the pool
        workers, so only the quarantine gate applies (``fn`` is None).
        """
        key = fused_key(tier.prefix, spec)
        if not self.registry.admit(key):
            return False, None, key
        if tier.remote:
            return True, None, key
        bees = ctx.bees
        routine = self._acquire_query_routine(
            key, tier.family, lambda: bees.get_fused(tier, spec, anchor), bees
        )
        if routine is None:
            return False, None, key
        return True, self.maybe_timed(routine.fn, tier.family, key), key

    def fuse(self, fuse_fn, plan, db, key: str = "PIPE:fusion"):
        """Guarded plan fusion: a raising matcher keeps the plan as-is."""
        try:
            return fuse_fn(plan, db)
        except Exception as exc:  # noqa: BLE001 — the guard is the handler
            if is_verification_refusal(exc):
                raise
            self.registry.record_failure(
                key, site="fusion", kind="exception", error=exc
            )
            return plan

    def _acquire_query_routine(self, key: str, site: str, make, bees):
        """Generate (or fetch memoized) with fault + staleness handling."""
        try:
            routine = make()
        except Exception as exc:  # noqa: BLE001 — the guard is the handler
            if is_verification_refusal(exc):
                # verify_on_generate is a deliberate loud gate, not a
                # runtime fault: refusing bees must stay visible.
                raise
            self.registry.record_failure(key, site=site, kind="generate", error=exc)
            return None
        epoch = getattr(bees, "query_epoch", None)
        if epoch is not None and getattr(routine, "epoch", epoch) != epoch:
            # Stale invalidation epoch: the memo survived a DDL event it
            # should not have.  Evict and regenerate once.
            self.registry.record_failure(key, site=site, kind="stale")
            bees.evict_routine(routine)
            try:
                routine = make()
            except Exception as exc:  # noqa: BLE001 — the guard is the handler
                if is_verification_refusal(exc):
                    raise
                self.registry.record_failure(
                    key, site=site, kind="generate", error=exc
                )
                return None
            if getattr(routine, "epoch", epoch) != epoch:
                return None
        return routine

    # ------------------------------------------------------------------
    # per-call write-path guards (stateless: safe to redo generically)

    def fill(self, routine, generic):
        """Guarded SCL fill: falls back to *generic* per call on fault."""
        key = routine.name
        registry = self.registry
        if not registry.admit(key):
            return generic
        fn = self.maybe_timed(routine.fn, "scl", key)
        ledger = self.ledger
        health = registry.health_or_none(key)
        guard = self

        def guarded_fill(values, bee_id=0):
            nonlocal health
            if health is not None and health.quarantined:
                if not registry.admit_health(health):
                    return generic(values, bee_id)
            before = ledger.total
            try:
                raw = fn(values, bee_id)
            except Exception as exc:  # noqa: BLE001 — the guard is the handler
                ledger.total = before
                health = registry.record_failure(
                    key, site="scl", kind="exception", error=exc
                )
                return generic(values, bee_id)
            if not isinstance(raw, bytes):
                ledger.total = before
                health = registry.record_failure(key, site="scl", kind="shape")
                return generic(values, bee_id)
            if health is not None:
                registry.record_success(key)
            return raw

        # Keep a handle for tests/diagnostics.
        guarded_fill.shield_key = key
        guarded_fill.guard = guard
        return guarded_fill

    def idx(self, routine, key_indexes, make_generic):
        """Guarded IDX key extraction: per-call generic fallback.

        *make_generic* builds the charged generic extractor (kept lazy so
        this module does not import the cost model).
        """
        key = routine.name
        registry = self.registry
        generic = make_generic()
        if not registry.admit(key):
            return generic
        fn = self.maybe_timed(routine.fn, "idx", key)
        ledger = self.ledger
        n_keys = len(key_indexes)

        def guarded_extract(values):
            # Re-read health from the registry every call rather than
            # caching it in a closure cell: the extractor is installed
            # on the relation and outlives statements, so a nonlocal
            # cell would be unguarded shared state (swarmcheck), and it
            # would also miss quarantines raised at other call sites.
            health = registry.health_or_none(key)
            if health is not None and health.quarantined:
                if not registry.admit_health(health):
                    return generic(values)
            before = ledger.total
            try:
                extracted = fn(values)
            except Exception as exc:  # noqa: BLE001 — the guard is the handler
                ledger.total = before
                health = registry.record_failure(
                    key, site="idx", kind="exception", error=exc
                )
                return generic(values)
            if not isinstance(extracted, tuple) or len(extracted) != n_keys:
                ledger.total = before
                health = registry.record_failure(key, site="idx", kind="shape")
                return generic(values)
            if health is not None:
                registry.record_success(key)
            return extracted

        guarded_extract.shield_key = key
        return guarded_extract

    # ------------------------------------------------------------------
    # statement bookkeeping

    def statement_ok(self, used_keys) -> None:
        """A statement finished cleanly: close probes on every bee used."""
        for key in used_keys:
            self.registry.record_success(key)
