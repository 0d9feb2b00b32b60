"""Worker-process side of the morsel-driven parallel tier.

Each worker is a long-lived child process holding its own private hive:
a :class:`repro.cost.Ledger` (virtual instructions accrue locally and
are returned per task so the coordinator can price the makespan), a
read-only heap *snapshot* per relation (live raw tuples shipped by the
coordinator, keyed by ``(heap.uid, heap.version)`` tokens), a bee cache
keyed by spec fingerprint (sha1 of the pickled :class:`PipelineSpec`),
a proto-bee code cache keyed by generated source text, and a per-morsel
chunk cache for the vector tier.

The protocol is strictly request/reply over one duplex pipe, processed
in FIFO order:

* ``("snapshot", relation, token, pages, sections, layout)`` — install
  a heap snapshot (no reply).
* ``("invalidate",)`` — the coordinator observed a query-epoch bump
  (DDL/DML): drop every cached bee, chunk, and snapshot (no reply).
  Compiled proto-bees stay: their key is the source text, and a
  re-prepared statement rebuilds its data section from the new spec.
* ``("prepare", stmt_id, spec_bytes, tier, table)`` — compile (or fetch
  by fingerprint) the routine for a statement and release the one
  prepared before it (the coordinator runs one statement at a time, so
  a worker holds one prepared statement, and one probe build table);
  replies ``("ready", stmt_id)``.
* ``("task", stmt_id, morsel_idx, relation, token, lo, hi)`` — run the
  prepared routine over heap pages ``[lo, hi)``; replies
  ``("result", stmt_id, morsel_idx, payload, delta)`` where *delta* is
  the worker-ledger delta ``(total, seq, rand, hit)``, or
  ``("stale", stmt_id, morsel_idx)`` when the task token does not match
  the installed snapshot (the coordinator re-ships and resends).
* ``("stop",)`` — exit; pipe EOF (coordinator/pool death) exits too.

Any exception is reported as ``("error", detail)`` — the coordinator
degrades the statement to the serial tier; workers never crash the
coordinator.  All shared state crossing the process boundary follows
the guard+epoch contract in :mod:`repro.swarmcheck.registry`: snapshots
and shipped bees are immutable on the worker side, and the epoch bump
relayed as ``invalidate`` is the only cross-process invalidation edge.
"""

from __future__ import annotations

import hashlib
import pickle
from functools import partial

from repro.bees.drivers import TIER_BY_NAME, new_groups
from repro.bees.emit import decode_row
from repro.bees.module import CODE_CACHE_CAP
from repro.bees.routines.base import CodeCache
from repro.cost import constants as C
from repro.cost.ledger import Ledger


def _spec_fingerprint(spec_bytes: bytes, tier: str) -> str:
    return hashlib.sha1(spec_bytes + tier.encode()).hexdigest()


class _WorkerState:
    """Everything one worker process owns (no state is shared back)."""

    def __init__(self) -> None:
        self.ledger = Ledger()
        # relation -> (token, pages, sections, layout)
        self.snapshots: dict = {}
        # fingerprint -> compiled routine fn
        self.bees: dict = {}
        # generated source -> code object; survives ``invalidate``
        self.code_cache = CodeCache(CODE_CACHE_CAP)
        # (relation, token, lo, hi) -> Chunk
        self.chunks: dict = {}
        # stmt_id -> (spec, tier, fn, table), for the statement in flight
        self.prepared: dict = {}
        self._seq = 0

    def invalidate(self) -> None:
        """Cross-process epoch bump: drop every cached artifact."""
        self.bees.clear()
        self.chunks.clear()
        self.prepared.clear()
        self.snapshots.clear()

    def install_snapshot(self, relation, token, pages, sections, layout):
        self.snapshots[relation] = (token, pages, sections, layout)
        # Chunks decoded from an older snapshot of this relation are dead.
        for key in [k for k in self.chunks if k[0] == relation]:
            del self.chunks[key]

    def prepare(self, stmt_id, spec_bytes, tier, table) -> None:
        fingerprint = _spec_fingerprint(spec_bytes, tier)
        spec = pickle.loads(spec_bytes)
        fn = self.bees.get(fingerprint)
        if fn is None:
            self._seq += 1
            name = f"PAR_{self._seq}"
            # Mergeable: a vector agg kernel that finalized its groups
            # could not be combined across morsels.
            fn = TIER_BY_NAME[tier].generate(
                spec, self.ledger, name, self.code_cache, mergeable=True
            ).fn
            self.bees[fingerprint] = fn
        self.prepared = {stmt_id: (spec, tier, fn, table)}

    # -- task execution ----------------------------------------------------

    def _morsel_chunk(self, relation, token, lo, hi, layout, pages, sections):
        """Columnar chunk for one page range, cached per (range, token)."""
        from repro.bees.vector.chunks import chunk_from_rows, freeze_chunk

        key = (relation, token, lo, hi)
        chunk = self.chunks.get(key)
        natts = layout.schema.natts
        ledger = self.ledger
        if chunk is not None:
            ledger.charge_fn("parallel_chunk_hit", C.VEC_CHUNK_HIT * (hi - lo))
            return chunk
        rows = []
        for raws in pages[lo:hi]:
            # Snapshot pages are worker-resident by construction: the
            # ship already modeled the transfer, so access is a hit.
            ledger.hit_page()
            ledger.charge_fn(
                "parallel_chunk_build", C.PAGE_ACCESS + C.VEC_CHUNK_BUILD * natts
            )
            ledger.charge_fn(
                "parallel_chunk_build", C.VEC_DECODE_PER_VALUE * natts * len(raws)
            )
            rows.extend(decode_row(layout, raw, sections) for raw in raws)
        chunk = freeze_chunk(chunk_from_rows(layout.schema, rows))
        self.chunks[key] = chunk
        return chunk

    def _charged_pages(self, pages):
        """Non-empty raw-tuple batches of a page range, each page priced
        as a resident hit (the snapshot ship modeled the transfer)."""
        ledger = self.ledger
        for raws in pages:
            ledger.hit_page()
            ledger.charge_fn("parallel_page", C.PAGE_ACCESS)
            if raws:
                yield raws

    def run_task(self, stmt_id, relation, token, lo, hi):
        """Run the prepared routine over pages ``[lo, hi)``.

        Returns ``(payload, delta)`` or the string ``"stale"`` when the
        installed snapshot does not match the task token.
        """
        spec, tier, fn, table = self.prepared[stmt_id]
        snapshot = self.snapshots.get(relation)
        if snapshot is None or snapshot[0] != token:
            return "stale", None
        _token, pages, sections, layout = snapshot
        ledger = self.ledger
        before = ledger.snapshot()
        # The calling convention per (tier, sink) is the tier table's:
        # the same ``invoke`` the serial drivers use on the coordinator.
        invoke = partial(TIER_BY_NAME[tier].invoke, spec.sink, fn)
        state: tuple = ()
        if spec.sink == "probe":
            state = (table,)
        elif spec.sink == "agg":
            state = new_groups(spec)
        if tier == "vector":
            units = [
                self._morsel_chunk(
                    relation, token, lo, hi, layout, pages, sections
                )
            ]
        else:
            units = self._charged_pages(pages[lo:hi])
        if spec.sink == "agg":
            # [(group_key, [AggState])] partials: straight from the
            # vector partial-agg kernel, or the groups the pipeline
            # routine advanced in place.
            partials = None
            for unit in units:
                partials = invoke(unit, sections, state)
            payload = list(state[0].items()) if partials is None else partials
        else:
            payload = []
            for unit in units:
                payload.extend(invoke(unit, sections, state))
        delta = ledger.delta_since(before)
        return payload, (
            delta.total,
            delta.seq_pages_read,
            delta.rand_pages_read,
            delta.pages_hit,
        )


def worker_main(conn) -> None:
    """Worker process entry: serve the morsel protocol until stop/EOF."""
    state = _WorkerState()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        tag = message[0]
        if tag == "stop":
            return
        try:
            if tag == "snapshot":
                _tag, relation, token, pages, sections, layout = message
                state.install_snapshot(relation, token, pages, sections, layout)
            elif tag == "invalidate":
                state.invalidate()
            elif tag == "prepare":
                _tag, stmt_id, spec_bytes, tier, table = message
                state.prepare(stmt_id, spec_bytes, tier, table)
                conn.send(("ready", stmt_id))
            elif tag == "task":
                _tag, stmt_id, morsel_idx, relation, token, lo, hi = message
                payload, delta = state.run_task(stmt_id, relation, token, lo, hi)
                if payload == "stale" and delta is None:
                    conn.send(("stale", stmt_id, morsel_idx))
                else:
                    conn.send(("result", stmt_id, morsel_idx, payload, delta))
            else:
                conn.send(("error", f"unknown message tag {tag!r}"))
        except Exception as exc:  # noqa: BLE001 — reported, never fatal here
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (OSError, ValueError):
                return


__all__ = ["worker_main"]
