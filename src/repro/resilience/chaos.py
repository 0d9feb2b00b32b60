"""Chaos harness: seeded fault injection at named bee sites.

Every site plants one specific fault class into the bee machinery —
a generated routine that raises, a routine with the wrong result shape,
a generator that fails, flipped data-section bytes, page evictions under
a reader, a stale invalidation epoch, a per-call budget overrun — and
the campaign (:mod:`repro.resilience.campaign`) asserts that query
results under every fault plan match the stock engine, with no
:class:`~repro.resilience.errors.ChaosFault` escaping to the caller.

Faults are planted where the oracle's bug injection plants bugs: the
generator attributes of :mod:`repro.bees.maker` (which imports the
generators into its own namespace) and the lazily imported generator
modules for the experimental AGG/IDX families.  Raising variants are
compiled through :func:`repro.bees.routines.base.compile_routine` under
the routine's own name (a ``<bee:...>`` frame whose ``_NAME`` is the
routine's), so the executor's traceback attribution resolves them
exactly like a real faulting bee.

Two arming styles exist (see :attr:`ChaosSite.arm_with_db`):

* **generator sites** are armed *before* the database is built, so
  relation bees created at DDL time are already tampered;
* **database sites** (section flips, buffer evictions, stale epochs,
  budget overruns) tamper with a live database and are armed after it
  is loaded.

``kick`` hooks run between statements (e.g. re-flipping a section or
silently bumping the invalidation epoch) so mid-campaign state changes
are exercised, not just initial ones.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.bees.routines.base import compile_routine
from repro.resilience.errors import ChaosFault


class ChaosInjector:
    """Seeded fault driver: owns the RNG and the per-site fire counts."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.fired: Counter[str] = Counter()

    def boom(self, site: str) -> ChaosFault:
        """Count one planted fault and build the exception to raise."""
        self.fired[site] += 1
        return ChaosFault(site)

    @contextmanager
    def armed(self, site_name: str, db=None):
        """Arm one named site for the duration of the block."""
        site = SITES[site_name]
        with site.arm(self, db):
            yield site

    def kick(self, site_name: str, db) -> None:
        """Between-statement hook for the named site (no-op for most)."""
        site = SITES[site_name]
        if site.kick is not None:
            site.kick(self, db)


@dataclass(frozen=True)
class ChaosSite:
    """One named fault-injection point.

    ``arm(chaos, db)`` is a context manager planting the fault;
    ``kick(chaos, db)`` (optional) re-plants it between statements;
    ``evidence(chaos, db)`` decides whether the fault demonstrably
    triggered during the run (the default checks the fire counter —
    sites whose faults are detected by the shield rather than raised by
    the harness inspect the resilience registry instead).
    """

    name: str
    description: str
    arm: Callable
    arm_with_db: bool = False
    kick: Callable | None = None
    evidence: Callable | None = None
    #: Run with plan fusion enabled.  Fused pipelines inline their own
    #: deform/filter/aggregate loops, bypassing the GCL/EVP/AGG routines
    #: entirely — so sites targeting those families must run unfused or
    #: their fault would never be reached.
    fused: bool = False
    #: Run with the columnar vector tier enabled on top of fusion.
    #: Vector sites need the full ladder armed (vectors over pipelines)
    #: so degradation has both lower tiers to land on.
    vectored: bool = False
    #: Run with the morsel-parallel tier enabled on top of the ladder.
    #: Parallel sites compare with the float-tolerant equivalence
    #: (morsel partial sums re-associate) instead of exact equality.
    parallel: bool = False
    #: A Hive Gate server fault: driven by the resilience *server lane*
    #: (:mod:`repro.resilience.serverlane`) against a concurrent
    #: multi-session harness instead of the single-session campaign
    #: scenario.  ``arm`` receives the :class:`HiveServer` as its second
    #: argument, not a Database.
    server: bool = False

    def triggered(self, chaos: ChaosInjector, db) -> bool:
        if self.evidence is not None:
            return self.evidence(chaos, db)
        return chaos.fired[self.name] > 0


# ----------------------------------------------------------------------
# routine tampering helpers

def _raising_copy(routine, site: str, chaos: ChaosInjector):
    """A copy of *routine* whose body raises ChaosFault — compiled under
    the routine's own name so traceback attribution resolves it like a
    genuine generated-code fault."""
    namespace = {"_chaos_boom": lambda: chaos.boom(site)}
    source = f"def {routine.name}(*args):\n    raise _chaos_boom()\n"
    fn = compile_routine(source, routine.name, namespace)
    return dataclasses.replace(routine, fn=fn, source=source)


def _patched_generator(module, attr: str, wrap):
    """Context manager factory: swap ``module.attr`` for ``wrap(original)``."""

    @contextmanager
    def arm(chaos, _db):
        original = getattr(module, attr)
        setattr(module, attr, wrap(chaos, original))
        try:
            yield
        finally:
            setattr(module, attr, original)

    return arm


def _gen_raise(site: str):
    """Wrap a generator so every routine it emits raises at call time."""

    def wrap(chaos, original):
        def patched(*args, **kwargs):
            return _raising_copy(original(*args, **kwargs), site, chaos)

        return patched

    return wrap


# ----------------------------------------------------------------------
# shape-tamper wrappers (plain Python: the guard's inline checks detect
# the wrong shape, no traceback attribution needed)

def _gcl_arity_wrap(chaos, original):
    def patched(layout, ledger, fn_name):
        routine = original(layout, ledger, fn_name)
        inner = routine.fn

        def truncated(raw, sections):
            chaos.fired["gcl-arity"] += 1
            return inner(raw, sections)[:-1]

        return dataclasses.replace(routine, fn=truncated)

    return patched


def _evp_type_wrap(chaos, original):
    def patched(*args, **kwargs):
        routine = original(*args, **kwargs)
        inner = routine.fn

        def stringly(row):
            verdict = inner(row)
            if isinstance(verdict, bool):
                chaos.fired["evp-wrong-type"] += 1
                return "yes" if verdict else "no"
            return verdict

        return dataclasses.replace(routine, fn=stringly)

    return patched


def _evp_gen_wrap(chaos, original):
    def patched(*args, **kwargs):
        raise chaos.boom("evp-gen-raise")

    return patched


def _pipeline_arity_wrap(chaos, original):
    def patched(*args, **kwargs):
        routine = original(*args, **kwargs)
        inner = routine.fn

        def widened(*args):
            out = inner(*args)
            if out:
                chaos.fired["pipeline-arity"] += 1
                return [tuple(row) + (None,) for row in out]
            return out

        return dataclasses.replace(routine, fn=widened)

    return patched


def _fusion_raise_wrap(chaos, original):
    def patched(plan, db):
        raise chaos.boom("fusion-raise")

    return patched


def _vector_shape_wrap(chaos, original):
    """Kernels whose output rows grow one phantom column: the vector
    node's inline arity check must fault and degrade to the pipeline
    anchor (and, statement-level, vectors -> pipelines -> generic)."""

    def patched(*args, **kwargs):
        routine = original(*args, **kwargs)
        inner = routine.fn

        def widened(*args):
            out = inner(*args)
            if out:
                chaos.fired["vector-shape"] += 1
                return [list(row) + [None] for row in out]
            return out

        return dataclasses.replace(routine, fn=widened)

    return patched


def _vector_gen_wrap(chaos, original):
    def patched(*args, **kwargs):
        raise chaos.boom("vector-gen-raise")

    return patched


# ----------------------------------------------------------------------
# database sites

@contextmanager
def _arm_section_flip(chaos, db):
    _flip_sections(chaos, db)
    yield


def _flip_sections(chaos, db) -> None:
    """Corrupt one random data-section slab entry per relation bee.

    The shadow copy is left intact — this models a bit flip in the
    section memory, which :meth:`DataSectionStore.scrub` detects and
    repairs before the next scan.
    """
    for bee in db.bee_module.cache.relation_bees.values():
        store = bee.data_sections
        if store is None or len(store) == 0:
            continue
        bee_id = chaos.rng.randrange(len(store))
        slab, slot = store._slab_slot(bee_id)
        if slab[slot] is None:
            continue
        slab[slot] = ("\x00chaos",) * len(slab[slot])
        chaos.fired["section-flip"] += 1


@contextmanager
def _arm_buffer_evict(chaos, db):
    pool = db.buffer_pool
    original = pool.access
    rng = chaos.rng

    def evicting_access(relation, pageno, sequential=True):
        resident = pool._resident
        if resident and rng.random() < 0.25:
            victim = rng.choice(list(resident))
            del resident[victim]
            chaos.fired["buffer-evict"] += 1
        return original(relation, pageno, sequential)

    pool.access = evicting_access
    try:
        yield
    finally:
        del pool.access   # restore the bound method


@contextmanager
def _arm_stale_epoch(chaos, _db):
    yield


def _kick_stale_epoch(chaos, db) -> None:
    """Simulate a missed invalidation: bump the epoch behind the
    engine's back, leaving every plan holding its routines.

    The epoch test of the plan node that holds a routine must notice
    the mismatch at the next acquisition and regenerate the routine
    under the current epoch (logged as a ``routine_regenerated``
    event).
    """
    db.bee_module.query_epoch += 1
    chaos.fired["stale-epoch"] += 1


def _stale_evidence(chaos, db) -> bool:
    return any(
        event["event"] == "routine_regenerated"
        for event in db.resilience.report()["events"]
    )


@contextmanager
def _arm_budget(chaos, db):
    db.resilience.call_budget_s = 0.0   # every timed call overruns
    try:
        yield
    finally:
        db.resilience.call_budget_s = None


def _budget_evidence(chaos, db) -> bool:
    report = db.resilience.report()
    return any(key.endswith("/budget") for key in report["by_site"])


@contextmanager
def _arm_parallel_kill(chaos, db):
    _kick_parallel_kill(chaos, db)
    yield


def _kick_parallel_kill(chaos, db) -> None:
    """Lose a worker with its morsel in flight (one-shot per statement).

    The coordinator's dispatch loop must observe the pipe EOF, record
    the loss, shut the pool down, and degrade the statement to its
    serial anchor — never hang on the dead worker or mis-merge a
    partial result set.
    """
    db.parallel_coordinator()._chaos_kill_next = True
    chaos.fired["parallel-worker-loss"] += 1


@contextmanager
def _arm_parallel_stale(chaos, db):
    _kick_parallel_stale(chaos, db)
    yield


def _kick_parallel_stale(chaos, db) -> None:
    """Hand one worker a statement without its heap snapshot.

    The worker must answer ``stale`` (snapshot-token mismatch) rather
    than compute over missing or outdated pages; the coordinator then
    re-ships the snapshot and resends the morsel.
    """
    db.parallel_coordinator()._chaos_stale_next = True
    chaos.fired["parallel-stale-epoch"] += 1


def _parallel_event_evidence(event_name: str):
    def evidence(chaos, db) -> bool:
        return any(
            event["event"] == event_name
            for event in db.resilience.report()["events"]
        )

    return evidence


def _section_evidence(chaos, db) -> bool:
    if chaos.fired["section-flip"] == 0:
        return False
    return any(
        event["event"] == "section_repaired"
        for event in db.resilience.report()["events"]
    )


# ----------------------------------------------------------------------
# server sites (armed by the resilience server lane, which passes the
# HiveServer — not a Database — as the harness object)

#: The balanced-pair scratch relation every server lane runs against.
SERVER_LANE_TABLE = "gate_ledger"


@contextmanager
def _arm_server_noop(chaos, _server):
    """The lane itself injects the fault (socket resets, WAL tears);
    arming is a no-op so the site still fits the campaign shape."""
    yield


@contextmanager
def _arm_gate_hold(chaos, server):
    """Hold the admission gate from outside any session, so every
    statement exhausts its admission wait budget."""
    server._admit()
    chaos.fired["server-gate-held"] += 1
    try:
        yield
    finally:
        server._release()


@contextmanager
def _arm_fsync_fail(chaos, server):
    """One-shot fsync failure in the data WAL's durability hook."""
    with server.locks.wal_lock:
        server.wal._chaos_fsync_fail = 1
    chaos.fired["server-fsync-fail"] += 1
    try:
        yield
    finally:
        with server.locks.wal_lock:
            server.wal._chaos_fsync_fail = 0


def _server_stat_evidence(counter: str):
    def evidence(_chaos, server):
        return getattr(server.stats, counter) > 0

    return evidence


def _server_event_evidence(event: str):
    def evidence(_chaos, server):
        return any(
            entry.get("event") == event
            for entry in server.db.resilience.report()["events"]
        )

    return evidence


# ----------------------------------------------------------------------
# the catalog

def _maker_module():
    import repro.bees.maker as maker

    return maker


def _pipeline_package():
    import repro.bees.pipeline as pipeline

    return pipeline


def _build_sites() -> dict[str, ChaosSite]:
    # Each fused tier row resolves its generator through its codegen
    # module per call, so that is where those sites patch.
    import repro.bees.pipeline.codegen as pipeline_codegen
    import repro.bees.vector.codegen as vector_codegen

    maker = _maker_module()
    sites = [
        ChaosSite(
            "gcl-raise",
            "specialized deform raises mid-scan",
            _patched_generator(maker, "generate_gcl", _gen_raise("gcl-raise")),
        ),
        ChaosSite(
            "gcl-arity",
            "specialized deform returns a short row",
            _patched_generator(maker, "generate_gcl", _gcl_arity_wrap),
        ),
        ChaosSite(
            "gcl-cols-raise",
            "specialized column decode raises mid-page",
            _patched_generator(
                maker, "generate_gcl_columns", _gen_raise("gcl-cols-raise")
            ),
            fused=True,
            vectored=True,
        ),
        ChaosSite(
            "scl-raise",
            "specialized fill raises on insert",
            _patched_generator(maker, "generate_scl", _gen_raise("scl-raise")),
        ),
        ChaosSite(
            "evp-raise",
            "specialized predicate raises per row",
            _patched_generator(maker, "generate_evp", _gen_raise("evp-raise")),
        ),
        ChaosSite(
            "evp-wrong-type",
            "specialized predicate returns strings, not bools",
            _patched_generator(maker, "generate_evp", _evp_type_wrap),
        ),
        ChaosSite(
            "evp-gen-raise",
            "predicate generator fails outright",
            _patched_generator(maker, "generate_evp", _evp_gen_wrap),
        ),
        ChaosSite(
            "evj-shape",
            "join routine advertises a negative compare cost",
            _patched_generator(maker, "instantiate_evj", _evj_instantiate_wrap),
        ),
        ChaosSite(
            "agg-raise",
            "aggregate transition routine raises",
            _patched_generator(maker, "generate_agg", _gen_raise("agg-raise")),
        ),
        ChaosSite(
            "idx-raise",
            "index key extractor raises during maintenance",
            _patched_generator(maker, "generate_idx", _gen_raise("idx-raise")),
        ),
        ChaosSite(
            "pipeline-raise",
            "fused pipeline body raises mid-batch",
            _patched_generator(
                pipeline_codegen, "generate_pipeline",
                _gen_raise("pipeline-raise"),
            ),
            fused=True,
        ),
        ChaosSite(
            "pipeline-arity",
            "fused pipeline emits wide batches",
            _patched_generator(
                pipeline_codegen, "generate_pipeline",
                _pipeline_arity_wrap,
            ),
            fused=True,
        ),
        ChaosSite(
            "fusion-raise",
            "plan fusion matcher raises",
            _patched_generator(
                _pipeline_package(), "fuse_plan", _fusion_raise_wrap
            ),
            fused=True,
        ),
        ChaosSite(
            "vector-shape",
            "columnar kernel emits shape-corrupted rows",
            _patched_generator(
                vector_codegen, "generate_vector", _vector_shape_wrap
            ),
            fused=True,
            vectored=True,
        ),
        ChaosSite(
            "vector-gen-raise",
            "vector kernel generator fails outright",
            _patched_generator(
                vector_codegen, "generate_vector", _vector_gen_wrap
            ),
            fused=True,
            vectored=True,
        ),
        ChaosSite(
            "parallel-worker-loss",
            "worker process killed with a morsel in flight",
            _arm_parallel_kill,
            arm_with_db=True,
            kick=_kick_parallel_kill,
            evidence=_parallel_event_evidence("parallel_worker_lost"),
            fused=True,
            vectored=True,
            parallel=True,
        ),
        ChaosSite(
            "parallel-stale-epoch",
            "worker dispatched a statement without its snapshot",
            _arm_parallel_stale,
            arm_with_db=True,
            kick=_kick_parallel_stale,
            evidence=_parallel_event_evidence("parallel_stale_retry"),
            fused=True,
            vectored=True,
            parallel=True,
        ),
        ChaosSite(
            "section-flip",
            "data-section byte flips under a reader",
            _arm_section_flip,
            arm_with_db=True,
            kick=lambda chaos, db: _flip_sections(chaos, db),
            evidence=_section_evidence,
        ),
        ChaosSite(
            "buffer-evict",
            "seeded page evictions under a reader",
            _arm_buffer_evict,
            arm_with_db=True,
        ),
        ChaosSite(
            "stale-epoch",
            "invalidation epoch bumped behind the plans' held routines",
            _arm_stale_epoch,
            arm_with_db=True,
            kick=_kick_stale_epoch,
            evidence=_stale_evidence,
        ),
        ChaosSite(
            "budget-overrun",
            "per-call wall-clock budget set to zero",
            _arm_budget,
            arm_with_db=True,
            evidence=_budget_evidence,
        ),
        ChaosSite(
            "server-client-disconnect",
            "client resets its connection mid-statement",
            _arm_server_noop,
            arm_with_db=True,
            evidence=_server_stat_evidence("disconnects"),
            server=True,
        ),
        ChaosSite(
            "server-gate-held",
            "a hung statement holds the admission gate past the wait "
            "budget",
            _arm_gate_hold,
            arm_with_db=True,
            evidence=_server_stat_evidence("refused"),
            server=True,
        ),
        ChaosSite(
            "server-fsync-fail",
            "fsync fails during a commit",
            _arm_fsync_fail,
            arm_with_db=True,
            evidence=_server_event_evidence("wal_fsync_failed"),
            server=True,
        ),
        ChaosSite(
            "server-kill-mid-commit",
            "server killed with a commit group half-written",
            _arm_server_noop,
            arm_with_db=True,
            server=True,
        ),
    ]
    return {site.name: site for site in sites}


def _evj_instantiate_wrap(chaos, original):
    def patched(join_type, n_keys, fn_name):
        routine = original(join_type, n_keys, fn_name)
        chaos.fired["evj-shape"] += 1
        routine.cost_per_compare = -1
        return routine

    return patched


SITES: dict[str, ChaosSite] = _build_sites()

#: Site names in deterministic campaign order.
SITE_NAMES: tuple[str, ...] = tuple(SITES)
