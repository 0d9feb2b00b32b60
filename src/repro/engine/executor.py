"""Top-level plan execution: drive the node tree, price row emission.

Beeshield lives here at statement granularity: when the database's guard
is active (``settings.shield``), any fault escaping a specialized
execution — an exception inside a generated routine, a failed inline
result check (:class:`BeeDegradeError`), a per-call budget overrun —
rolls the ledger back to the statement start and re-executes the plan
with the faulting bee family disabled, degrading down to fully generic
interpretation if need be.  The statement succeeds whenever the stock
engine would.

A per-statement wall-clock budget (``db.sql(..., timeout=...)``) is
checked at batch boundaries (and every ``_TIMEOUT_STRIDE`` rows on the
row-at-a-time path), raising :class:`QueryTimeout` after rolling the
ledger back, so a cancelled statement leaves the database usable.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

from repro.bees.drivers import stack_tiers
from repro.cost import constants as C
from repro.engine.nodes import ExecContext, Materialize, PlanNode
from repro.resilience.errors import (
    BeeDegradeError,
    CallerError,
    QueryTimeout,
    is_verification_refusal,
)

#: Row-path timeout check stride (power of two; checked when
#: ``row_count & (stride - 1) == 0``).
_TIMEOUT_STRIDE = 128

#: Retry ceiling: one attempt per bee family plus the final generic run.
_MAX_ATTEMPTS = 10


def resolve_shield(db, settings):
    """The database's beeshield guard, or ``None`` where *settings*
    turn it off."""
    shield = getattr(db, "shield", None)
    if shield is not None and not getattr(settings, "shield", True):
        return None
    return shield


def stack(db, plan: PlanNode, settings, shield) -> PlanNode:
    """*plan* as the tier stack rewrites it under *settings*: the
    rewrite every execution attempt starts with.  The root of a query
    bee's plan carries the result (:attr:`PlanNode.stacked`), so a
    statement served from the bee skips the rewrite; a beeshield retry
    runs under other settings and stacks afresh, never touching it."""
    prepared = plan.stacked
    if prepared is not None and (
        prepared[0] is settings or prepared[0] == settings
    ):
        return prepared[1]
    return stack_tiers(plan, db, settings, shield)


def execute(
    db,
    plan: PlanNode,
    emit: bool = True,
    settings=None,
    deadline: float | None = None,
) -> list[tuple]:
    """Run *plan* against *db* and return the result rows as tuples.

    When *emit* is true (the default — a client received the rows), each
    output row is charged the printtup-style emission cost; internal
    subplan executions pass ``emit=False``.  *settings* overrides the
    database's bee settings for this execution only.  *deadline* is an
    absolute ``perf_counter()`` budget (defaults to ``db._deadline``,
    set per statement by ``db.sql(..., timeout=...)``).
    """
    if settings is None:
        settings = db.settings
    if deadline is None:
        deadline = getattr(db, "_deadline", None)
    shield = resolve_shield(db, settings)
    if shield is None and deadline is None:
        return _run(_context(db, settings, None), plan, emit, None)

    # Ledger snapshot/rollback are compound multi-counter operations;
    # under the concurrent server they run inside the materialized
    # ledger_lock so a rollback never interleaves with another
    # statement's snapshot (per-charge increments stay lock-free).
    ledger_lock = db.locks.ledger_lock if hasattr(db, "locks") else nullcontext()
    with ledger_lock:
        snapshot = db.ledger.snapshot()
    current = settings
    last_error: BaseException | None = None
    for _attempt in range(_MAX_ATTEMPTS):
        ctx = _context(db, current, shield)
        try:
            return _run(ctx, plan, emit, deadline)
        except QueryTimeout:
            with ledger_lock:
                db.ledger.rollback_to(snapshot)
            raise
        except CallerError:
            raise      # not raised inside a bee: the caller's error
        except BeeDegradeError as fault:
            if shield is None:
                raise
            with ledger_lock:
                db.ledger.rollback_to(snapshot)
            _reset_plan_state(plan)
            shield.registry.record_failure(
                fault.bee, site=fault.site, kind=fault.kind, error=fault.original
            )
            last_error = fault.original or fault
            current = _degrade(current, fault.family)
        except Exception as exc:  # noqa: BLE001 — statement-level bee retry
            if shield is None or not current.any_enabled:
                raise
            if is_verification_refusal(exc):
                raise
            with ledger_lock:
                db.ledger.rollback_to(snapshot)
            _reset_plan_state(plan)
            family, key = shield.attribute(exc, ctx)
            shield.registry.record_failure(
                key, site=family or "statement", kind="exception", error=exc
            )
            last_error = exc
            current = _degrade(current, family)
    # Unreachable in practice: every retry removes at least one family.
    raise RuntimeError(
        f"statement retry limit exceeded (last bee fault: {last_error!r})"
    )


def _degrade(settings, family: str | None):
    """Settings for the retry: drop the faulting family, or go generic."""
    if family is not None and getattr(settings, family, False):
        return settings.enabling(**{family: False})
    return settings.with_routines()   # unattributed: fully generic


def _reset_plan_state(plan: PlanNode) -> None:
    """Clear cached node state so a retry re-derives it generically."""
    stack: list[PlanNode] = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Materialize):
            node._cache = None
        stack.extend(node.children())


def _context(db, settings, shield) -> ExecContext:
    """A new execution attempt's context: *settings* fixed, beeshield
    as :func:`resolve_shield` decided."""
    ctx = ExecContext(db, settings)
    if shield is None:
        ctx.shield = None
    return ctx


def _run(
    ctx: ExecContext, plan: PlanNode, emit: bool, deadline: float | None
) -> list[tuple]:
    """One execution attempt under fixed settings."""
    shield = ctx.shield
    plan = stack(ctx.db, plan, ctx.settings, shield)
    charge = ctx.ledger.charge
    results: list[tuple] = []
    per_row = 0
    batches = getattr(plan, "batches", None)
    if batches is not None:
        for batch in batches(ctx):
            if deadline is not None and perf_counter() >= deadline:
                raise QueryTimeout("statement timeout exceeded")
            if not batch:
                continue
            if not per_row:
                per_row = C.EXECUTOR_PER_ROW
                if emit:
                    per_row += (
                        C.EMIT_ROW_BASE
                        + C.EMIT_ROW_PER_COLUMN * len(batch[0])
                    )
            charge(per_row * len(batch))
            results.extend(map(tuple, batch))
    else:
        n = 0
        for row in plan.rows(ctx):
            if deadline is not None:
                n += 1
                if not (n & (_TIMEOUT_STRIDE - 1)) and perf_counter() >= deadline:
                    raise QueryTimeout("statement timeout exceeded")
            if not per_row:
                per_row = C.EXECUTOR_PER_ROW
                if emit:
                    per_row += C.EMIT_ROW_BASE + C.EMIT_ROW_PER_COLUMN * len(row)
            charge(per_row)
            results.append(tuple(row))
    if shield is not None and ctx.shield_used:
        shield.statement_ok(ctx.shield_used)
    return results


def explain(plan: PlanNode) -> str:
    """Render the plan tree (EXPLAIN analog)."""
    return plan.explain()
