"""Resilience exception types.

Kept dependency-free so both the engine (executor, drivers) and the
resilience subsystem can import them without cycles.
"""

from __future__ import annotations


class QueryTimeout(Exception):
    """A statement exceeded its per-statement wall-clock budget.

    Raised by the executor at batch boundaries after the ledger has been
    rolled back to the statement start; the database stays usable.
    """


class BeeDegradeError(Exception):
    """Internal control flow: a specialized routine produced a detected
    fault (exception, wrong-shape result, per-call budget overrun) that
    cannot be absorbed at the call site.

    The executor catches it, rolls the ledger back to the statement
    start, records the fault against the bee's health entry, and
    re-executes the plan with the faulting bee family disabled.  It must
    never escape :func:`repro.engine.executor.execute`.
    """

    def __init__(
        self,
        family: str | None,
        bee: str,
        site: str,
        kind: str,
        original: BaseException | None = None,
    ) -> None:
        super().__init__(
            f"bee {bee!r} faulted at site {site!r} ({kind})"
            + (f"; degrading family {family!r}" if family else "")
        )
        self.family = family
        self.bee = bee
        self.site = site
        self.kind = kind
        self.original = original


class CallerError(Exception):
    """Caller-supplied code running inside a plan raised (``__cause__``
    is what it raised) — the opaque predicate of ``db.update_where`` /
    ``db.delete_where``.  Never a bee fault: the executor's statement
    retry lets it through untouched and the DML layer re-raises the
    cause.
    """


def is_verification_refusal(exc: BaseException) -> bool:
    """True for beecheck's ``verify_on_generate`` refusals.

    When the user explicitly gates bee generation on static verification,
    a failed check is a deliberate loud refusal, not a runtime fault —
    the shield re-raises it instead of degrading to generic execution.
    """
    try:
        from repro.beecheck import BeecheckError
    except ImportError:  # pragma: no cover - beecheck always ships
        return False
    return isinstance(exc, BeecheckError)


class ChaosFault(RuntimeError):
    """The fault the chaos harness plants inside bee routines.

    A distinct type so escapes are unambiguous: any ChaosFault that
    reaches a campaign caller is, by construction, a guard hole.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"chaos fault planted at site {site!r}")
        self.site = site
