"""Pass orchestration: one routine in, one :class:`RoutineReport` out.

The checker runs the passes in cheapest-first order (lint, determinism,
absint, costaudit, transval) and records every finding; ``enforce``
raises :class:`BeecheckError` so the bee maker can refuse to hand a bad
routine to the executor when ``verify_on_generate`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.layout import TupleLayout
from repro.beecheck import absint, costaudit, lint, transval
from repro.verify.report import Finding

class BeecheckError(Exception):
    """Raised when a generated routine fails verification.

    Carries the findings so callers (and tests) can assert on which pass
    rejected the routine.
    """

    def __init__(self, routine: str, findings: list[Finding]) -> None:
        self.routine = routine
        self.findings = findings
        lines = [f"bee routine {routine!r} failed beecheck:"]
        lines += [f"  {finding}" for finding in findings]
        super().__init__("\n".join(lines))


@dataclass
class RoutineReport:
    """Verification outcome for one routine."""

    routine: str
    kind: str           # gcl | gcl_cols | scl | evp | evj | agg | idx | tier
    subject: str                    # relation name or predicate text
    passes: dict[str, str] = field(default_factory=dict)  # pass -> ok/fail
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, pass_name: str, messages: list[str]) -> None:
        self.passes[pass_name] = "fail" if messages else "ok"
        self.findings.extend(
            Finding(pass_name, self.routine, message) for message in messages
        )

    def to_dict(self) -> dict:
        return {
            "routine": self.routine,
            "kind": self.kind,
            "subject": self.subject,
            "passes": dict(self.passes),
            "findings": [finding.to_dict() for finding in self.findings],
        }


def check_gcl(routine, layout: TupleLayout) -> RoutineReport:
    """Run all passes over one generated GCL routine."""
    report = RoutineReport(routine.name, "gcl", layout.schema.name)
    report.add("lint", lint.lint_gcl(routine.source, routine.name))
    report.add("determinism", lint.lint_determinism(routine.source))
    report.add("absint", absint.check_gcl(routine, layout))
    report.add("costaudit", costaudit.audit_gcl(routine, layout))
    report.add("transval", transval.validate_gcl(routine, layout))
    return report


def check_gcl_cols(routine, layout: TupleLayout) -> RoutineReport:
    """Run the passes over one generated GCL column sink.

    No costaudit lane: the sink charges nothing (the chunk decode that
    calls it prices pages), and the lint's name whitelist has no
    ``_charge`` to call.
    """
    report = RoutineReport(routine.name, "gcl_cols", layout.schema.name)
    report.add("lint", lint.lint_gcl_cols(routine.source, routine.name))
    report.add("determinism", lint.lint_determinism(routine.source))
    report.add("absint", absint.check_gcl_cols(routine, layout))
    report.add("transval", transval.validate_gcl_cols(routine, layout))
    return report


def check_scl(routine, layout: TupleLayout) -> RoutineReport:
    """Run all passes over one generated SCL routine."""
    report = RoutineReport(routine.name, "scl", layout.schema.name)
    report.add("lint", lint.lint_scl(routine.source, routine.name))
    report.add("determinism", lint.lint_determinism(routine.source))
    report.add("absint", absint.check_scl(routine, layout))
    report.add("costaudit", costaudit.audit_scl(routine, layout))
    report.add("transval", transval.validate_scl(routine, layout))
    return report


def check_evp(routine, expr) -> RoutineReport:
    """Run all passes over one generated EVP routine (either variant)."""
    report = RoutineReport(routine.name, "evp", repr(expr))
    report.add(
        "lint",
        lint.lint_evp(routine.source, routine.name)
        + lint.lint_name_hole(routine),
    )
    report.add("determinism", lint.lint_determinism(routine.source))
    report.add("absint", absint.check_evp(routine, expr))
    report.add("costaudit", costaudit.audit_evp(routine, expr))
    report.add("transval", transval.validate_evp(routine, expr))
    return report


def enforce(report: RoutineReport) -> RoutineReport:
    """Raise :class:`BeecheckError` if *report* carries findings."""
    if not report.ok:
        raise BeecheckError(report.routine, report.findings)
    return report


def verify_gcl(routine, layout: TupleLayout) -> None:
    enforce(check_gcl(routine, layout))


def verify_gcl_cols(routine, layout: TupleLayout) -> None:
    enforce(check_gcl_cols(routine, layout))


def verify_scl(routine, layout: TupleLayout) -> None:
    enforce(check_scl(routine, layout))


def verify_evp(routine, expr) -> None:
    enforce(check_evp(routine, expr))

def check_evj(routine) -> RoutineReport:
    """Run the static passes over one cloned EVJ template.

    EVJ routines are C text with no compiled function; the transval lane
    interprets the template instead of executing it.
    """
    report = RoutineReport(
        routine.name, "evj", f"{routine.join_type}/{routine.n_keys}"
    )
    report.add("lint", lint.lint_evj(routine.source))
    report.add(
        "determinism", lint.lint_determinism(routine.source, c_text=True)
    )
    report.add("absint", absint.check_evj(routine))
    report.add("costaudit", costaudit.audit_evj(routine))
    report.add("transval", transval.validate_evj(routine))
    return report


def check_agg(routine, specs, assume_not_null: bool = False) -> RoutineReport:
    """Run all passes over one generated AGG transition routine."""
    subject = ",".join(
        f"{spec.func}({'*' if spec.arg is None else spec.arg!r})"
        for spec in specs
    )
    report = RoutineReport(routine.name, "agg", subject)
    report.add(
        "lint",
        lint.lint_agg(routine.source, routine.name)
        + lint.lint_name_hole(routine),
    )
    report.add("determinism", lint.lint_determinism(routine.source))
    report.add("absint", absint.check_agg(routine, specs))
    report.add(
        "costaudit", costaudit.audit_agg(routine, specs, assume_not_null)
    )
    report.add(
        "transval", transval.validate_agg(routine, specs, assume_not_null)
    )
    return report


def check_pipeline(routine, spec) -> RoutineReport:
    """Run all passes over one fused pipeline bee.

    *spec* is the :class:`repro.bees.pipeline.codegen.PipelineSpec` the
    routine was generated from — the lint keys its grammar off the sink,
    and the translation validator replays the spec's unfused semantics.
    """
    report = RoutineReport(
        routine.name, "pipeline", f"{spec.relation}/{spec.sink}"
    )
    report.add(
        "lint",
        lint.lint_pipeline(
            routine.source, routine.name, spec.sink,
            f"v{spec.layout.schema.natts}" if spec.ctid else None,
        )
        + lint.lint_name_hole(routine),
    )
    report.add("determinism", lint.lint_determinism(routine.source))
    report.add("absint", absint.check_pipeline(routine, spec))
    report.add("costaudit", costaudit.audit_pipeline(routine, spec))
    report.add("transval", transval.validate_pipeline(routine, spec))
    return report


def check_vector(routine, spec) -> RoutineReport:
    """Run the vector passes over one columnar kernel.

    *spec* is the same :class:`repro.bees.pipeline.codegen.PipelineSpec`
    the pipeline tier fuses (vector bees compile the identical plan
    shape to a different program).  No absint lane: kernels do no offset
    arithmetic — chunk decode is generic library code — so the passes
    are lint (columnar grammar), costaudit (charge constants), and
    transval (kernel vs interpreter over enumerated chunks).
    """
    report = RoutineReport(
        routine.name, "vector", f"{spec.relation}/{spec.sink}"
    )
    report.add(
        "lint",
        lint.lint_vector(
            routine.source, routine.name, spec.sink, spec.scan_width
        )
        + lint.lint_name_hole(routine),
    )
    report.add("determinism", lint.lint_determinism(routine.source))
    report.add("costaudit", costaudit.audit_vector(routine, spec))
    report.add("transval", transval.validate_vector(routine, spec))
    return report


def check_idx(routine, key_indexes) -> RoutineReport:
    """Run all passes over one generated IDX key-extraction routine."""
    report = RoutineReport(routine.name, "idx", repr(list(key_indexes)))
    report.add("lint", lint.lint_idx(routine.source, routine.name))
    report.add("determinism", lint.lint_determinism(routine.source))
    report.add("absint", absint.check_idx(routine, key_indexes))
    report.add("costaudit", costaudit.audit_idx(routine, key_indexes))
    report.add("transval", transval.validate_idx(routine, key_indexes))
    return report


def verify_evj(routine) -> None:
    enforce(check_evj(routine))


def verify_agg(routine, specs, assume_not_null: bool = False) -> None:
    enforce(check_agg(routine, specs, assume_not_null))


def verify_idx(routine, key_indexes) -> None:
    enforce(check_idx(routine, key_indexes))


def verify_pipeline(routine, spec) -> None:
    enforce(check_pipeline(routine, spec))


def verify_vector(routine, spec) -> None:
    enforce(check_vector(routine, spec))


def check(kind: str, routine, *args) -> RoutineReport:
    """``check_<kind>(routine, *args)`` — the corpus sweeps' dispatch.
    An unknown family (a tier row without a checker) raises."""
    return globals()[f"check_{kind}"](routine, *args)
