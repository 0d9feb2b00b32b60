"""The one finding / per-pass result / run report schema.

Every checker pass — whatever it proves — reports in the same three
shapes: a :class:`Finding` is one violated property, a
:class:`PassResult` is what one registered pass produced (free-form
``stats``, its findings, and the injection self-test's
``case -> caught`` map), and a :class:`Report` is one
``python -m repro.verify`` run.

Two files come out of a run.  ``report.json`` is the full report
(stats, findings, timings) and goes to the ``--out`` directory.
``summary.json`` is what gets committed under ``results/verify/``: per
pass the scalar counts, the self-test verdicts and a sha256 over the
findings+stats payload with timings, object addresses and line numbers
stripped — so it changes only when what a pass *saw* changes, and two
runs with the same seed write the same bytes.

Deliberately dependency-free (stdlib only): the engine imports
:class:`Finding` through beecheck for ``verify_on_generate``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence


@dataclass(frozen=True)
class Finding:
    """One violated property, attributed to the sub-pass or rule that
    proved it (``transval``, ``purity``, ``drop-invalidates-buffer``…)."""

    pass_name: str
    subject: str        # routine, plan label, Class.attr site, function
    message: str
    module: str = ""
    lineno: int = 0

    def __str__(self) -> str:
        where = f" ({self.module}:{self.lineno})" if self.module else ""
        return f"[{self.pass_name}] {self.subject}{where}: {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "pass": self.pass_name,
            "subject": self.subject,
            "message": self.message,
            "module": self.module,
            "line": self.lineno,
        }


def run_injections(
    cases: Sequence[tuple[str, Callable[[], bool]]],
) -> dict[str, bool]:
    """The self-test runner loop: each case plants one bug and returns
    True iff the checker caught it.  A case that raises is recorded as
    missed rather than aborting the run — a checker that crashes on a
    planted bug did not catch it.
    """
    results: dict[str, bool] = {}
    for name, probe in cases:
        try:
            results[name] = bool(probe())
        except Exception:   # noqa: BLE001 - any crash means "missed"
            results[name] = False
    return results


#: Keys whose values vary run to run without the checked system having
#: changed; dropped (at any depth) before a pass's payload is hashed.
_VOLATILE_KEYS = frozenset({"line", "lineno", "elapsed_seconds"})
_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def _scrub(value: object) -> object:
    if isinstance(value, dict):
        return {
            str(key): _scrub(item)
            for key, item in value.items()
            if key not in _VOLATILE_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [_scrub(item) for item in value]
    if isinstance(value, str):
        return _ADDRESS.sub("0x", value)
    return value


def _counts(stats: dict[str, object]) -> dict[str, object]:
    """The part of *stats* a summary shows: scalars, and one level of
    ``name -> int`` maps (routines by family, executions by tier)."""
    shown: dict[str, object] = {}
    for key, value in stats.items():
        if isinstance(value, (bool, int, str)):
            shown[key] = value
        elif isinstance(value, dict) and value and all(
            isinstance(item, int) for item in value.values()
        ):
            shown[key] = dict(value)
    return shown


@dataclass
class PassResult:
    """What one registered pass produced."""

    name: str
    stats: dict[str, object] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)
    selftest: dict[str, bool] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings and all(self.selftest.values())

    def digest(self) -> str:
        """sha256 of the scrubbed findings+stats payload."""
        payload = _scrub({
            "stats": self.stats,
            "findings": [finding.to_dict() for finding in self.findings],
        })
        text = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
            "stats": self.stats,
            "findings": [finding.to_dict() for finding in self.findings],
            "selftest": dict(self.selftest),
        }

    def to_summary(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "counts": _counts(self.stats),
            "findings": len(self.findings),
            "selftest": dict(sorted(self.selftest.items())),
            "sha256": self.digest(),
        }

    def summary_line(self) -> str:
        parts = []
        for key, value in _counts(self.stats).items():
            if isinstance(value, dict):
                inner = ", ".join(f"{k}={v}" for k, v in sorted(value.items()))
                parts.append(f"{key}({inner})")
            else:
                parts.append(f"{key}={value}")
        if self.selftest:
            caught = sum(self.selftest.values())
            parts.append(f"injections {caught}/{len(self.selftest)} caught")
        status = "ok" if self.ok else "FAIL"
        return (
            f"  [{status:4}] {self.name:12} {'; '.join(parts)} "
            f"({self.elapsed:.1f}s)"
        )


@dataclass
class Report:
    """One ``python -m repro.verify`` run."""

    seed: int
    statements: int
    passes: list[PassResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.passes)

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "statements": self.statements,
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
            "passes": {r.name: r.to_dict() for r in self.passes},
        }

    def to_summary(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "statements": self.statements,
            "ok": self.ok,
            "passes": {r.name: r.to_summary() for r in self.passes},
        }

    def summary(self) -> str:
        lines = [
            f"verify seed={self.seed} statements={self.statements}: "
            f"{len(self.passes)} pass(es) in {self.elapsed:.1f}s"
        ]
        for result in self.passes:
            lines.append(result.summary_line())
            lines.extend(
                f"         MISSED injection {case}"
                for case, caught in sorted(result.selftest.items())
                if not caught
            )
            lines.extend(f"         {finding}" for finding in result.findings)
        findings = sum(len(result.findings) for result in self.passes)
        lines.append(
            "all passes clean" if self.ok
            else f"FAILED: {findings} finding(s) or missed injection(s)"
        )
        return "\n".join(lines)

    def write(self, out_dir: str | Path) -> Path:
        """Write ``report.json`` (full) and ``summary.json`` (the
        committable digest) under *out_dir*; returns the report path."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in (
            ("report.json", self.to_dict()),
            ("summary.json", self.to_summary()),
        ):
            (out / name).write_text(
                json.dumps(payload, indent=2, default=str) + "\n"
            )
        return out / "report.json"
