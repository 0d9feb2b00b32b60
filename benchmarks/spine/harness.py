"""Shared machinery of the spine benchmark: clocks, percentiles, spans,
the run stamp, scratch directories and the per-workload result record.

Nothing here imports the engine; the workload modules do.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parent.parent
RESULTS_DIR = SPINE_DIR / "results"
EXPECTED_DIR = SPINE_DIR / "expected"
DEFAULT_SEED = 20120401

now = time.perf_counter


# -- percentiles ---------------------------------------------------------------

TAIL_LADDER = (50, 75, 90, 95, 99)
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """The *p*-th percentile of *samples* (linear interpolation)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples, cap: int = 99) -> tuple[int, float, int]:
    """``(p, value, n)``: the highest ladder percentile ``p <= cap`` that
    still has at least ``MIN_BEYOND`` samples beyond it, its value, and
    the sample count.  A sample too small for any tail reports its
    median (p = 50)."""
    n = len(samples)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if p <= cap and n * (100 - p) / 100.0 >= MIN_BEYOND:
            chosen = p
    return chosen, percentile(samples, chosen), n


def median(samples) -> float:
    return statistics.median(samples)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spearman(xs, ys) -> float:
    """Spearman rank correlation (average ranks on ties)."""

    def ranks(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var = math.sqrt(
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    )
    return cov / var if var else 0.0


# -- the machine's speed right now ------------------------------------------------


class Calibrator:
    """Times a fixed pure-Python kernel between operations.

    This VM switches between speed modes about 30 % apart for seconds at
    a time, so identical runs differ by 10-20 % on the raw clock.  The
    mean kernel time over a run says how fast the machine was *during
    that run*; wall metrics are reported scaled to the reference speed
    (``REFERENCE_S`` per kernel: what this box typically delivered at
    the seed commit) with the raw values printed beside them.  Readings
    are taken outside timed operations and their own time is excluded
    from elapsed time.
    """

    ITERATIONS = 5000
    REFERENCE_S = 215e-6

    def __init__(self) -> None:
        self.readings: list[float] = []

    def read(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = now()
            total = 0
            for i in range(self.ITERATIONS):
                total += i * i
            self.readings.append(now() - t0)

    @property
    def spent(self) -> float:
        """Seconds the readings themselves took (excluded from elapsed time)."""
        return sum(self.readings)

    def factor(self) -> float:
        """Reference speed / observed speed: < 1 on a slow machine."""
        return self.REFERENCE_S * len(self.readings) / self.spent


def at_reference_speed(raw: dict[str, float], run: Calibrator,
                       setup: Calibrator) -> dict[str, float]:
    """Scale the wall metrics of one run to the reference speed."""
    f_run, f_setup = run.factor(), setup.factor()
    out = dict(raw)
    out["setup_s"] = raw["setup_s"] * f_setup
    out["ops_per_s"] = raw["ops_per_s"] / f_run
    out["op_p50_ms"] = raw["op_p50_ms"] * f_run
    out["op_tail_ms"] = raw["op_tail_ms"] * f_run
    return out


# -- traced vs untraced ---------------------------------------------------------


def weighted_overhead_pct(plain: dict[str, list[float]],
                          traced: dict[str, list[float]]) -> float:
    """Traced vs untraced medians per class, weighted by class count
    (both sides run the same mix, in alternating blocks)."""
    shift = base = 0.0
    for cls in plain:
        if plain[cls] and traced.get(cls):
            weight = len(plain[cls]) + len(traced[cls])
            shift += weight * (median(traced[cls]) - median(plain[cls]))
            base += weight * median(plain[cls])
    return shift / base * 100.0 if base else 0.0


# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the causing span in the recorder's list
    op: int              # spans of one operation share this identifier


class SpanRecorder:
    """In-memory span log around calls *into* layers.

    Spans nest per thread (the parent is the innermost open span of the
    calling thread); the list is written as JSONL when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, op: int):
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        record = Span(name, 0.0, 0.0, stack[-1] if stack else None, op)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record.start = now()
        try:
            yield record
        finally:
            record.end = now()
            stack.pop()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "op": s.op,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    part of its interval that its child spans cover (overlapping
    children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    totals: dict[str, float] = {}
    for index, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - covered
    return totals


def span_durations(spans: list[Span], name: str) -> list[float]:
    return [s.end - s.start for s in spans if s.name == name]


# -- environment ---------------------------------------------------------------


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus the largest reaped child
    when *children* — Linux reports ``ru_maxrss`` in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def stamp(seed: int, seconds: float) -> dict:
    """Identify the run: commit, machine, interpreter, load."""
    commit = "unknown"
    if (REPO_ROOT / ".git").exists():   # the driver's checkout is not a repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
                capture_output=True, text=True, timeout=5,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    load1 = os.getloadavg()[0]
    if load1 > 1.0:
        print(f"warning: 1-minute load average is {load1:.2f} (> 1.0); "
              "timings will be noisy", file=sys.stderr)
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
        "loadavg_1m": load1,
    }


@contextmanager
def scratch_dir():
    """A temp dir inside the benchmark's own results directory (the
    benchmark writes nowhere else), removed on success and on failure."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="scratch-", dir=RESULTS_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- the result of one workload run ---------------------------------------------


@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """One whole-run verification (digest, consistency, recovery):
        counted as an attempted operation of its own."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def end_to_end(self, raw: dict[str, float], run: Calibrator,
                   setup: Calibrator) -> None:
        """Report the end-to-end metrics at reference speed; keep the
        raw clock's values beside them."""
        self.metrics.update(at_reference_speed(raw, run, setup))
        self.notes["raw"] = {k: raw[k] for k in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms")}
        self.notes["speed_factor"] = {
            "run": round(run.factor(), 4), "setup": round(setup.factor(), 4),
            "readings": len(run.readings),
        }

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


class Deadline:
    """The measured window: ``--seconds`` from the first timed op."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = now()

    def elapsed(self) -> float:
        return now() - self.started

    def left(self) -> float:
        return self.seconds - self.elapsed()

    def room_for(self, cost: float) -> bool:
        """Whether another unit of work of about *cost* seconds still
        ends inside the window."""
        return self.elapsed() + cost <= self.seconds
