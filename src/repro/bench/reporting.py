"""Render experiment results as paper-style tables and ASCII figures."""

from __future__ import annotations


def improvement(stock: float, bees: float) -> float:
    """Percentage improvement of *bees* over *stock* (positive = faster)."""
    if stock <= 0:
        return 0.0
    return 100.0 * (1.0 - bees / stock)


def bar_chart(
    labels: list[str],
    values: list[float],
    title: str,
    unit: str = "%",
    width: int = 40,
    vmax: float | None = None,
) -> str:
    """An ASCII bar chart shaped like the paper's per-query figures."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    vmax = vmax or max((abs(v) for v in values), default=1.0) or 1.0
    lines = [title, "=" * len(title)]
    for label, value in zip(labels, values):
        bar = "#" * max(0, int(round(width * max(value, 0.0) / vmax)))
        lines.append(f"{label:>6s} | {bar:<{width}s} {value:6.1f}{unit}")
    return "\n".join(lines)


def table(headers: list[str], rows: list[list], title: str = "") -> str:
    """A fixed-width text table."""
    rendered_rows = [
        [f"{cell:.2f}" if isinstance(cell, float) else str(cell) for cell in row]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered_rows))
        if rendered_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
