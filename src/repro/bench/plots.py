"""ASCII charts for terminal-only environments.

The paper's figures are scatter/line plots; this repository runs where
no plotting stack exists, so the harness renders its series as ASCII.
The axes are log-log because every scaling figure in the paper is
log-log (node counts double, times shrink geometrically).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["ascii_chart", "scaling_chart"]

_MARKERS = "ox+*#@%&"
_WIDTH, _HEIGHT = 70, 18


def _log10(value: float) -> float:
    if value <= 0:
        raise ValueError("log axis requires positive values")
    return math.log10(value)


def ascii_chart(series: dict[str, Sequence[tuple[float, float]]]) -> str:
    """Render named (nodes, seconds) series as a log-log ASCII chart.

    Each series gets a marker from ``oxx+*...``; points sharing a cell
    keep the first-drawn marker.
    """
    points = [(name, x, y) for name, pts in series.items() for x, y in pts]
    if not points:
        return "(no data)\n"
    width, height = _WIDTH, _HEIGHT
    xs = [_log10(x) for _, x, _ in points]
    ys = [_log10(y) for _, _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for (name, x, y), tx, ty in zip(points, xs, ys):
        col = int((tx - x_lo) / x_span * (width - 1))
        row = height - 1 - int((ty - y_lo) / y_span * (height - 1))
        marker = _MARKERS[list(series).index(name) % len(_MARKERS)]
        if grid[row][col] == " ":
            grid[row][col] = marker

    lines = ["log-log scaling (lower is better)", f"time(s) {10**y_hi:.3g}"]
    for row in grid:
        lines.append("  |" + "".join(row))
    lines.append("  +" + "-" * width)
    pad = max(0, width - 12)
    lines.append(f"   {10**x_lo:.3g}{' ' * pad}{10**x_hi:.3g}  (nodes)")
    lines.append(f"  time(s) min = {10**y_lo:.3g}")
    legend = "   " + "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines) + "\n"


def scaling_chart(times_by_algorithm: dict[str, dict[int, float]]) -> str:
    """Render {algorithm: {nodes: seconds}} as a log-log scaling plot.

    OOM/missing points (NaN) are skipped.
    """
    series = {}
    for name, curve in times_by_algorithm.items():
        pts = [
            (float(nodes), float(t))
            for nodes, t in sorted(curve.items())
            if t == t and t > 0
        ]
        if pts:
            series[name] = pts
    return ascii_chart(series)
