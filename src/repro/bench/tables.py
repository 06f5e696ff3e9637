"""Plain-text table/figure rendering for the benchmark harness.

Every experiment prints the same rows/series the paper reports, as
ASCII tables (no plotting dependencies).  Keep the formatting dumb and
grep-friendly: benchmark logs are diffed across runs.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table", "print_table", "format_time", "format_bytes", "format_speedup"]


def format_time(seconds: float) -> str:
    """Human-scale rendering of a (simulated) duration."""
    if seconds != seconds:  # NaN
        return "-"
    if seconds >= 100:
        return f"{seconds:.0f} s"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.2f} us"
    return f"{seconds * 1e9:.1f} ns"


def format_bytes(nbytes: float) -> str:
    for unit, scale in (("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(nbytes) >= scale:
            return f"{nbytes / scale:.2f} {unit}"
    return f"{nbytes:.0f} B"


def format_speedup(x: float) -> str:
    return "-" if x != x else f"{x:.2f}x"


def format_table(rows: Sequence[dict], *, title: str | None = None) -> str:
    """Render dict-rows as an aligned ASCII table, in the first row's
    column order."""
    if not rows:
        return f"== {title} ==\n(no rows)\n" if title else "(no rows)\n"
    cols = list(rows[0].keys())
    cells = [[str(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(f"== {title} ==")
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def print_table(rows: Sequence[dict], *, title: str | None = None) -> None:
    """Print dict-rows as an aligned ASCII table."""
    print(format_table(rows, title=title))
