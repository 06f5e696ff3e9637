"""Execution tracing: per-PE event timelines for the simulated runs.

A :class:`Tracer` records (pe, start, end, kind) spans during a
simulated execution and renders them as an ASCII Gantt chart — the
poor man's version of the timeline views HPC profilers give, useful
for *seeing* DAKC's asynchrony vs the BSP baselines' barrier walls
(see ``examples/timeline_visualization.py``).  For real timeline
tooling, :func:`to_chrome_trace` exports the same spans as Chrome
trace-event JSON loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "render_gantt", "to_chrome_trace"]

#: Kind -> glyph used in the Gantt rendering.
GLYPHS = {
    "compute": "#",
    "memory": "=",
    "send": ">",
    "receive": "<",
    "wait": ".",
    "barrier": "|",
    "sort": "S",
}


@dataclass(frozen=True, slots=True)
class Span:
    """One traced activity interval on one PE."""

    pe: int
    start: float
    end: float
    kind: str

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("span ends before it starts")


@dataclass
class Tracer:
    """Collects spans; attach to a run by calling :meth:`record`."""

    spans: list[Span] = field(default_factory=list)
    enabled: bool = True

    def record(self, pe: int, start: float, end: float, kind: str) -> None:
        if not self.enabled or end <= start:
            return
        self.spans.append(Span(pe, start, end, kind))

    def pe_span(self, pe: int) -> tuple[float, float]:
        mine = [s for s in self.spans if s.pe == pe]
        if not mine:
            return 0.0, 0.0
        return min(s.start for s in mine), max(s.end for s in mine)

    def busy_fraction(self, pe: int) -> float:
        """Fraction of a PE's traced wall time spent outside ``wait``."""
        mine = [s for s in self.spans if s.pe == pe]
        if not mine:
            return 0.0
        lo, hi = self.pe_span(pe)
        if hi == lo:
            return 0.0
        busy = sum(s.end - s.start for s in mine if s.kind != "wait")
        return min(1.0, busy / (hi - lo))

    def total_time(self) -> float:
        return max((s.end for s in self.spans), default=0.0)


def to_chrome_trace(tracer: Tracer) -> str:
    """Export spans as Chrome trace-event JSON (Perfetto-loadable).

    Each span becomes a complete ("ph": "X") duration event: one
    process for the simulated machine, one thread per PE, simulated
    seconds mapped to trace microseconds.  Thread-name metadata events
    label each PE row, so the Perfetto timeline reads ``PE 0..P-1``.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "simulated machine"},
        }
    ]
    for pe in sorted({s.pe for s in tracer.spans}):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": pe,
                "args": {"name": f"PE {pe}"},
            }
        )
    for span in sorted(tracer.spans, key=lambda s: (s.start, s.pe)):
        events.append(
            {
                "name": span.kind,
                "cat": span.kind,
                "ph": "X",
                "pid": 0,
                "tid": span.pe,
                "ts": span.start * 1e6,   # trace time unit is microseconds
                "dur": (span.end - span.start) * 1e6,
            }
        )
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, indent=1
    )


def render_gantt(tracer: Tracer, *, width: int = 80, n_pes: int | None = None) -> str:
    """Render the trace as one ASCII row per PE.

    Later spans overwrite earlier ones at the same cell; barriers
    render last so they always show.
    """
    if not tracer.spans:
        return "(empty trace)\n"
    t_end = tracer.total_time()
    if t_end <= 0:
        return "(zero-length trace)\n"
    pes = sorted({s.pe for s in tracer.spans})
    if n_pes is not None:
        pes = list(range(n_pes))
    rows = {pe: [" "] * width for pe in pes}
    ordered = sorted(tracer.spans, key=lambda s: (s.kind == "barrier", s.start))
    for span in ordered:
        if span.pe not in rows:
            continue
        glyph = GLYPHS.get(span.kind, "?")
        lo = int(span.start / t_end * (width - 1))
        hi = max(lo + 1, int(span.end / t_end * (width - 1)) + 1)
        for x in range(lo, min(width, hi)):
            rows[span.pe][x] = glyph
    lines = [f"t=0 {'-' * (width - 8)} t={t_end:.3g}s"]
    for pe in pes:
        lines.append(f"PE{pe:>3} {''.join(rows[pe])}")
    legend = "  ".join(f"{g}={k}" for k, g in GLYPHS.items())
    lines.append(f"[{legend}]")
    return "\n".join(lines) + "\n"
