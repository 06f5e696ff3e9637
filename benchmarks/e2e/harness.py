"""Measurement plumbing shared by the e2e workloads.

Nothing here knows about k-mers: a span recorder that exports the
Chrome trace-event shape ``repro.runtime.trace.to_chrome_trace``
emits, an op ledger (attempted / failed), and the small statistics the
workloads report.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux: ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call; the result is fully built inside."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@dataclass
class Ops:
    """Ledger of operations attempted and failed.

    An op fails when it raises, when its result differs from the
    oracle, or (serving) when its query group is rejected.
    """

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Account one op whose outcome is already known."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"FAILED OP: {what}", file=sys.stderr)
        return bool(ok)

    @contextmanager
    def guard(self, what: str):
        """Run a block whose exception is one failed op, not a crash.

        The harness boundary: a later change may break one phase, and
        the run must still report every other phase and exit non-zero.
        """
        try:
            yield
        except Exception:
            traceback.print_exc()
            self.check(False, f"{what}: raised")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at the root
    workload: str


class Spans:
    """In-memory span recorder for the traced run (written out at exit)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)  # reserve the slot so children see the index
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, t0, t1, parent, self.workload)

    def add(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Record a span timed elsewhere (concurrent callers cannot nest)."""
        self.spans.append(Span(name, start, end, parent, self.workload))

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def leaf_coverage(self, root: str) -> float:
        """Leaf-span time under the *root* spans ÷ the time of those spans.

        Two client slots of one closed loop overlap in time, so a
        workload with concurrent leaves can exceed 1.
        """
        under_root = [s.name == root if s.parent is None else None
                      for s in self.spans]
        for i, s in enumerate(self.spans):   # parents precede children
            if s.parent is not None:
                under_root[i] = under_root[s.parent]
        parents = {s.parent for s in self.spans}
        leaves = sum(s.end - s.start for i, s in enumerate(self.spans)
                     if under_root[i] and i not in parents)
        wall = self.total(root)
        return leaves / wall if wall > 0 else 0.0

    def to_chrome_trace(self) -> str:
        """Chrome trace-event JSON, one row per nesting depth."""
        t_base = min((s.start for s in self.spans), default=0.0)
        depth: list[int] = []
        for s in self.spans:
            depth.append(0 if s.parent is None else depth[s.parent] + 1)
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": f"e2e {self.workload}"},
        }]
        for i, s in enumerate(self.spans):
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "pid": 0, "tid": depth[i],
                "ts": (s.start - t_base) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "args": {"id": i, "parent": s.parent, "workload": s.workload},
            })
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                          indent=1)
