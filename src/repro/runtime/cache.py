"""Cache-miss accounting: the simulated stand-in for PAPI counters.

The paper validates its analytical model against last-level cache miss
counts measured with PAPI (Fig. 3).  We cannot read hardware counters
for a virtual machine, so the runtime charges cache misses from the
*access patterns* the algorithms actually perform:

* :func:`scan_misses` — the model's optimal-replacement streaming
  formula ``1 + bytes/L`` (used for the *predicted* series);
* :class:`CacheAccounting` — the *measured* series: every sequential
  stream a PE performs charged at ``1 + bytes/L``, so the per-stream
  extra line puts it slightly above the optimal model, mirroring the
  paper's observation that measured misses exceed the
  optimal-replacement prediction in Phase 1.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["scan_misses", "CacheAccounting"]


def scan_misses(nbytes: int, line_bytes: int) -> int:
    """Optimal-model misses of one sequential scan: ``1 + nbytes/L``."""
    if nbytes < 0 or line_bytes <= 0:
        raise ValueError("nbytes >= 0 and line_bytes > 0 required")
    return 1 + nbytes // line_bytes


@dataclass(slots=True)
class CacheAccounting:
    """Accumulates estimated LLC misses for one PE.

    The runtime calls :meth:`stream` for sequential array traffic.  A
    small per-call overhead (one extra line) models the TLB/metadata
    traffic that makes real counters sit above the optimal model.
    """

    line_bytes: int
    misses: int = 0

    def stream(self, nbytes: int) -> int:
        """Sequential read or write of *nbytes*; returns misses added."""
        m = scan_misses(nbytes, self.line_bytes)
        self.misses += m
        return m

    def reset(self) -> int:
        old, self.misses = self.misses, 0
        return old
