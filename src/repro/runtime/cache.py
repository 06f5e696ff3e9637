"""Cache-miss accounting: the simulated stand-in for PAPI counters.

The paper validates its analytical model against last-level cache miss
counts measured with PAPI (Fig. 3).  We cannot read hardware counters
for a virtual machine, so the runtime charges cache misses from the
*access patterns* the algorithms actually perform:

* :func:`scan_misses` — the model's optimal-replacement streaming
  formula ``1 + bytes/L`` (used for the *predicted* series);
* :class:`CacheAccounting` — the *measured* series: an LRU-flavoured
  estimator that charges sequential streams at ``bytes/L`` and random
  accesses at a working-set-dependent miss ratio, slightly above the
  optimal model, mirroring the paper's observation that measured
  misses exceed the optimal-replacement prediction in Phase 1.

Tests check the estimator's asymptotics against an exact LRU — the
serving :class:`~repro.serve.cache.HotKeyCache` driven over line ids.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["scan_misses", "random_access_misses", "CacheAccounting"]


def scan_misses(nbytes: int, line_bytes: int) -> int:
    """Optimal-model misses of one sequential scan: ``1 + nbytes/L``."""
    if nbytes < 0 or line_bytes <= 0:
        raise ValueError("nbytes >= 0 and line_bytes > 0 required")
    return 1 + nbytes // line_bytes


def random_access_misses(
    n_accesses: int, working_set_bytes: int, cache_bytes: int, line_bytes: int
) -> int:
    """LRU-estimate of misses for random accesses over a working set.

    If the working set fits in cache, only compulsory misses remain
    (one per line of the working set).  Otherwise each access misses
    with probability ``1 - Z/W``.
    """
    if n_accesses < 0:
        raise ValueError("n_accesses must be >= 0")
    if working_set_bytes <= cache_bytes:
        return min(n_accesses, scan_misses(working_set_bytes, line_bytes))
    miss_ratio = 1.0 - cache_bytes / working_set_bytes
    compulsory = scan_misses(working_set_bytes, line_bytes)
    return int(n_accesses * miss_ratio) + min(n_accesses, compulsory)


@dataclass(slots=True)
class CacheAccounting:
    """Accumulates estimated LLC misses for one PE.

    The runtime calls :meth:`stream` for sequential array traffic and
    :meth:`scatter` for bucket/bin writes.  A small per-call overhead
    (one extra line) models the TLB/metadata traffic that makes real
    counters sit above the optimal model.
    """

    cache_bytes: int
    line_bytes: int
    misses: int = 0

    def stream(self, nbytes: int) -> int:
        """Sequential read or write of *nbytes*; returns misses added."""
        m = scan_misses(nbytes, self.line_bytes)
        self.misses += m
        return m

    def scatter(self, n_accesses: int, working_set_bytes: int) -> int:
        """Random accesses (e.g. radix bucket writes) over a working set."""
        m = random_access_misses(
            n_accesses, working_set_bytes, self.cache_bytes, self.line_bytes
        )
        self.misses += m
        return m

    def reset(self) -> int:
        old, self.misses = self.misses, 0
        return old
