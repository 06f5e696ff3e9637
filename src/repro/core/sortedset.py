"""Distributed sorted-set counting: eliminating the inter-phase barrier.

Section VII: *"Our current sorting-based approach still involves an
explicit barrier between phases 1 and 2.  This synchronization could
be eliminated, thereby allowing the phases to overlap, by using a
distributed sorted-set data structure that supports asynchronous
queries and updates."*

This module implements that future-work design:

* :class:`SortedRunSet` — an LSM-flavoured sorted-set: incoming k-mer
  batches are sorted into *runs*; runs compact by merging once their
  number crosses a threshold, so insertion stays cheap and the final
  accumulate is a k-way merge of a handful of sorted runs instead of a
  full re-sort.
* :func:`dakc_overlap_count` — DAKC with the sorted-set receivers:
  Phase-2 work happens *inside* each delivery's service time, so the
  algorithm needs only **two** global synchronisations (entry and
  exit) — the lower bound the paper quotes in Section I.

The trade-off mirrors the paper's discussion: per-element insertion
into the sorted set costs more than appending to a flat array, but the
inter-phase barrier (and the idle time it creates under skew)
disappears.  Run open/split/close come from :mod:`repro.core.phases`,
the send side from :mod:`repro.core.dakc`; only the receive side is new.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..runtime.cache import CacheAccounting
from ..runtime.cost import CostModel
from ..runtime.machine import MachineConfig
from ..runtime.stats import RunStats
from ..seq.kmers import check_k
from ..sort.accumulate import accumulate_weighted
from .dakc import DakcConfig, DeliveryIntegrityError, _run_phase1, open_conveyor
from .l2l3 import receive_service_time
from .phases import SimRun, split_reads
from .result import KmerCounts

__all__ = ["SortedRunSet", "dakc_overlap_count"]


@dataclass
class SortedRunSet:
    """Sorted-set of (k-mer, weight) pairs built from sorted runs.

    Runs are pairs of parallel arrays (keys sorted ascending, weights).
    ``compact_threshold`` bounds the run count: crossing it triggers a
    merge of all runs into one (amortised O(n log r) total work).
    """

    compact_threshold: int = 8
    runs: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    #: Total elements inserted (occurrence-weighted).
    total_weight: int = 0
    #: Merge traffic performed, in elements (for cost charging).
    merged_elements: int = 0

    def insert_batch(self, kmers: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Insert a batch; sorts it into a new run, compacting if needed."""
        kmers = np.asarray(kmers, dtype=np.uint64)
        if kmers.size == 0:
            return
        if weights is None:
            weights = np.ones(kmers.size, dtype=np.int64)
        else:
            weights = np.asarray(weights, dtype=np.int64)
            if weights.shape != kmers.shape:
                raise ValueError("weights must match kmers")
        uniq, counts = accumulate_weighted(kmers, weights)
        self.runs.append((uniq, counts))
        self.total_weight += int(weights.sum())
        if len(self.runs) > self.compact_threshold:
            self._compact()

    def _compact(self) -> None:
        keys = np.concatenate([r[0] for r in self.runs])
        vals = np.concatenate([r[1] for r in self.runs])
        self.merged_elements += int(keys.size)
        self.runs = [accumulate_weighted(keys, vals)]

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Merge all runs into the final ordered (k-mer, count) array."""
        if not self.runs:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        self._compact()
        return self.runs[0]

    @property
    def n_runs(self) -> int:
        return len(self.runs)


def dakc_overlap_count(
    reads: np.ndarray | list,
    k: int,
    cost: CostModel | MachineConfig,
    config: DakcConfig | None = None,
) -> tuple[KmerCounts, RunStats]:
    """DAKC with sorted-set receivers: two global synchronisations.

    Identical Phase-1 pipeline (L3/L2/L1/L0 aggregation over the
    conveyor), but deliveries are folded straight into each owner's
    :class:`SortedRunSet`; the insertion cost is charged inside the
    delivery's lazy service time, so no inter-phase barrier exists and
    Phase-2 "sorting" reduces to the final run merge.
    """
    check_k(k)
    config = config or DakcConfig()
    run = SimRun(cost)
    cost, stats, n_pes = run.cost, run.stats, run.n_pes
    conveyor = open_conveyor(run, config)

    run.barrier()  # sync 1: entry

    _run_phase1(split_reads(reads, n_pes), k, cost, stats, conveyor, config)

    # Fold deliveries into per-owner sorted sets, charging each
    # delivery's insert inside its lazy-queue service time.
    sets = [SortedRunSet() for _ in range(n_pes)]
    results = []
    for dst in range(n_pes):
        pe_stats = stats.pe[dst]
        s = sets[dst]
        jobs = []
        log_r = max(1.0, math.log2(s.compact_threshold + 1))
        for arrival, group in conveyor.delivered[dst]:
            base = receive_service_time(cost, group)
            # Insert = sort the batch + its amortised share of merges:
            # ~log2(batch) + log2(runs) touches per element.
            n = group.n_elements
            sort_ops = n * max(1.0, math.log2(max(2, n))) + n * log_r
            insert = sort_ops / cost.pe_ops + (2 * 8 * n * log_r) / cost.pe_mem_bw
            jobs.append((arrival, base + insert))
            if group.kind == "HEAVY":
                s.insert_batch(group.kmers, group.counts)
            else:
                s.insert_batch(group.kmers)
            pe_stats.kmers_received += n
            pe_stats.elements_received += n
        pe_stats.clock = cost.busy_period(pe_stats.clock, jobs)
        stats.phase1_time = max(stats.phase1_time, pe_stats.clock)
        # Final run merge (the residue of Phase 2).
        pre_merge = s.merged_elements
        uniq, counts = s.finalize()
        merge_elems = s.merged_elements - pre_merge
        cost.charge_compute(pe_stats, merge_elems * 2)
        cost.charge_mem(pe_stats, merge_elems * 16)
        cache = CacheAccounting(cost.machine.line_bytes)
        cache.stream(merge_elems * 8)
        pe_stats.cache_misses_p2 += cache.misses
        run.memory.set_category(dst, "sorted-set", int(uniq.nbytes + counts.nbytes))
        results.append((uniq, counts))

    delivered_weight = sum(s.total_weight for s in sets)
    if delivered_weight != stats.total_kmers:
        raise DeliveryIntegrityError(
            f"delivery conservation violated: {stats.total_kmers} "
            f"k-mer occurrences generated but {delivered_weight} inserted"
        )

    # sync 2 is the run's exit barrier — that's all of them.
    return run.finish(k, results, protocol=config.protocol, mode="overlap")
