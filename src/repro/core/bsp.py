"""Algorithm 2: the BSP (bulk-synchronous) k-mer counter baseline.

This is the communication structure of PakMan's KC kernel (blocking
Many-To-Many collectives, batches of ``b`` k-mers) and — with
non-blocking collectives and hybrid ranks — of HySortK.  Per superstep
every PE:

1. parses its next batch of ``b`` k-mers,
2. buckets them by owner PE (``OwnerPE``),
3. exchanges the buckets with a Many-To-Many collective,
4. appends the received k-mers to its local array ``T_r``.

After the final superstep each PE sorts and accumulates ``T_r``.  The
number of global synchronisations grows as ``ceil(mn / bP)`` — the
quantity DAKC collapses to one inter-phase barrier (Eqs. 1, 5-7).

Variants (all measured in the paper's evaluation):

* ``blocking=True`` — PakMan/PakMan*: every PE waits for the slowest
  exchange each round, so skew is paid per superstep;
* ``blocking=False`` — HySortK-style: the exchange overlaps the next
  batch's parsing (``max(compute, comm)`` instead of the sum);
* ``sort="radix"`` vs ``sort="quicksort"`` — PakMan* vs original
  PakMan (Fig. 6: the radix swap alone is ~2x);
* ``preaccumulate=True`` — locally accumulate each send bucket into
  ``{kmer, count}`` pairs before the exchange (the literal
  ``Accumulate(T_s[i])`` of Algorithm 2's ``FlushBuffer``), trading
  compute for communication volume on skewed inputs.

Run open/split/parse/close are :mod:`repro.core.phases` and the send
buckets are :func:`repro.core.owner.owner_split`; what is here is the
superstep loop, the exchange that lands the buckets, the collective
and the Phase-2 sort charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..runtime.cache import CacheAccounting
from ..runtime.collectives import alltoallv
from ..runtime.cost import OPS_PER_ELEMENT_BUFFER, CostModel
from ..runtime.machine import MachineConfig
from ..runtime.stats import RunStats
from ..seq.kmers import (
    _cumsum0,
    check_k,
    count_owned_kmers,
    count_packed_kmers,
    kmer_width_bits,
)
from ..sort.accumulate import accumulate_weighted
from ..sort.radix import effective_msd_passes
from .owner import owner_pe, owner_split
from .phases import SimRun, n_bases, parse_kmers, split_reads
from .result import KmerCounts

__all__ = ["BspConfig", "bsp_count"]

#: Comparison-sort op constant: INT64-op equivalents per element per
#: log2(n) level.  A compare + swap + ~50% mispredicted branch costs
#: roughly six issue slots — the constant-factor gap that makes radix
#: sorting worth Fig. 6's ~2x on uint64 keys.
QUICKSORT_OPS_PER_LEVEL: float = 6.0


@dataclass(frozen=True, slots=True)
class BspConfig:
    """Tunables of the BSP baseline."""

    batch_size: int | None = None  # b; None = one superstep (max batch)
    blocking: bool = True
    sort: str = "radix"  # "radix" | "quicksort"
    preaccumulate: bool = False
    canonical: bool = False

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.sort not in ("radix", "quicksort"):
            raise ValueError(f"unknown sort {self.sort!r}")


def _charge_sort(
    cost: CostModel, pe_stats, n: int, k: int, sort: str, cache: CacheAccounting
) -> None:
    """Charge Phase-2 sorting costs for *n* elements on one PE."""
    if n == 0:
        return
    if sort == "radix":
        worst = max(1, kmer_width_bits(k) // 8)
        passes = effective_msd_passes(n, worst)
        cost.charge_compute(pe_stats, n * passes + 2 * n)
        cost.charge_mem(pe_stats, 2 * n * 8 * passes + 2 * n * 8)
        for _ in range(passes + 1):
            cache.stream(n * 8)
    else:
        levels = max(1.0, math.log2(max(2, n)))
        cost.charge_compute(pe_stats, int(QUICKSORT_OPS_PER_LEVEL * n * levels))
        # Partitioning sweeps the data once per level until partitions
        # fit in cache, then it is cache resident.
        elems_in_cache = max(2, cost.machine.cache_bytes // 8)
        deep = max(1.0, math.log2(max(2.0, n / elems_in_cache)) + 1.0)
        cost.charge_mem(pe_stats, int(2 * n * 8 * deep))
        for _ in range(int(deep)):
            cache.stream(2 * n * 8)


def _exchange(
    sent: list, n_elems: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, list[int]]:
    """Land one superstep's Many-To-Many in one receive array.

    ``sent[src]`` is a source's ``(keys, counts or None)`` in owner
    order (``None``: nothing sent) and ``n_elems[src, dst]`` its bucket
    sizes.  The array is laid out destination-major, so owner *d* reads
    ``[bounds[d], bounds[d + 1])``: every source's bucket for *d*, in
    source order, with no step per (source, owner) pair.
    """
    n = n_elems.shape[0]
    starts = _cumsum0(n_elems.T.ravel())  # block (dst, src) at dst * n + src
    at = starts[:-1].reshape(n, n).T  # at[src, dst]: where a bucket lands
    keys = np.empty(starts[-1], dtype=np.uint64)
    vals = None
    for src, part in enumerate(sent):
        if part is None:
            continue
        src_keys, src_vals = part
        row = n_elems[src]
        # Bucket d starts at first[d] of the source's batch; its j-th
        # element lands at at[src, d] + j - first[d].
        land = np.repeat(at[src] - _cumsum0(row)[:-1], row) + np.arange(src_keys.size)
        keys[land] = src_keys
        if src_vals is not None:
            if vals is None:
                vals = np.empty(keys.size, dtype=np.int64)
            vals[land] = src_vals
    return keys, vals, starts[::n].tolist()


def bsp_count(
    reads: np.ndarray | list,
    k: int,
    cost: CostModel | MachineConfig,
    config: BspConfig | None = None,
) -> tuple[KmerCounts, RunStats]:
    """Count k-mers with the BSP baseline on the simulated machine.

    Same contract as :func:`repro.core.dakc.dakc_count`.
    """
    check_k(k)
    config = config or BspConfig()
    run = SimRun(cost)
    cost, stats, memory, n_pes = run.cost, run.stats, run.memory, run.n_pes

    # Local k-mer streams (parse is interleaved with supersteps below;
    # extraction is hoisted for vectorisation but *charged* per batch).
    per_pe_rows = split_reads(reads, n_pes)
    streams = [parse_kmers(rows, k, config.canonical) for rows in per_pe_rows]
    read_bytes = [n_bases(rows) for rows in per_pe_rows]

    local_total = max((s.size for s in streams), default=0)
    b = config.batch_size if config.batch_size is not None else max(1, local_total)
    n_supersteps = max(1, -(-local_total // b)) if local_total else 1

    run.barrier()  # everyone enters the kernel

    # Received data per PE, accumulated across supersteps.
    recv_plain: list[list[np.ndarray]] = [[] for _ in range(n_pes)]
    recv_pairs: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(n_pes)]
    elem_bytes = 16 if config.preaccumulate else 8

    # Non-blocking mode (HySortK): exchanges are initiated with
    # ialltoallv and consumed lazily — the parse of superstep i+1
    # overlaps the wire time of exchange i; receive appends are
    # charged when the data is finally waited on.
    pending_completion = np.zeros(n_pes, dtype=np.float64)
    deferred_recv_bytes = np.zeros(n_pes, dtype=np.int64)

    for step in range(n_supersteps):
        n_elems = np.zeros((n_pes, n_pes), dtype=np.int64)  # src -> dst
        sent: list = [None] * n_pes  # per source: (keys, counts) by owner
        for src in range(n_pes):
            pe_stats = stats.pe[src]
            lo = min(step * b, streams[src].size)
            hi = min((step + 1) * b, streams[src].size)
            batch = streams[src][lo:hi]
            if batch.size == 0:
                continue
            # Charge the parse of this batch (Eq. 9 + read traffic).
            frac = (hi - lo) / max(1, streams[src].size)
            cost.charge_compute(pe_stats, batch.size)
            cost.charge_mem(pe_stats, int(read_bytes[src] * frac))
            cost.charge_compute(pe_stats, batch.size * OPS_PER_ELEMENT_BUFFER)
            cost.charge_mem(pe_stats, batch.nbytes)  # bucket writes
            cache = CacheAccounting(cost.machine.line_bytes)
            cache.stream(int(read_bytes[src] * frac))
            cache.stream(batch.nbytes)
            pe_stats.cache_misses_p1 += cache.misses
            pe_stats.kmers_generated += int(batch.size)
            if config.preaccumulate:
                # Accumulate(T_s[i]) of every bucket in one pass: all of
                # a k-mer's occurrences share its owner, so the batch's
                # pairs split by owner are each bucket's own.  The charge
                # stays per bucket, in owner order (float association).
                keys, vals = count_packed_kmers(batch, k)
                owners = owner_pe(keys, n_pes)
                bucket_sizes = np.bincount(owners, weights=vals, minlength=n_pes)
                for size in bucket_sizes[bucket_sizes > 0].astype(np.int64).tolist():
                    cost.charge_compute(pe_stats, size * 2)
            else:
                keys, vals = batch, None
                owners = owner_pe(batch, n_pes)
            order, n_elems[src] = owner_split(owners, n_pes)
            sent[src] = (keys[order], None if vals is None else vals[order])
            memory.set_category(src, "send-batch", int(n_elems[src].sum()) * elem_bytes)

        send_bytes = n_elems * elem_bytes
        completion = alltoallv(cost, stats, send_bytes, blocking=config.blocking)
        np.maximum(pending_completion, completion, out=pending_completion)

        recv_keys, recv_vals, bounds = _exchange(sent, n_elems)
        del sent  # the send buffers are free once the exchange has landed
        for dst, got in enumerate(send_bytes.sum(axis=0).tolist()):
            pe_stats = stats.pe[dst]
            start, end = bounds[dst], bounds[dst + 1]
            if end > start:
                if config.preaccumulate:
                    recv_pairs[dst].append((recv_keys[start:end], recv_vals[start:end]))
                else:
                    recv_plain[dst].append(recv_keys[start:end])
            if got:
                pe_stats.elements_received += got // elem_bytes
                pe_stats.kmers_received += got // elem_bytes
                if config.blocking:
                    cost.charge_mem(pe_stats, got)  # append to T_r
                else:
                    deferred_recv_bytes[dst] += got
            memory.set_category(dst, "send-batch", 0)
            memory.allocate(dst, "recv-T", got)

    if not config.blocking:
        # waitall: every PE blocks until its outstanding exchanges have
        # landed, then pays the deferred T_r appends.
        for dst in range(n_pes):
            pe_stats = stats.pe[dst]
            if pending_completion[dst] > pe_stats.clock:
                pe_stats.sync_wait_time += pending_completion[dst] - pe_stats.clock
                pe_stats.clock = float(pending_completion[dst])
            if deferred_recv_bytes[dst]:
                cost.charge_mem(pe_stats, int(deferred_recv_bytes[dst]))

    stats.phase1_time = stats.max_clock

    # Phase 2: sort + accumulate the received arrays.
    results = []
    for dst in range(n_pes):
        pe_stats = stats.pe[dst]
        cache = CacheAccounting(cost.machine.line_bytes)
        if config.preaccumulate:
            ks = np.concatenate([p[0] for p in recv_pairs[dst]]) if recv_pairs[dst] else np.empty(0, np.uint64)
            cs = np.concatenate([p[1] for p in recv_pairs[dst]]) if recv_pairs[dst] else np.empty(0, np.int64)
            _charge_sort(cost, pe_stats, int(ks.size), k, config.sort, cache)
            uniq, counts = accumulate_weighted(ks, cs)
        else:
            t_arr = (
                np.concatenate(recv_plain[dst]) if recv_plain[dst] else np.empty(0, np.uint64)
            )
            _charge_sort(cost, pe_stats, int(t_arr.size), k, config.sort, cache)
            uniq, counts = count_owned_kmers(t_arr, k)
        pe_stats.cache_misses_p2 += cache.misses
        results.append((uniq, counts))

    # The final sync is the run's exit barrier.
    return run.finish(k, results, supersteps=n_supersteps,
                      blocking=config.blocking, sort=config.sort)
