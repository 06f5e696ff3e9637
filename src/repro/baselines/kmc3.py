"""KMC3-style shared-memory k-mer counter (the Fig. 9 baseline).

KMC3 (Kokot et al. 2017) is the paper's shared-memory baseline: a
two-stage, minimizer-binned, multithreaded-radix-sort counter.  We
re-implement its algorithmic structure:

**Stage 1 (binning)** — reads are parsed into k-mers; each k-mer's
*minimizer* (its lexicographically smallest length-``w`` substring,
computed on the 2-bit encoding) selects one of ``n_bins`` bins.
Minimizer binning keeps adjacent k-mers of a read together, which is
why KMC gets away with many small sorts instead of one big one.

**Stage 2 (counting)** — each bin is radix-sorted and accumulated
independently (multithreaded in the original; our machine model
charges the node's full bandwidth/compute accordingly), then results
concatenate — bins partition k-mer space by minimizer, but a k-mer
maps to exactly one bin, so a final merge-by-key handles bins sharing
boundaries (none, by construction).

The original is a *disk-based out-of-core* tool: stage 1 writes bins
to storage and stage 2 reads them back.  The paper forces in-memory
mode but reports KMC3's time *including I/O* (Section VI).  We model
both: the bin write+read round trip is charged at memory bandwidth
(in-memory mode) and the FASTQ scan is charged at ``disk_bw`` to
mirror the included input I/O.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..runtime.cache import CacheAccounting
from ..runtime.cost import CostModel
from ..runtime.machine import MachineConfig
from ..runtime.stats import RunStats
from ..seq.kmers import (
    canonical_kmers,
    count_packed_kmers,
    extract_kmers_from_reads,
    kmer_width_bits,
)
from ..seq.minimizers import minimizers_of_kmers
from ..sort.accumulate import merge_count_arrays
from ..core.owner import splitmix64
from ..core.result import KmerCounts

__all__ = ["Kmc3Config", "kmc3_count"]


@dataclass(frozen=True, slots=True)
class Kmc3Config:
    """KMC3 reproduction tunables."""

    n_bins: int = 512  # KMC3 default bin count
    minimizer_len: int = 9  # KMC3 uses 9-mers as signatures
    canonical: bool = False
    #: FASTQ input scan bandwidth (bytes/s); the paper's KMC3 numbers
    #: include I/O, so we charge the raw input at this rate.
    disk_bw: float = 2.0e9
    #: Raw FASTQ bytes per DNA base (sequence + quality + headers).
    fastq_bytes_per_base: float = 2.1

    def __post_init__(self) -> None:
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if self.minimizer_len < 1:
            raise ValueError("minimizer_len must be >= 1")


def kmc3_count(
    reads: np.ndarray | list,
    k: int,
    machine: MachineConfig,
    config: Kmc3Config | None = None,
) -> tuple[KmerCounts, RunStats]:
    """Count k-mers KMC3-style on one node of *machine*.

    Returns the counts and a :class:`RunStats` whose single PE
    represents the whole node (KMC3 is a shared-memory tool).
    """
    config = config or Kmc3Config()
    host_t0 = time.perf_counter()
    cost = CostModel(machine.with_nodes(1), cores_per_pe=machine.cores_per_node,
                     threaded=True)
    stats = RunStats(n_pes=1)
    pe = stats.pe[0]
    cache = CacheAccounting(machine.cache_bytes, machine.line_bytes)

    if isinstance(reads, np.ndarray) and reads.ndim == 2:
        total_bases = int(reads.size)
    else:
        total_bases = sum(int(np.asarray(r).size) for r in reads)

    # Input I/O (KMC3's reported time includes it).
    fastq_bytes = int(total_bases * config.fastq_bytes_per_base)
    pe.advance(fastq_bytes / config.disk_bw)
    stats.extra["io_time"] = fastq_bytes / config.disk_bw

    # Stage 1: parse + minimizer binning + bin write.
    kmers = extract_kmers_from_reads(reads, k)
    if config.canonical and kmers.size:
        kmers = canonical_kmers(kmers, k)
    pe.kmers_generated = int(kmers.size)
    w = min(config.minimizer_len, k)
    mins = minimizers_of_kmers(kmers, k, w) if kmers.size else kmers
    bins = (splitmix64(mins) % np.uint64(config.n_bins)).astype(np.int64)
    cost.charge_compute(pe, kmers.size * (k - w + 2))  # rolling minimizer scan
    cost.charge_mem(pe, total_bases)  # read scan
    cost.charge_mem(pe, 2 * int(kmers.nbytes))  # bin write + read-back
    cache.stream(total_bases)
    cache.stream(2 * int(kmers.nbytes))
    pe.cache_misses_p1 += cache.reset()

    # Stage 2: per-bin radix sort + accumulate.
    order = np.argsort(bins, kind="stable")
    sorted_by_bin = kmers[order]
    bin_counts = np.bincount(bins, minlength=config.n_bins)
    bounds = np.zeros(config.n_bins + 1, dtype=np.int64)
    np.cumsum(bin_counts, out=bounds[1:])
    passes = max(1, kmer_width_bits(k) // 8)
    results = []
    for bi in np.flatnonzero(bin_counts):
        chunk = sorted_by_bin[bounds[bi] : bounds[bi + 1]]
        cost.charge_compute(pe, chunk.size * passes)
        cost.charge_mem(pe, 2 * chunk.nbytes * passes)
        cache.stream(2 * chunk.nbytes * passes)
        results.append(count_packed_kmers(chunk, k))
    pe.cache_misses_p2 += cache.reset()

    uniq, counts = merge_count_arrays(results)
    stats.sim_time = pe.clock
    stats.phase1_time = stats.extra["io_time"]
    stats.phase2_time = stats.sim_time - stats.phase1_time
    stats.host_seconds = time.perf_counter() - host_t0
    stats.extra["n_bins_used"] = int(np.count_nonzero(bin_counts))
    return KmerCounts(k, uniq, counts), stats
