"""KMC3-style shared-memory k-mer counter (the Fig. 9 baseline).

KMC3 (Kokot et al. 2017) is the paper's shared-memory baseline: a
two-stage, minimizer-binned, multithreaded-radix-sort counter.  We
re-implement its algorithmic structure:

**Stage 1 (binning)** — reads are parsed into k-mers; each k-mer's
*minimizer* (its lexicographically smallest length-``w`` substring,
computed on the 2-bit encoding) selects one of :data:`N_BINS` bins.
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
(in-memory mode) and the FASTQ scan is charged at :data:`DISK_BW` to
mirror the included input I/O.

Same skeleton as the distributed counters (:mod:`repro.core.phases`)
with bins as the owners (:func:`repro.core.owner.by_owner`) on one PE.
"""

from __future__ import annotations

import numpy as np

from ..core.owner import by_owner, splitmix64
from ..core.phases import SimRun, n_bases, parse_kmers
from ..core.result import KmerCounts
from ..runtime.cache import CacheAccounting
from ..runtime.cost import CostModel
from ..runtime.machine import MachineConfig
from ..runtime.stats import RunStats
from ..seq.kmers import check_k, count_packed_kmers, kmer_width_bits
from ..seq.minimizers import minimizers_of_kmers

__all__ = ["kmc3_count"]

#: KMC3's default bin count.
N_BINS = 512
#: KMC3 uses 9-mers as signatures.
MINIMIZER_LEN = 9
#: FASTQ input scan bandwidth (bytes/s); the paper's KMC3 numbers
#: include I/O, so the raw input is charged at this rate.
DISK_BW = 2.0e9
#: Raw FASTQ bytes per DNA base (sequence + quality + headers).
FASTQ_BYTES_PER_BASE = 2.1


def kmc3_count(
    reads: np.ndarray | list,
    k: int,
    machine: MachineConfig,
    *,
    canonical: bool = False,
) -> tuple[KmerCounts, RunStats]:
    """Count k-mers KMC3-style on one node of *machine*.

    Returns the counts and a :class:`RunStats` whose single PE
    represents the whole node (KMC3 is a shared-memory tool).
    """
    check_k(k)
    run = SimRun(CostModel(machine.with_nodes(1), cores_per_pe=machine.cores_per_node,
                           threaded=True))
    cost, stats = run.cost, run.stats
    pe = stats.pe[0]
    cache = CacheAccounting(machine.line_bytes)
    total_bases = n_bases(reads)

    # Input I/O (KMC3's reported time includes it); the model books it
    # as the run's phase 1.
    fastq_bytes = int(total_bases * FASTQ_BYTES_PER_BASE)
    stats.phase1_time = fastq_bytes / DISK_BW
    pe.advance(stats.phase1_time)

    # Stage 1: parse + minimizer binning + bin write.
    kmers = parse_kmers(reads, k, canonical)
    pe.kmers_generated = int(kmers.size)
    w = min(MINIMIZER_LEN, k)
    mins = minimizers_of_kmers(kmers, k, w) if kmers.size else kmers
    bins = (splitmix64(mins) % np.uint64(N_BINS)).astype(np.int64)
    cost.charge_compute(pe, kmers.size * (k - w + 2))  # rolling minimizer scan
    cost.charge_mem(pe, total_bases)  # read scan
    cost.charge_mem(pe, 2 * int(kmers.nbytes))  # bin write + read-back
    cache.stream(total_bases)
    cache.stream(2 * int(kmers.nbytes))
    pe.cache_misses_p1 += cache.reset()

    # Stage 2: per-bin radix sort + accumulate.
    passes = max(1, kmer_width_bits(k) // 8)
    results = []
    for _, chunk in by_owner(bins, N_BINS, kmers):
        cost.charge_compute(pe, chunk.size * passes)
        cost.charge_mem(pe, 2 * chunk.nbytes * passes)
        cache.stream(2 * chunk.nbytes * passes)
        results.append(count_packed_kmers(chunk, k))
    pe.cache_misses_p2 += cache.reset()

    # One shared-memory node: no exit barrier to pay.
    return run.finish(k, results, sync=False, io_time=stats.phase1_time,
                      n_bins_used=len(results))
