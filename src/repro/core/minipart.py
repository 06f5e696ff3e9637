"""Minimizer-partitioned distributed counting (kmerind-style).

An alternative to DAKC's per-k-mer hash partitioning, from the lineage
the paper cites as related work (KmerInd, Pan et al.): route by the
k-mer's **minimizer** and ship **super-k-mers** — packed substrings
covering runs of k-mers that share a minimizer.  Because a minimizer
is a pure function of the k-mer's content, every occurrence of a k-mer
lands on the same owner, so counting stays exact; but one transfer now
carries ``run + k - 1`` bases at 2 bits each instead of ``run`` 8-byte
words, cutting Phase-1 wire volume by up to ~``k/4``x.

The trade-off this module lets you measure (``dakc bench
ablation-minimizer``, :func:`repro.bench.experiments.ablation_minimizer`):

* **wire volume** — super-k-mers win big;
* **load balance** — minimizer frequencies are far more skewed than a
  scrambling hash over k-mers, so hot owners appear even on uniform
  genomes (the reason DAKC sticks to per-k-mer hashing + L3 rather
  than minimizer routing).

The run skeleton is :mod:`repro.core.phases` and the owner split
:func:`repro.core.owner.by_owner`; this module adds minimizer routing
and the super-k-mer wire accounting.
"""

from __future__ import annotations

import numpy as np

from ..runtime.cost import OPS_PER_SUPERKMER, CostModel
from ..runtime.machine import MachineConfig
from ..runtime.stats import RunStats
from ..seq.kmers import canonical_kmers, count_packed_kmers
from ..seq.minimizers import minimizers_of_kmers
from ..seq.superkmers import split_superkmers_batch
from .owner import by_owner, splitmix64
from .phases import SimRun, split_reads
from .result import KmerCounts

__all__ = ["minimizer_partitioned_count"]

#: Minimizer length routing super-k-mers (KMC's 9-mer signatures).
MINIMIZER_LEN = 9
#: Fixed per-super-k-mer wire header (minimizer id + length).
HEADER_BYTES = 8


def minimizer_partitioned_count(
    reads: np.ndarray | list,
    k: int,
    cost: CostModel | MachineConfig,
    *,
    canonical: bool = False,
) -> tuple[KmerCounts, RunStats]:
    """Count k-mers by minimizer partitioning with super-k-mer wire
    format; same contract as :func:`repro.core.dakc.dakc_count`.

    Structure: each source splits its whole read batch into
    super-k-mer runs with the vectorised kernel
    (:func:`repro.seq.superkmers.split_superkmers_batch` — zero
    per-k-mer Python), routes each run (2-bit packed + header) to
    ``hash(minimizer) mod P``; after the inter-phase barrier every
    owner re-extracts, sorts and accumulates its received k-mers.

    With ``canonical=True`` routing hashes the *canonical* form's
    minimizer (computed per k-mer) so both strands of a k-mer share an
    owner; runs then follow owner changes rather than the forward
    super-k-mer decomposition, exactly as a canonical splitter would
    emit them.
    """
    run = SimRun(cost)
    cost, stats, n_pes = run.cost, run.stats, run.n_pes
    w = min(MINIMIZER_LEN, k)
    run.barrier()  # sync 1

    # inbox[dst] collects k-mer arrays; wire accounting uses the
    # packed super-k-mer sizes.
    inbox: list[list[np.ndarray]] = [[] for _ in range(n_pes)]
    for src, rows in enumerate(split_reads(reads, n_pes)):
        pe = stats.pe[src]
        batch = split_superkmers_batch(rows, k, w)
        kmers = batch.kmers()
        if kmers.size == 0:
            continue
        if canonical:
            # Route by the canonical form's minimizer so both strands
            # of a k-mer share an owner; it has no read context, so it
            # is recomputed per k-mer.
            kmers = canonical_kmers(kmers, k)
            mins = minimizers_of_kmers(kmers, k, w)
        else:
            mins = np.repeat(batch.minimizers, batch.n_kmers_per)
        pe.kmers_generated += int(kmers.size)
        cost.charge_compute(pe, int(kmers.size) * (k - w + 2))
        cost.charge_mem(pe, int(batch.codes.size))
        owners = (splitmix64(mins) % np.uint64(n_pes)).astype(np.int64)
        read_of = np.repeat(batch.read_ids, batch.n_kmers_per)
        # Super-k-mer runs: boundaries where the owner (or the source
        # read) changes; one run ships as one packed record.
        change = np.empty(owners.size, dtype=bool)
        change[0] = True
        change[1:] = (owners[1:] != owners[:-1]) | (read_of[1:] != read_of[:-1])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], owners.size)
        n_bases = (ends - starts) + k - 1
        pending_bytes = np.bincount(
            owners[starts], weights=-(-n_bases // 4) + HEADER_BYTES,
            minlength=n_pes).astype(np.int64)
        cost.charge_compute(pe, int(starts.size) * OPS_PER_SUPERKMER)
        for dst, routed in by_owner(owners, n_pes, kmers):
            inbox[dst].append(routed)
        for dst in np.flatnonzero(pending_bytes):
            cost.charge_put(pe, int(dst), int(pending_bytes[dst]))

    run.barrier()  # sync 2
    stats.phase1_time = stats.max_clock

    results = []
    for dst in range(n_pes):
        pe = stats.pe[dst]
        if not inbox[dst]:
            continue
        merged = np.concatenate(inbox[dst])
        pe.kmers_received += int(merged.size)
        pe.elements_received += int(merged.size)
        # Receivers pay the re-extraction of k-mers from the packed
        # super-k-mers on top of the usual sort+accumulate.
        cost.charge_compute(pe, 3 * int(merged.size))
        cost.charge_mem(pe, 4 * int(merged.nbytes))
        results.append(count_packed_kmers(merged, k))

    # sync 3 is the run's exit barrier.
    return run.finish(k, results, mode="minimizer-partitioned")
