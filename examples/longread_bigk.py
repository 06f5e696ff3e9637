#!/usr/bin/env python
"""Long-read k-mer analysis with 128-bit k-mers (k up to 64).

Section VII of the paper flags 64-bit k-mer storage (k <= 32) as a
limitation for long-read workloads and names 128-bit support as future
work.  Here that is the one counting kernel: above k = 32 it packs each
k-mer as two ``uint64`` words, and ``count_kmers(..., algorithm="fast")``
returns the same ``KmerCounts`` type with ``[hi, lo]`` rows.  This
example exercises it on the classic
problem large k solves: **segmental duplications**.  A genome carries
two near-identical copies of a segment (diverged by sparse point
variants); k-mers that fit between variants occur at 2x coverage and
are ambiguous, while k-mers long enough to span a variant are
copy-specific.  Raising k from 21 to 51 (128-bit territory) converts
ambiguous duplication k-mers into unique ones — the repeat-resolution
power long-read pipelines buy with big k.

Run:  python examples/longread_bigk.py
"""

from __future__ import annotations

import numpy as np

from repro.api import count_kmers
from repro.core.dakc import dakc_count_big
from repro.runtime.cost import CostModel
from repro.runtime.machine import phoenix_intel
from repro.seq.genomes import uniform_genome
from repro.seq.readsim import ReadSimConfig, simulate_reads

BACKBONE = 40_000
DUP_LEN = 8_000
VARIANT_SPACING = 40  # one point variant every ~40 bp between copies
READ_LEN = 2_000
COVERAGE = 12.0


def build_duplicated_genome(seed: int = 5) -> np.ndarray:
    """Backbone + a second, lightly diverged copy of one segment."""
    rng = np.random.default_rng(seed)
    backbone = uniform_genome(BACKBONE, rng=rng)
    segment = backbone[:DUP_LEN].copy()
    variant_sites = rng.choice(DUP_LEN, size=DUP_LEN // VARIANT_SPACING, replace=False)
    segment[variant_sites] = (segment[variant_sites] + rng.integers(
        1, 4, size=variant_sites.size, dtype=np.uint8)) % 4
    return np.concatenate((backbone, segment))


def ambiguous_fraction(counts_array: np.ndarray) -> float:
    """Among solid k-mers, the fraction at >= 1.5x coverage (multi-copy)."""
    solid = counts_array[counts_array >= COVERAGE * 0.4]
    if solid.size == 0:
        return 0.0
    return float((solid >= COVERAGE * 1.5).mean())


def main() -> None:
    genome = build_duplicated_genome()
    reads = simulate_reads(
        genome,
        ReadSimConfig(read_len=READ_LEN, coverage=COVERAGE, error_rate=0.001, seed=5),
    )
    print(f"{reads.shape[0]} long reads x {READ_LEN} bp from a "
          f"{genome.size / 1000:.0f} kb genome containing an {DUP_LEN // 1000} kb "
          f"segmental duplication (1 variant / ~{VARIANT_SPACING} bp)\n")

    short = count_kmers(reads, 21, algorithm="fast").counts
    long_serial = count_kmers(reads, 51, algorithm="fast").counts
    machine = phoenix_intel(4)
    long_dist, stats = dakc_count_big(
        reads, 51, CostModel(machine, cores_per_pe=machine.cores_per_node)
    )
    assert long_dist == long_serial, "distributed big-k result mismatch"
    print(f"k=21 (one word):  {short.n_distinct:>9,} distinct")
    print(f"k=51 (two words): {long_serial.n_distinct:>9,} distinct "
          f"(distributed run verified: {stats.global_syncs} syncs, "
          f"{stats.sim_time * 1e3:.2f} ms simulated)\n")

    amb21 = ambiguous_fraction(short.counts)
    amb51 = ambiguous_fraction(long_serial.counts)
    print(f"ambiguous (2x-coverage) k-mer fraction at k=21: {100 * amb21:.2f}%")
    print(f"ambiguous (2x-coverage) k-mer fraction at k=51: {100 * amb51:.2f}%")
    # Expectation: P(no variant in window) = (1 - 1/40)^k:
    # ~59% ambiguous at k=21 vs ~28% at k=51, within the duplication.
    assert amb51 < amb21, "large k failed to resolve the duplication"
    print("\nlarger k spans the variants, splitting the duplicated copies "
          "into distinct k-mers — the resolution gain that motivates "
          "128-bit k-mer support (paper Sec. VII).")


if __name__ == "__main__":
    main()
