"""ART-Illumina-style short-read simulation.

The paper generates its synthetic FASTQ inputs with the ART Illumina
simulator on a uniform-random genome (Section VI, Table V).  We
reproduce the relevant behaviour: fixed-length reads sampled from
random positions of a reference genome, with an optional per-base
substitution error model (ART's default HiSeq profile has a mean
substitution rate well under 1%; indels are rare enough that every
sorting-based counter treats reads as fixed-length, and we do too).

Reads come back as a dense ``(n_reads, read_len)`` ``uint8`` code
matrix — the layout the vectorised k-mer extractor consumes directly —
plus helpers to materialise FASTQ records for I/O round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import decode_codes
from .fastx import SeqRecord

__all__ = ["ReadSimConfig", "simulate_reads", "reads_to_records", "coverage_to_n_reads"]


@dataclass(frozen=True, slots=True)
class ReadSimConfig:
    """Parameters of the read simulator.

    Attributes
    ----------
    read_len:
        Length of every read (paper datasets use 125-151 bp).
    coverage:
        Mean sequencing depth; determines the number of reads as
        ``ceil(coverage * genome_len / read_len)`` unless ``n_reads``
        is given explicitly.
    n_reads:
        Explicit read count (overrides *coverage* when not None).
    error_rate:
        Per-base substitution probability (ART HiSeq-like default 0.1%).
    seed:
        RNG seed for reproducibility.
    """

    read_len: int = 150
    coverage: float = 16.0
    n_reads: int | None = None
    error_rate: float = 0.001
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.read_len < 1:
            raise ValueError("read_len must be >= 1")
        if self.coverage <= 0 and self.n_reads is None:
            raise ValueError("coverage must be > 0 when n_reads is not given")
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")
        if self.n_reads is not None and self.n_reads < 0:
            raise ValueError("n_reads must be >= 0")


def coverage_to_n_reads(genome_len: int, read_len: int, coverage: float) -> int:
    """Number of reads to reach *coverage* over a genome."""
    if genome_len < read_len:
        return 0
    return int(np.ceil(coverage * genome_len / read_len))


def simulate_reads(
    genome: np.ndarray,
    config: ReadSimConfig,
    *,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sample fixed-length reads from *genome*.

    Returns a ``(n_reads, read_len)`` ``uint8`` array of 2-bit codes.
    Substitution errors replace a base by one of the three alternatives
    uniformly (never a silent substitution), matching how ART's
    substitution channel perturbs counts: errors create spurious
    low-frequency k-mers, thickening the count=1 band.
    """
    genome = np.asarray(genome, dtype=np.uint8)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    m = config.read_len
    if genome.size < m:
        return np.empty((0, m), dtype=np.uint8)
    n = config.n_reads if config.n_reads is not None else coverage_to_n_reads(
        genome.size, m, config.coverage
    )
    if n == 0:
        return np.empty((0, m), dtype=np.uint8)
    starts = rng.integers(0, genome.size - m + 1, size=n)
    # Gather windows: fancy-index with a (n, m) index matrix.
    idx = starts[:, None] + np.arange(m)[None, :]
    reads = genome[idx]
    if config.error_rate > 0.0:
        err_mask = rng.random(reads.shape) < config.error_rate
        n_err = int(err_mask.sum())
        if n_err:
            # Substitute with a *different* base: add 1..3 mod 4.
            bump = rng.integers(1, 4, size=n_err, dtype=np.uint8)
            reads[err_mask] = (reads[err_mask] + bump) % 4
    return reads


def reads_to_records(reads: np.ndarray) -> list[SeqRecord]:
    """Materialise a read matrix as FASTQ-ready records ``read0``, ..."""
    out: list[SeqRecord] = []
    for i in range(reads.shape[0]):
        seq = decode_codes(reads[i])
        out.append(SeqRecord(f"read{i}", seq, "I" * len(seq)))
    return out
