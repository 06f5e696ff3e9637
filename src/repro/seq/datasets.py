"""Dataset registry reproducing Table V of the paper.

The paper evaluates on 13 synthetic datasets (*Synthetic 20* ..
*Synthetic 32*, where *Synthetic XY* is a FASTQ generated from a
uniform-random genome of ``2**XY`` bases at 150 bp read length) and 7
real SRA datasets (Table V).  We cannot ship hundreds of gigabytes of
FASTQ, so the registry stores the *full-scale descriptors* (used to
print Table V and to drive the analytical model at paper scale) plus a
:func:`materialize` path that generates a scaled-down replica
preserving read length, coverage, and — for the repeat-heavy genomes —
the heavy-hitter skew profile that drives the paper's L3 experiments.

The ``fidelity`` knob is the linear shrink factor on genome length:
``fidelity=1.0`` would regenerate the paper-scale input (do not do this
on a laptop for scale 32), while the default used by the benchmark
harness is ``2**-10`` (each genome 1024x smaller, coverage preserved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .genomes import RepeatSpec, repeat_genome, uniform_genome
from .readsim import ReadSimConfig, simulate_reads

__all__ = [
    "DatasetSpec",
    "Workload",
    "SYNTHETIC_SPECS",
    "REAL_SPECS",
    "ALL_SPECS",
    "get_spec",
    "materialize",
    "table5_rows",
]

#: Read length used by all synthetic datasets in the paper.
SYNTHETIC_READ_LEN = 150

#: Approximate coverage of the paper's synthetic datasets
#: (349,500 reads x 150 bp over a 2^20-base genome  ~= 50x).
SYNTHETIC_COVERAGE = 50.0


@dataclass(frozen=True, slots=True)
class DatasetSpec:
    """Full-scale description of one Table V dataset.

    Attributes
    ----------
    key:
        Registry key, e.g. ``"synthetic-24"`` or ``"human"``.
    display:
        Name as printed in Table V (``Synthetic 24`` / SRA accession).
    organism:
        Organism name for real datasets ("-" for synthetic).
    n_reads:
        Read count at full scale (Table V column "Reads").
    read_len:
        Read length in bases.
    fastq_bytes:
        Approximate FASTQ size at full scale (Table V column).
    genome_len:
        Underlying genome length in bases.
    heavy:
        True if the genome is known to contain high-frequency k-mers
        (Human, T. aestivum — the paper enables L3 for these).
    repeat_fraction:
        Fraction of the genome covered by tandem repeats when
        materialised (0 for uniform synthetic genomes).
    """

    key: str
    display: str
    organism: str
    n_reads: int
    read_len: int
    fastq_bytes: int
    genome_len: int
    heavy: bool = False
    repeat_fraction: float = 0.0

    @property
    def coverage(self) -> float:
        """Mean sequencing depth implied by the descriptor."""
        return self.n_reads * self.read_len / self.genome_len

    @property
    def total_bases(self) -> int:
        """Total DNA bases across all reads (``n * m`` in the model)."""
        return self.n_reads * self.read_len

    def n_kmers(self, k: int) -> int:
        """Total k-mers generated at full scale: ``n * (m - k + 1)``."""
        return self.n_reads * max(0, self.read_len - k + 1)


@dataclass(frozen=True, slots=True)
class Workload:
    """A materialised (scaled) dataset ready to feed a counter."""

    spec: DatasetSpec
    reads: np.ndarray  # (n_reads, read_len) uint8 codes
    genome_len: int
    fidelity: float
    seed: int

    @property
    def n_reads(self) -> int:
        return int(self.reads.shape[0])

    @property
    def read_len(self) -> int:
        return int(self.reads.shape[1])

    @property
    def total_bases(self) -> int:
        return self.n_reads * self.read_len

    def n_kmers(self, k: int) -> int:
        return self.n_reads * max(0, self.read_len - k + 1)


def _synthetic(scale: int) -> DatasetSpec:
    genome_len = 2**scale
    n_reads = int(math.ceil(SYNTHETIC_COVERAGE * genome_len / SYNTHETIC_READ_LEN))
    # FASTQ bytes ~ 2 lines of read_len (seq + qual) + ~2 small lines.
    fastq_bytes = n_reads * (2 * SYNTHETIC_READ_LEN + 2 + 10)
    return DatasetSpec(
        key=f"synthetic-{scale}",
        display=f"Synthetic {scale}",
        organism="-",
        n_reads=n_reads,
        read_len=SYNTHETIC_READ_LEN,
        fastq_bytes=fastq_bytes,
        genome_len=genome_len,
    )


#: Synthetic 20 .. Synthetic 32, as in Table V.
SYNTHETIC_SPECS: dict[str, DatasetSpec] = {
    s.key: s for s in (_synthetic(scale) for scale in range(20, 33))
}

# Real datasets of Table V.  Read counts, read lengths and FASTQ sizes
# are the paper's; genome lengths are the published genome sizes, and
# the repeat fractions encode each genome's known repeat burden (Human
# and T. aestivum are the two the paper flags as heavy-hitter genomes).
_REAL = [
    #      key            display        organism         reads        len  fastq (bytes)    genome length  heavy repeat
    ("p-aeruginosa", "SRR29163078", "P. aeruginosa", 10_190_262, 151, int(3.8e9), 6_300_000, False, 0.0),
    ("s-coelicolor", "SRR28892189", "S. coelicolor", 15_137_459, 150, int(6.3e9), 8_700_000, False, 0.0),
    ("f-vesca", "SRR26113965", "F. vesca", 56_271_131, 150, int(24e9), 240_000_000, False, 0.01),
    ("p-sinus", "SRR25743144", "P. sinus", 139_993_564, 151, int(59e9), 1_200_000_000, False, 0.01),
    ("ambystoma", "SRR7443702", "Ambystoma sp.", 141_903_420, 125, int(45e9), 3_200_000_000, False, 0.02),
    ("human", "SRR28206931", "Human", 263_469_656, 149, int(95e9), 3_100_000_000, True, 0.06),
    ("t-aestivum", "SRR29871703", "T. aestivum", 345_818_242, 150, int(145e9), 17_000_000_000, True, 0.08),
]

#: The 7 real datasets of Table V (keyed by short organism slug).
REAL_SPECS: dict[str, DatasetSpec] = {
    key: DatasetSpec(key, disp, org, n, m, sz, g, heavy, rep)
    for key, disp, org, n, m, sz, g, heavy, rep in _REAL
}

#: Every Table V dataset.
ALL_SPECS: dict[str, DatasetSpec] = {**SYNTHETIC_SPECS, **REAL_SPECS}


def get_spec(key: str) -> DatasetSpec:
    """Look up a dataset spec by registry key (raises KeyError)."""
    try:
        return ALL_SPECS[key]
    except KeyError:
        known = ", ".join(sorted(ALL_SPECS))
        raise KeyError(f"unknown dataset {key!r}; known: {known}") from None


#: Minimum genome length a materialised workload may shrink to.
MIN_GENOME_LEN = 2_048


def materialize(
    spec: DatasetSpec | str,
    *,
    fidelity: float = 2**-10,
    seed: int = 0,
    coverage: float | None = None,
) -> Workload:
    """Generate a scaled-down replica of a Table V dataset.

    The genome shrinks by *fidelity*; the read count shrinks to keep
    the spec's coverage (or an explicit *coverage* override — useful
    when an experiment needs a larger genome for the same k-mer
    budget, e.g. the C3 tuning sweep).  Heavy-hitter genomes get their
    repeat tracts regenerated at the same repeat fraction, so the
    k-mer count distribution keeps its skew shape at every fidelity.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    if not 0 < fidelity <= 1:
        raise ValueError("fidelity must be in (0, 1]")
    if coverage is not None and coverage <= 0:
        raise ValueError("coverage override must be positive")
    genome_len = max(MIN_GENOME_LEN, int(spec.genome_len * fidelity))
    rng = np.random.default_rng(seed)
    if spec.repeat_fraction > 0:
        genome = repeat_genome(
            genome_len,
            RepeatSpec(fraction=spec.repeat_fraction, n_tracts=8),
            rng=rng,
        )
    else:
        genome = uniform_genome(genome_len, rng=rng)
    cov = coverage if coverage is not None else spec.coverage
    cfg = ReadSimConfig(
        read_len=spec.read_len,
        coverage=cov,
        n_reads=int(math.ceil(cov * genome_len / spec.read_len)),
        seed=seed,
    )
    reads = simulate_reads(genome, cfg, rng=rng)
    return Workload(spec=spec, reads=reads, genome_len=genome_len,
                    fidelity=fidelity, seed=seed)


def _fmt_size(nbytes: int) -> str:
    if nbytes >= 1e9:
        return f"{nbytes / 1e9:.1f} GB"
    return f"{nbytes / 1e6:.2f} MB"


def table5_rows() -> list[dict[str, str]]:
    """Rows of Table V: dataset inventory at full (paper) scale."""
    rows = []
    for spec in ALL_SPECS.values():
        rows.append(
            {
                "Data": spec.display,
                "Reads": f"{spec.n_reads:,}",
                "Read Length": str(spec.read_len),
                "Fastq Size": _fmt_size(spec.fastq_bytes),
                "Name": spec.organism,
            }
        )
    return rows
