"""Sequence substrate: DNA encoding, k-mer extraction, I/O, simulation.

Public surface of the :mod:`repro.seq` subpackage.  Everything the
k-mer counting algorithms need from the genomics side lives here:

* :mod:`repro.seq.alphabet` — the 2-bit DNA alphabet and lookup tables;
* :mod:`repro.seq.encoding` — vectorised ASCII <-> 2-bit conversion;
* :mod:`repro.seq.kmers` — packed ``uint64`` k-mer extraction (two
  words per k-mer for 32 < k <= 64) and the one window -> sort ->
  accumulate counting kernel;
* :mod:`repro.seq.superkmers` — the batch super-k-mer splitter, used
  only by the partitioners (spill bins, minimizer routing);
* :mod:`repro.seq.fastx` — FASTA/FASTQ reading and writing;
* :mod:`repro.seq.genomes` — synthetic genome generators;
* :mod:`repro.seq.readsim` — ART-Illumina-style read simulation;
* :mod:`repro.seq.datasets` — the Table V dataset registry.
"""

from .alphabet import BASES, SIGMA
from .datasets import (
    ALL_SPECS,
    REAL_SPECS,
    SYNTHETIC_SPECS,
    DatasetSpec,
    Workload,
    get_spec,
    materialize,
    table5_rows,
)
from .encoding import decode_codes, encode_batch, encode_seq
from .fastx import SeqRecord, read_fasta, read_fastq, read_fastx, read_fastx_batches
from .fastx import write_fasta, write_fastq
from .genomes import RepeatSpec, repeat_genome, uniform_genome
from .kmers import (
    MAX_K,
    MAX_WIDE_K,
    canonical_kmers,
    count_owned_kmers,
    count_packed_kmers,
    extract_kmers,
    extract_kmers_flat,
    extract_kmers_from_reads,
    flatten_reads,
    iter_kmers,
    kmer_storage_bytes,
    kmer_to_str,
    kmer_width_bits,
    reverse_complement_kmer,
    reverse_complement_kmers,
    str_to_kmer,
)
from .minimizers import (
    SuperKmer,
    minimizers_of_kmers,
    read_minimizers,
    split_superkmers,
)
from .readsim import ReadSimConfig, reads_to_records, simulate_reads
from .superkmers import (
    DEFAULT_MINIMIZER_LEN,
    SuperKmerBatch,
    count_superkmer_batch,
    pack_spans,
    partition_superkmers,
    span_kmers,
    split_superkmers_batch,
    split_superkmers_flat,
    superkmer_wire_bytes,
)

__all__ = [
    "BASES",
    "SIGMA",
    "MAX_K",
    "MAX_WIDE_K",
    "DatasetSpec",
    "Workload",
    "ALL_SPECS",
    "REAL_SPECS",
    "SYNTHETIC_SPECS",
    "get_spec",
    "materialize",
    "table5_rows",
    "encode_seq",
    "encode_batch",
    "decode_codes",
    "SeqRecord",
    "read_fasta",
    "read_fastq",
    "read_fastx",
    "read_fastx_batches",
    "write_fasta",
    "write_fastq",
    "RepeatSpec",
    "uniform_genome",
    "repeat_genome",
    "extract_kmers",
    "extract_kmers_flat",
    "extract_kmers_from_reads",
    "count_packed_kmers",
    "count_owned_kmers",
    "iter_kmers",
    "canonical_kmers",
    "kmer_to_str",
    "str_to_kmer",
    "kmer_width_bits",
    "kmer_storage_bytes",
    "reverse_complement_kmer",
    "reverse_complement_kmers",
    "ReadSimConfig",
    "simulate_reads",
    "reads_to_records",
    "minimizers_of_kmers",
    "read_minimizers",
    "SuperKmer",
    "split_superkmers",
    "DEFAULT_MINIMIZER_LEN",
    "SuperKmerBatch",
    "split_superkmers_flat",
    "split_superkmers_batch",
    "flatten_reads",
    "pack_spans",
    "span_kmers",
    "partition_superkmers",
    "count_superkmer_batch",
    "superkmer_wire_bytes",
]
