"""Out-of-core k-mer counting under a hard memory ceiling.

:func:`ooc_count` (:mod:`.count`) is external merge sort with the
counter's own pre-accumulation: the reads are cut into slices of at
most half the ceiling in bases, each slice is counted in memory with
the same sort -> accumulate kernel as the in-memory counters
(:func:`repro.seq.kmers.count_owned_kmers`) and written as a sorted
scratch run in the LSM ``RUN`` format, and the runs are k-way merged —
at the end once, straight into a :class:`repro.lsm.LsmStore` as one
new run, or into the returned counts.

:class:`BinWriter` (:mod:`.spill`), :func:`count_bin` and the bin file
(:mod:`.format`) are KMC 2's two-pass design this replaced: pass 1
spills minimizer-partitioned super-k-mers to bins, pass 2 counts each
bin.  The e2e benchmark's traced replay still calls them.
"""

from .count import OocCountStats, count_bin, ooc_count, read_slices
from .format import (
    BIN,
    BinHeader,
    pack_superkmers,
    read_bin_records,
    superkmer_kmers,
    unpack_superkmers,
)
from .spill import BinWriter, OocStats

__all__ = [
    "BIN",
    "BinHeader",
    "BinWriter",
    "OocCountStats",
    "OocStats",
    "count_bin",
    "ooc_count",
    "pack_superkmers",
    "read_bin_records",
    "read_slices",
    "superkmer_kmers",
    "unpack_superkmers",
]
