"""Out-of-core k-mer counting: disk spill bins fused with the LSM.

KMC 2's two-pass design under a hard memory ceiling:

* **pass 1** (:mod:`.spill`) streams reads through the
  :mod:`repro.seq` minimizer splitter into minimizer-partitioned spill
  bins on disk, flushing whole bins whenever buffering crosses the
  ceiling;
* **pass 2** (:mod:`.count`) counts each bin independently with the
  same sort -> accumulate kernel as the in-memory counters
  (:func:`repro.seq.kmers.count_owned_kmers`) and optionally
  bulk-loads results into a :class:`repro.lsm.LsmStore` as it goes.

The bin file (:mod:`.format`) is framed, versioned and checksummed by
:mod:`repro.fileio` like every other file of the package
(``docs/FORMATS.md``).
"""

from .count import count_bin, ooc_count
from .format import (
    BIN,
    BinHeader,
    pack_superkmers,
    read_bin_records,
    superkmer_kmers,
    unpack_superkmers,
)
from .spill import BinWriter, OocStats, largest_first, seeded_order

__all__ = [
    "BIN",
    "BinHeader",
    "BinWriter",
    "OocStats",
    "count_bin",
    "largest_first",
    "ooc_count",
    "pack_superkmers",
    "read_bin_records",
    "seeded_order",
    "superkmer_kmers",
    "unpack_superkmers",
]
