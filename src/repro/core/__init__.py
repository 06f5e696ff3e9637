"""Core algorithms: serial (Alg. 1), BSP (Alg. 2), DAKC (Algs. 3-4).

What every simulated counter shares — opening, read split, parse and
closing of a run — is :mod:`repro.core.phases`; the one bucket split by
owner is :func:`repro.core.owner.by_owner`.

Extensions beyond the paper's evaluation (its Section VII future work):
128-bit k-mers (:func:`repro.core.dakc.dakc_count_big`, two kernel
words per k-mer) and the barrier-free sorted-set variant
(:mod:`repro.core.sortedset`).
"""

from .bsp import BspConfig, bsp_count
from .dakc import DakcConfig, DeliveryIntegrityError, dakc_count, dakc_count_big
from .minipart import minimizer_partitioned_count
from .l2l3 import AggregationConfig, BulkAggregator, ExactAggregator, receive_service_time
from .owner import by_owner, owner_pe, owner_pe_scalar, splitmix64
from .phases import SimRun, n_bases, parse_kmers, split_reads
from .result import KmerCounts
from .serial import serial_count, serial_count_oracle
from .sortedset import SortedRunSet, dakc_overlap_count

__all__ = [
    "KmerCounts",
    "serial_count",
    "serial_count_oracle",
    "BspConfig",
    "bsp_count",
    "DakcConfig",
    "dakc_count",
    "DeliveryIntegrityError",
    "AggregationConfig",
    "BulkAggregator",
    "ExactAggregator",
    "receive_service_time",
    "owner_pe",
    "owner_pe_scalar",
    "by_owner",
    "SimRun",
    "split_reads",
    "n_bases",
    "parse_kmers",
    "splitmix64",
    "dakc_count_big",
    "SortedRunSet",
    "dakc_overlap_count",
    "minimizer_partitioned_count",
]
