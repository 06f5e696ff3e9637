"""Downstream applications of k-mer counting.

The consumers the paper's introduction motivates: spectrum analysis
and genome profiling (:mod:`repro.apps.spectrum`), comparative set
operations (:mod:`repro.apps.setops`) and database persistence
(:mod:`repro.apps.store`).
"""

from .assembly import (
    AssemblyStats,
    DeBruijnGraph,
    Unitig,
    assemble_unitigs,
    assembly_stats,
    genome_recovery,
)
from .setops import containment, intersect, jaccard, subtract, symmetric_difference
from .spectrum import (
    SpectrumFeatures,
    estimate_error_rate,
    estimate_genome_size,
    solid_threshold,
    spectrum_features,
)
from .store import dump_text, load_counts, load_text, save_counts
from .streaming import count_file_streaming, count_files_streaming, count_records_streaming

__all__ = [
    "spectrum_features",
    "SpectrumFeatures",
    "solid_threshold",
    "estimate_genome_size",
    "estimate_error_rate",
    "intersect",
    "subtract",
    "symmetric_difference",
    "jaccard",
    "containment",
    "save_counts",
    "load_counts",
    "dump_text",
    "load_text",
    "DeBruijnGraph",
    "Unitig",
    "assemble_unitigs",
    "AssemblyStats",
    "assembly_stats",
    "genome_recovery",
    "count_file_streaming",
    "count_files_streaming",
    "count_records_streaming",
]
