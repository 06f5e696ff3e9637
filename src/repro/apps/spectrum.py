"""k-mer spectrum analysis: the consumers of a counter's output.

The paper's introduction motivates k-mer counting with genome
assembly, quality assessment, error correction and genome profiling.
This module implements the classic spectrum analyses those pipelines
run on the (k-mer, count) array:

* :func:`spectrum_features` — locate the error valley and the
  homozygous coverage peak of a count histogram;
* :func:`estimate_genome_size` — the standard total-kmers /
  coverage-peak estimator (GenomeScope-style zeroth-order model);
* :func:`estimate_error_rate` — per-base error rate from the weight of
  the error band;
* :func:`solid_threshold` — the cutoff assemblers use to drop
  erroneous k-mers (demonstrated in examples/genome_assembly_filter.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.result import KmerCounts

__all__ = [
    "SpectrumFeatures",
    "spectrum_features",
    "solid_threshold",
    "estimate_genome_size",
    "estimate_error_rate",
]


@dataclass(frozen=True, slots=True)
class SpectrumFeatures:
    """Landmarks of a k-mer count histogram."""

    valley: int  # first local minimum (error/signal boundary)
    peak: int  # homozygous coverage peak (mode above the valley)
    error_mass: int  # total k-mer occurrences below the valley
    signal_mass: int  # total occurrences at/above the valley

    @property
    def has_signal(self) -> bool:
        return self.peak > self.valley


def spectrum_features(counts: KmerCounts, *, max_count: int = 1000) -> SpectrumFeatures:
    """Locate valley and coverage peak of the spectrum.

    Uses the canonical sweep: walk the histogram from count=1 to the
    first local minimum (the valley separating the sequencing-error
    band from real genomic k-mers), then take the highest histogram
    bar after it (the coverage peak).
    """
    hist = counts.spectrum(max_count=max_count).astype(np.float64)
    if hist.size <= 2 or hist[1:].sum() == 0:
        return SpectrumFeatures(valley=1, peak=1, error_mass=0, signal_mass=0)
    valley = 1
    for c in range(2, hist.size - 1):
        if hist[c] <= hist[c - 1] and hist[c] <= hist[c + 1]:
            valley = c
            break
    else:
        valley = 1
    tail = hist[valley:]
    peak = valley + int(np.argmax(tail)) if tail.size else valley
    counts_axis = np.arange(hist.size, dtype=np.float64)
    mass = hist * counts_axis
    error_mass = int(mass[:valley].sum())
    signal_mass = int(mass[valley:].sum())
    return SpectrumFeatures(valley=valley, peak=peak,
                            error_mass=error_mass, signal_mass=signal_mass)


def solid_threshold(counts: KmerCounts, *, max_count: int = 1000) -> int:
    """Minimum count for a k-mer to be considered solid (non-error)."""
    return max(2, spectrum_features(counts, max_count=max_count).valley)


def estimate_genome_size(counts: KmerCounts, *, max_count: int = 1000) -> int:
    """Estimate genome size as signal k-mer mass / coverage peak.

    The classic estimator: total non-error k-mer occurrences divided by
    the per-k-mer coverage (the spectrum peak).  Exact for a uniform
    haploid genome; a first-order approximation otherwise.
    """
    feats = spectrum_features(counts, max_count=max_count)
    if not feats.has_signal or feats.peak == 0:
        return 0
    return int(round(feats.signal_mass / feats.peak))


def estimate_error_rate(counts: KmerCounts, *, max_count: int = 1000) -> float:
    """Per-base substitution-rate estimate from the error band.

    A substitution at one base corrupts up to k overlapping k-mers, so
    ``error_occurrences ~= errors * k`` and
    ``rate ~= error_mass / (k * total_mass)``.
    """
    feats = spectrum_features(counts, max_count=max_count)
    total = feats.error_mass + feats.signal_mass
    if total == 0:
        return 0.0
    return feats.error_mass / (counts.k * total)
