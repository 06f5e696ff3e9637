"""Synthetic genome generation.

Two generators back the reproduction datasets:

* :func:`uniform_genome` — bases sampled i.i.d. uniformly from
  ``{A,C,G,T}``, exactly how the paper builds its *Synthetic XY*
  genomes ("sampled uniformly randomly from the alphabet").  Such
  genomes are "well-behaved by construction" (Section VI-G): virtually
  no k-mer repeats beyond sequencing coverage, so load is balanced and
  the L3 heavy-hitter layer buys nothing.

* :func:`repeat_genome` — a uniform backbone with tandem-repeat tracts
  spliced in (e.g. ``(AATGG)n`` — the centromeric human repeat the
  paper cites from the HySortK paper).  Repeats create *heavy-hitter*
  k-mers whose counts are orders of magnitude above the rest, which is
  what stresses load balance and motivates the L3 protocol.

Genomes are returned as encoded ``uint8`` code arrays; use
:func:`repro.seq.encoding.decode_codes` to materialise a string.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import encode_seq

__all__ = [
    "uniform_genome",
    "repeat_genome",
    "RepeatSpec",
    "HUMAN_CENTROMERIC_REPEAT",
]

#: The (AATGG)n centromeric repeat unit reported for the human genome.
HUMAN_CENTROMERIC_REPEAT: str = "AATGG"


def uniform_genome(length: int, *, rng: np.random.Generator | None = None,
                   seed: int | None = None) -> np.ndarray:
    """Generate a uniform-random genome of *length* bases (encoded)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if rng is None:
        rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=length, dtype=np.uint8)


@dataclass(frozen=True, slots=True)
class RepeatSpec:
    """Description of tandem-repeat content to splice into a genome.

    Attributes
    ----------
    unit:
        Repeat unit as a DNA string (default: human (AATGG)n).
    fraction:
        Fraction of the genome's bases covered by repeat tracts
        (0 <= fraction < 1).
    n_tracts:
        Number of distinct tracts the repeat content is split into.
        More tracts spread the same heavy k-mers across more reads.
    """

    unit: str = HUMAN_CENTROMERIC_REPEAT
    fraction: float = 0.05
    n_tracts: int = 4

    def __post_init__(self) -> None:
        if not self.unit:
            raise ValueError("repeat unit must be non-empty")
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError("fraction must be in [0, 1)")
        if self.n_tracts < 1:
            raise ValueError("n_tracts must be >= 1")


def repeat_genome(
    length: int,
    repeats: RepeatSpec | list[RepeatSpec] | None = None,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate a genome with heavy-hitter tandem repeats.

    The backbone is uniform-random; for each :class:`RepeatSpec`,
    ``fraction * length`` bases are overwritten by ``n_tracts`` tracts
    of the repeat unit at random non-overlapping-ish positions.
    Overlap between tracts of different specs is permitted (it only
    makes k-mers heavier), but each tract stays within bounds.
    """
    genome = uniform_genome(length, rng=rng)
    if repeats is None:
        repeats = [RepeatSpec()]
    if isinstance(repeats, RepeatSpec):
        repeats = [repeats]
    for spec in repeats:
        total = int(length * spec.fraction)
        if total == 0:
            continue
        unit_codes = encode_seq(spec.unit)
        tract_len = max(len(spec.unit), total // spec.n_tracts)
        n_tracts = max(1, total // tract_len)
        tract = np.tile(unit_codes, tract_len // len(spec.unit) + 1)[:tract_len]
        for _ in range(n_tracts):
            if length <= tract_len:
                start = 0
                genome[: min(length, tract_len)] = tract[: min(length, tract_len)]
                continue
            start = int(rng.integers(0, length - tract_len))
            genome[start : start + tract_len] = tract
    return genome
