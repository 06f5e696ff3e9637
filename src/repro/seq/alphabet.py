"""DNA alphabet definitions and lookup tables.

The paper works on the DNA alphabet ``Sigma = {A, C, G, T}`` with the
standard 2-bit encoding used by essentially every k-mer counter
(Jellyfish, KMC3, HySortK, DAKC):

====  =====  ==========
base  code   complement
====  =====  ==========
A     0      T
C     1      G
G     2      C
T     3      A
====  =====  ==========

This module provides the canonical constant tables used by the rest of
:mod:`repro.seq`.  All tables are NumPy arrays so that encoding and
decoding of whole reads is vectorised (see the HPC guide: avoid
per-character Python loops in hot paths).
"""

from __future__ import annotations

import numpy as np

#: The DNA alphabet in code order.
BASES: str = "ACGT"

#: Number of symbols in the alphabet.
SIGMA: int = 4

#: Bits needed per symbol (2 bits for 4 symbols).
BITS_PER_BASE: int = 2

#: Map base character -> 2-bit code.
BASE_TO_CODE: dict[str, int] = {b: i for i, b in enumerate(BASES)}

#: Map 2-bit code -> base character.
CODE_TO_BASE: dict[int, str] = {i: b for i, b in enumerate(BASES)}

#: Sentinel code used for non-ACGT characters (e.g. ``N``) during
#: vectorised encoding.  Reads containing ambiguous bases are split at
#: these positions before k-mer extraction, mirroring how production
#: counters (KMC3, HySortK) skip k-mers spanning an ``N``.
INVALID_CODE: int = 255

# 256-entry ASCII lookup table: byte value -> 2-bit code or INVALID_CODE.
# Both upper- and lower-case bases are accepted, as FASTA files commonly
# use lower-case for soft-masked (repeat) regions.
_ASCII_TO_CODE = np.full(256, INVALID_CODE, dtype=np.uint8)
for _base, _code in BASE_TO_CODE.items():
    _ASCII_TO_CODE[ord(_base)] = _code
    _ASCII_TO_CODE[ord(_base.lower())] = _code

#: Vectorised ASCII byte -> 2-bit code lookup table (uint8[256]).
ASCII_TO_CODE: np.ndarray = _ASCII_TO_CODE

# Reverse table for decoding: 2-bit code -> ASCII byte value.
_CODE_TO_ASCII = np.zeros(4, dtype=np.uint8)
for _base, _code in BASE_TO_CODE.items():
    _CODE_TO_ASCII[_code] = ord(_base)

#: Vectorised 2-bit code -> ASCII byte lookup table (uint8[4]).
CODE_TO_ASCII: np.ndarray = _CODE_TO_ASCII


def complement_base(ch: str) -> str:
    """Return the Watson-Crick complement of a single base character."""
    code = BASE_TO_CODE[ch.upper()]
    return CODE_TO_BASE[3 - code]


def reverse_complement_str(seq: str) -> str:
    """Reverse-complement a DNA string (pure-Python reference path).

    For bulk work use :func:`repro.seq.kmers.reverse_complement_kmers`
    on packed k-mers.
    """
    return "".join(complement_base(c) for c in reversed(seq))
