"""Vectorised 2-bit DNA encoding and decoding.

The first stage of every k-mer counter (Section V, Phase 1 of the
paper's model) converts 8-bit ASCII DNA characters into a 2-bit
encoding.  These routines are the NumPy equivalents of the paper's
``Encode`` primitive in Algorithm 1:

    ``kmer <- (kmer << 2) OR Encode(R[i][j])``

All functions operate on whole reads (arrays) at once; scalar helpers
exist only as readable references used in tests.
"""

from __future__ import annotations

import numpy as np

from .alphabet import (
    ASCII_TO_CODE,
    CODE_TO_ASCII,
    INVALID_CODE,
)

__all__ = [
    "encode_base",
    "encode_seq",
    "encode_batch",
    "decode_codes",
    "codes_to_str",
]


def encode_base(ch: str) -> int:
    """Encode a single base character to its 2-bit code.

    Raises :class:`ValueError` on ambiguous/non-ACGT characters.
    """
    code = int(ASCII_TO_CODE[ord(ch)])
    if code == INVALID_CODE:
        raise ValueError(f"invalid DNA base: {ch!r}")
    return code


def encode_seq(seq: str | bytes, *, validate: bool = True) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` array of 2-bit codes.

    Parameters
    ----------
    seq:
        DNA sequence as ``str`` or ASCII ``bytes``.
    validate:
        If True (default), raise :class:`ValueError` when the sequence
        contains a non-ACGT character.  If False, invalid characters
        are passed through as :data:`~repro.seq.alphabet.INVALID_CODE`
        so callers may split reads at them (the KMC3/HySortK treatment
        of ``N`` bases).

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of codes, same length as *seq*.
    """
    if isinstance(seq, str):
        raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    else:
        raw = np.frombuffer(bytes(seq), dtype=np.uint8)
    codes = ASCII_TO_CODE[raw]
    if validate and (codes == INVALID_CODE).any():
        bad = raw[codes == INVALID_CODE][0]
        raise ValueError(f"invalid DNA base: {chr(bad)!r}")
    return codes


def encode_batch(
    seqs: list[str | bytes], *, validate: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Encode a batch of DNA strings into one flat code array.

    Returns ``(codes, offsets)`` where ``codes`` is the concatenated
    2-bit encoding of every sequence and ``offsets`` (``len(seqs)+1``
    entries) delimits them: sequence ``i`` is
    ``codes[offsets[i]:offsets[i+1]]``.  One join, one LUT gather —
    no per-read Python.  *validate* behaves as in :func:`encode_seq`.
    """
    if not seqs:
        return np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    if isinstance(seqs[0], bytes):
        joined = b"".join(seqs)
        lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    else:
        joined = "".join(seqs).encode("ascii")
        lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    raw = np.frombuffer(joined, dtype=np.uint8)
    codes = ASCII_TO_CODE[raw]
    if validate and (codes == INVALID_CODE).any():
        bad = raw[codes == INVALID_CODE][0]
        raise ValueError(f"invalid DNA base: {chr(bad)!r}")
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return codes, offsets


def decode_codes(codes: np.ndarray) -> str:
    """Decode a 2-bit code array back into a DNA string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max(initial=0) > 3:
        raise ValueError("code array contains invalid (>3) entries")
    return CODE_TO_ASCII[codes].tobytes().decode("ascii")


# Kept as an alias with a name matching its usage in fastx/readsim.
codes_to_str = decode_codes
