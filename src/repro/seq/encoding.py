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
    COMPLEMENT_CODE,
    INVALID_CODE,
)

__all__ = [
    "encode_base",
    "encode_seq",
    "encode_batch",
    "decode_codes",
    "encode_reads",
    "reverse_complement_codes",
    "codes_to_str",
    "pack_codes_2bit",
    "unpack_codes_2bit",
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


def encode_reads(reads: list[str], *, validate: bool = True) -> list[np.ndarray]:
    """Encode a batch of reads; returns one code array per read."""
    return [encode_seq(r, validate=validate) for r in reads]


def reverse_complement_codes(codes: np.ndarray) -> np.ndarray:
    """Reverse-complement an encoded sequence (vectorised)."""
    codes = np.asarray(codes, dtype=np.uint8)
    return COMPLEMENT_CODE[codes[::-1]]


def pack_codes_2bit(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack a 2-bit code array into a dense byte array (4 bases/byte).

    This is the in-memory representation a production counter uses for
    read storage (the paper: "converts the ASCII characters into a
    2-bit DNA encoding").  Returns ``(packed, n_bases)``; the packed
    array stores base ``i`` in bits ``2*(i % 4)`` of byte ``i // 4``.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    padded = np.zeros((n + 3) // 4 * 4, dtype=np.uint8)
    padded[:n] = codes
    grouped = padded.reshape(-1, 4)
    packed = (
        grouped[:, 0]
        | (grouped[:, 1] << 2)
        | (grouped[:, 2] << 4)
        | (grouped[:, 3] << 6)
    ).astype(np.uint8)
    return packed, n


def unpack_codes_2bit(packed: np.ndarray, n_bases: int) -> np.ndarray:
    """Inverse of :func:`pack_codes_2bit`."""
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.size * 4 < n_bases:
        raise ValueError("packed array too short for n_bases")
    out = np.empty(packed.size * 4, dtype=np.uint8)
    out[0::4] = packed & 0x3
    out[1::4] = (packed >> 2) & 0x3
    out[2::4] = (packed >> 4) & 0x3
    out[3::4] = (packed >> 6) & 0x3
    return out[:n_bases]
