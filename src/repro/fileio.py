"""One framing layer for every file this package puts on disk.

Six formats — spill bin, write-ahead log, LSM run, LSM ``MANIFEST``,
count database, query trace (table in ``docs/FORMATS.md``) — share the
rules written once here:

* **header** ``magic[8] | u32 version | u32 len(fields) | fields |
  u32 crc32`` (:class:`Framing`), the CRC covering everything before it;
* **record** ``u32 len | u32 crc32 | payload`` (:func:`record`,
  :meth:`Framing.records`), read back by an iterator that raises at the
  first torn or corrupt record instead of yielding it;
* **sorted block**: a strictly increasing ``uint64`` key array with its
  counts travels as one record per :data:`BLOCK_KEYS` keys — first key,
  byte-narrowed deltas, byte-narrowed counts (:func:`sorted_blocks`,
  :func:`read_sorted_blocks`); every block decodes on its own;
* **interchange files** (query trace, ``MANIFEST``) stay plain ``.npz``
  / JSON so numpy and ``jq`` read them; :func:`load_npz` and
  :func:`parse_json` turn every way such a file can be unreadable into
  the typed error;
* **publication** is tmp → write → (fsync) → ``os.replace``
  (:func:`publish`): a reader sees the old file or the new one, never
  half of either;
* **one error**: :class:`FormatError` names the path, the kind of file
  expected and one of five reasons.  A missing file stays
  ``FileNotFoundError``.

All integers are little-endian.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zipfile
import zlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import BinaryIO

import numpy as np
from numpy.lib import format as npformat

__all__ = [
    "REASONS",
    "FormatError",
    "Framing",
    "record",
    "BLOCK_KEYS",
    "sorted_blocks",
    "decode_sorted_block",
    "read_sorted_blocks",
    "check_version",
    "load_npz",
    "save_npz",
    "parse_json",
    "publish",
]

REASONS = ("truncated", "foreign", "version", "corrupt", "mismatch")

_PREFIX = struct.Struct("<8sII")   # magic, version, len(fields)
_RECORD = struct.Struct("<II")     # len(payload), crc32(payload)
_CRC = struct.Struct("<I")


class FormatError(ValueError):
    """*path* is not a readable file of the expected *kind*.

    *reason* is one of :data:`REASONS`: ``truncated`` (ends early — a
    crash mid-write), ``foreign`` (some other kind of file),
    ``version`` (a layout this build does not read), ``corrupt``
    (checksum or structure violated), ``mismatch`` (a sound file that
    contradicts what the caller asked for, e.g. another ``k``).
    """

    def __init__(self, path: str | os.PathLike, kind: str, reason: str, detail: str):
        super().__init__(f"{path}: not a readable {kind} ({reason}): {detail}")
        self.path = path
        self.kind = kind
        self.reason = reason


def check_version(path: str | os.PathLike, kind: str, found, expected: int) -> None:
    """Refuse any layout version but the one this build reads and writes."""
    if found != expected:
        raise FormatError(path, kind, "version",
                          f"version {found!r}, this build reads version {expected}")


# -- binary framing ----------------------------------------------------


@dataclass(frozen=True)
class Framing:
    """Identity of one binary format: what its header must say."""

    kind: str          # human name used in errors ("spill bin")
    magic: bytes       # exactly 8 bytes
    version: int
    fields: str        # struct format of the header fields ("<III")

    def header(self, *values: int) -> bytes:
        """The framed header carrying *values* (one per ``fields`` code)."""
        body = (_PREFIX.pack(self.magic, self.version, struct.calcsize(self.fields))
                + struct.pack(self.fields, *values))
        return body + _CRC.pack(zlib.crc32(body))

    def read_header(self, fh: BinaryIO, path: str | os.PathLike) -> tuple[int, ...]:
        """Validate the header at *fh*'s position; returns the field values."""
        prefix = fh.read(_PREFIX.size)
        if not self.magic.startswith(prefix[:8]):
            raise FormatError(path, self.kind, "foreign",
                              f"bad magic {prefix[:8]!r}")
        if len(prefix) < _PREFIX.size:
            raise FormatError(path, self.kind, "truncated",
                              f"header ends after {len(prefix)} bytes")
        _magic, version, n_fields = _PREFIX.unpack(prefix)
        check_version(path, self.kind, version, self.version)
        if n_fields != struct.calcsize(self.fields):
            raise FormatError(path, self.kind, "corrupt",
                              f"header declares {n_fields} field bytes")
        rest = fh.read(n_fields + _CRC.size)
        if len(rest) < n_fields + _CRC.size:
            raise FormatError(path, self.kind, "truncated",
                              f"header ends after {len(prefix) + len(rest)} bytes")
        if zlib.crc32(prefix + rest[:n_fields]) != _CRC.unpack(rest[n_fields:])[0]:
            raise FormatError(path, self.kind, "corrupt", "header checksum mismatch")
        return struct.unpack(self.fields, rest[:n_fields])

    def records(self, fh: BinaryIO, path: str | os.PathLike
                ) -> Iterator[tuple[bytes, int]]:
        """Yield ``(payload, end_offset)`` per record from *fh*'s position.

        Ends cleanly only at a record boundary; a partial record (the
        tail a crash mid-append leaves) or a checksum mismatch raises
        :class:`FormatError`, so nothing after the last good
        ``end_offset`` is ever handed to a caller.
        """
        pos = fh.tell()
        while True:
            head = fh.read(_RECORD.size)
            if not head:
                return
            if len(head) < _RECORD.size:
                raise FormatError(path, self.kind, "truncated",
                                  f"record header at byte {pos} ends early")
            length, crc = _RECORD.unpack(head)
            payload = fh.read(length)
            if len(payload) < length:
                raise FormatError(
                    path, self.kind, "truncated",
                    f"record at byte {pos} holds {len(payload)} of {length} bytes")
            if zlib.crc32(payload) != crc:
                raise FormatError(path, self.kind, "corrupt",
                                  f"record at byte {pos} checksum mismatch")
            pos += _RECORD.size + length
            yield payload, pos


def record(*parts: bytes) -> bytes:
    """One framed record whose payload is the concatenation of *parts*."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join((_RECORD.pack(sum(map(len, parts)), crc), *parts))


# -- sorted blocks -----------------------------------------------------

#: Keys per sorted block.  A constant of the codec, not a parameter: a
#: reader decodes whole blocks, so this is the unit of a point read.
BLOCK_KEYS = 4096

# first_key, n, key_width, count_width; then n-1 deltas, then n counts
_BLOCK_HEAD = struct.Struct("<QIBB")


def _trim(values: np.ndarray, width: int) -> bytes:
    """The low *width* bytes of every element of a contiguous ``<u8`` array."""
    wide = values.view(np.uint8).reshape(-1, 8)
    out = np.empty((values.size, width), dtype=np.uint8)
    for b in range(width):      # a column at a time: numpy's 2-D strided copy is 3x slower
        out[:, b] = wide[:, b]
    return out.tobytes()


def _widen(blob: memoryview, width: int, out: np.ndarray) -> None:
    """Inverse of :func:`_trim` into the contiguous ``<u8`` array *out*."""
    out[:] = 0
    wide = out.view(np.uint8).reshape(-1, 8)
    narrow = np.frombuffer(blob, dtype=np.uint8).reshape(-1, width)
    for b in range(width):
        wide[:, b] = narrow[:, b]


def _byte_width(values: np.ndarray) -> int:
    """Bytes the largest element needs (1 for an empty or all-zero array)."""
    return max(1, (int(values.max()).bit_length() + 7) // 8) if values.size else 1


def sorted_blocks(keys: np.ndarray, counts: np.ndarray) -> Iterator[bytes]:
    """Framed records holding strictly increasing *keys* and their *counts*.

    One :func:`record` per :data:`BLOCK_KEYS` keys, payload ``first_key
    u64 | n u32 | key_width u8 | count_width u8 | n-1 deltas | n
    counts``: a delta is a key minus its predecessor, and deltas and
    counts are little-endian, cut to the bytes the block's largest one
    needs.  No entropy coder: sorted 2k-bit keys are what delta coding
    shrinks by itself, and deflating them took 50x the time to save
    0.4 B/key (``docs/FORMATS.md``).
    """
    keys = np.ascontiguousarray(keys, dtype="<u8")
    counts = np.ascontiguousarray(counts, dtype="<i8").view("<u8")
    deltas = np.diff(keys)
    for lo in range(0, keys.size, BLOCK_KEYS):
        hi = min(lo + BLOCK_KEYS, keys.size)
        gaps, vals = deltas[lo:hi - 1], counts[lo:hi]
        key_width, count_width = _byte_width(gaps), _byte_width(vals)
        yield record(_BLOCK_HEAD.pack(int(keys[lo]), hi - lo, key_width, count_width),
                     _trim(gaps, key_width), _trim(vals, count_width))


def decode_sorted_block(payload: bytes, path: str | os.PathLike, kind: str
                        ) -> tuple[np.ndarray, np.ndarray]:
    """``(keys uint64, counts int64)`` of one :func:`sorted_blocks` payload.

    A payload whose CRC held can still be refused, as ``corrupt``: sizes
    that contradict its own head, keys that do not strictly increase (a
    zero delta, or deltas summing past ``2^64``), a count below 1.
    """
    def corrupt(detail: str) -> FormatError:
        return FormatError(path, kind, "corrupt", f"sorted block {detail}")

    if len(payload) < _BLOCK_HEAD.size:
        raise corrupt(f"of {len(payload)} bytes has no head")
    first, n, key_width, count_width = _BLOCK_HEAD.unpack_from(payload)
    split = _BLOCK_HEAD.size + (n - 1) * key_width
    if (n < 1 or not 1 <= key_width <= 8 or not 1 <= count_width <= 8
            or len(payload) != split + n * count_width):
        raise corrupt(f"of {len(payload)} bytes declares {n} keys of width "
                      f"{key_width} with counts of width {count_width}")
    body = memoryview(payload)
    keys = np.empty(n, dtype="<u8")
    keys[0] = first
    _widen(body[_BLOCK_HEAD.size:split], key_width, keys[1:])
    np.cumsum(keys, out=keys)
    if (keys[1:] <= keys[:-1]).any():
        raise corrupt("keys do not strictly increase")
    counts = np.empty(n, dtype="<u8")
    _widen(body[split:], count_width, counts)
    counts = counts.view("<i8")
    if counts.min() < 1:
        raise corrupt("holds a count below 1")
    return keys.astype(np.uint64, copy=False), counts.astype(np.int64, copy=False)


def read_sorted_blocks(framing: Framing, fh: BinaryIO, path: str | os.PathLike, *,
                       n: int, n_blocks: int, key_bits: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The *n* keys and counts in the *n_blocks* records at *fh*, to its end.

    What the file's header promised is held against what follows it: a
    file ending before its last block is ``truncated``; ``corrupt`` are
    a block not starting above its predecessor's last key, a key wider
    than *key_bits*, another total than *n* keys, and anything behind
    the last block.
    """
    key_parts, count_parts = [], []
    last = -1
    for payload, _end in islice(framing.records(fh, path), n_blocks):
        keys, counts = decode_sorted_block(payload, path, framing.kind)
        if int(keys[0]) <= last:
            raise FormatError(path, framing.kind, "corrupt",
                              f"block {len(key_parts)} starts at or below key {last}")
        last = int(keys[-1])
        key_parts.append(keys)
        count_parts.append(counts)
    if len(key_parts) < n_blocks:
        raise FormatError(path, framing.kind, "truncated",
                          f"ends after {len(key_parts)} of {n_blocks} blocks")
    if fh.read(1):
        raise FormatError(path, framing.kind, "corrupt",
                          f"bytes behind the last of {n_blocks} blocks")
    if last.bit_length() > key_bits:
        raise FormatError(path, framing.kind, "corrupt",
                          f"key {last} does not fit in {key_bits} bits")
    held = sum(part.size for part in key_parts)
    if held != n:
        raise FormatError(path, framing.kind, "corrupt",
                          f"blocks hold {held} keys, header says {n}")
    if not key_parts:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    return np.concatenate(key_parts), np.concatenate(count_parts)


# -- interchange files (.npz, JSON) ------------------------------------

_ZIP_MAGIC = b"PK\x03\x04"
# What zipfile and numpy raise on damaged archives (RuntimeError: zip
# features flagged in a header that ``np.savez`` never sets).
_UNREADABLE_ZIP = (zipfile.BadZipFile, zlib.error, EOFError, OSError, ValueError,
                   RuntimeError)


def load_npz(path: str | os.PathLike, kind: str, members: tuple[str, ...],
             *, version: int | None = None) -> dict[str, np.ndarray]:
    """The named members of an ``.npz``; anything unreadable is typed.

    Each member is read to its end *before* numpy parses it, because
    that is when zipfile compares the CRC: ``np.load`` stops at the
    array's last byte and would accept a damaged header that still
    parses.  With *version*, the ``version`` member (which *members*
    must then name) has to equal it.
    """
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head != _ZIP_MAGIC:
        raise FormatError(path, kind,
                          "truncated" if _ZIP_MAGIC.startswith(head) else "foreign",
                          f"starts {head!r}, not as an .npz archive")
    try:
        archive = zipfile.ZipFile(path)
    except _UNREADABLE_ZIP as exc:
        # BadZipFile here means no directory, and that sits at the end of the file
        raise FormatError(
            path, kind, "truncated" if isinstance(exc, zipfile.BadZipFile) else "corrupt",
            f"unreadable zip directory ({exc})") from exc
    with archive:
        present = set(archive.namelist())
        missing = [m for m in members if m + ".npy" not in present]
        if missing:
            raise FormatError(path, kind, "foreign",
                              f"no member {', '.join(missing)}")
        try:
            data = {name: npformat.read_array(io.BytesIO(archive.read(name + ".npy")),
                                              allow_pickle=False)
                    for name in members}
        except _UNREADABLE_ZIP as exc:
            raise FormatError(path, kind, "corrupt",
                              f"{type(exc).__name__}: {exc}") from exc
    if version is not None:
        check_version(path, kind, data["version"].tolist(), version)
    return data


def save_npz(path: str | os.PathLike, **arrays: np.ndarray) -> None:
    """Atomically write a compressed ``.npz`` readable by plain ``np.load``.

    numpy's rule is kept: ``.npz`` is appended to a path lacking it.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    publish(path, lambda fh: np.savez_compressed(fh, **arrays))


def parse_json(path: str | os.PathLike, kind: str, blob: bytes,
               members: tuple[str, ...]) -> dict:
    """*blob* as a JSON object holding every key in *members*."""
    if blob.lstrip()[:1] != b"{":
        raise FormatError(path, kind, "foreign" if blob.strip() else "truncated",
                          f"starts {blob[:8]!r}, not as a JSON object")
    try:
        doc = json.loads(blob)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FormatError(path, kind, "corrupt", f"unreadable JSON ({exc})") from exc
    missing = [m for m in members if m not in doc]
    if missing:
        raise FormatError(path, kind, "foreign", f"no key {', '.join(missing)}")
    return doc


# -- publication -------------------------------------------------------


def publish(path: str | os.PathLike, write_fn: Callable[[BinaryIO], object],
            *, fsync: bool = False) -> None:
    """Write ``<path>.tmp`` with *write_fn*, then ``os.replace`` it in.

    *fsync* forces the bytes to the device before the rename, for files
    whose publication acknowledges data (LSM runs).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write_fn(fh)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
