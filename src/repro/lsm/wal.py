"""Write-ahead log of encoded read batches.

Durability for the LSM store's in-memory delta: every ``ingest`` batch
is appended here *before* it is counted into the memtable, so a crash
loses nothing that was acknowledged.  On reopen the store replays the
records newer than the ``MANIFEST``'s ``wal_applied_seq`` watermark and
rebuilds the memtable exactly.

The file is a :mod:`repro.fileio` framed header (one field,
``base_seq``) followed by one checksummed record per batch; the record
payload is ``u64 seq | u32 n_reads | u32 lengths[n_reads] | 2-bit-code
bytes`` (``docs/FORMATS.md`` has the framing).  A torn tail — the
half-written record a crash mid-append leaves behind — fails the
record iterator and is truncated on open instead of being replayed as
garbage.  ``base_seq`` keeps sequence numbers monotone across
:meth:`WriteAheadLog.reset` (after a flush the log is emptied but
numbering must not restart below the manifest's applied watermark, or
replay would double-count).
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from ..fileio import FormatError, Framing, record
from .crash import CrashPoints, SimulatedCrash

__all__ = ["WAL", "WriteAheadLog", "as_read_list"]

WAL = Framing("write-ahead log", b"dakcwal\x00", 2, "<Q")   # field: base_seq


def as_read_list(reads: np.ndarray | list) -> list[np.ndarray]:
    """Normalise a read batch to a list of 1-D ``uint8`` code arrays.

    Accepts the shapes :func:`repro.seq.kmers.extract_kmers_from_reads` takes:
    a 2-D code matrix (rows = equal-length reads) or a list of 1-D code
    arrays.
    """
    if isinstance(reads, np.ndarray):
        if reads.ndim == 1:
            return [np.ascontiguousarray(reads, dtype=np.uint8)]
        if reads.ndim == 2:
            m = np.ascontiguousarray(reads, dtype=np.uint8)
            return [m[i] for i in range(m.shape[0])]
        raise ValueError("reads array must be 1-D or 2-D")
    return [np.ascontiguousarray(r, dtype=np.uint8).reshape(-1) for r in reads]


def _encode_record(seq: int, batch: list[np.ndarray]) -> bytes:
    lens = np.array([r.size for r in batch], dtype="<u4")
    return record(b"".join((seq.to_bytes(8, "little"),
                            len(batch).to_bytes(4, "little"), lens.tobytes(),
                            *(r.tobytes() for r in batch))))


def _seq(payload: bytes) -> int:
    return int.from_bytes(payload[:8], "little")


def _decode_batch(payload: bytes) -> list[np.ndarray]:
    n = int.from_bytes(payload[8:12], "little")
    if not n:
        return []
    lens = np.frombuffer(payload, dtype="<u4", count=n, offset=12)
    codes = np.frombuffer(payload, dtype=np.uint8, offset=12 + 4 * n)
    return np.split(codes, np.cumsum(lens)[:-1])


class WriteAheadLog:
    """Append-only, checksummed log of read batches with torn-tail repair."""

    def __init__(self, path: str | os.PathLike, *,
                 sync: bool = False, crash: CrashPoints | None = None):
        self.path = Path(path)
        self.sync = sync
        self.crash = crash or CrashPoints()
        self.last_seq = 0
        self.records = 0
        if self.path.exists():
            self._open_and_repair()
        else:
            self._fh = open(self.path, "w+b")
            self._write_header(0)

    # -- lifecycle -----------------------------------------------------

    def _write_header(self, base_seq: int) -> None:
        self._fh.seek(0)
        self._fh.write(WAL.header(base_seq))
        self._fh.truncate()
        self._flush()
        self.last_seq = base_seq
        self.records = 0

    def _open_and_repair(self) -> None:
        """Open an existing log; truncate any torn record at the tail."""
        self._fh = open(self.path, "r+b")
        try:
            (self.last_seq,) = WAL.read_header(self._fh, self.path)
        except FormatError as exc:
            if exc.reason != "truncated":
                self._fh.close()
                raise
            # Crash before the header finished: an empty log.
            self._write_header(0)
            return
        valid_end = self._fh.tell()
        try:
            for payload, valid_end in WAL.records(self._fh, self.path):
                self.last_seq = max(self.last_seq, _seq(payload))
                self.records += 1
        except FormatError:
            # Everything after a torn write is unreachable garbage.
            self._fh.seek(valid_end)
            self._fh.truncate()
            self._flush()
        self._fh.seek(0, os.SEEK_END)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    # -- operations ----------------------------------------------------

    def append(self, reads: np.ndarray | list) -> int:
        """Durably append one read batch; returns its sequence number."""
        batch = as_read_list(reads)
        self.crash.hit("wal.pre_append")
        seq = self.last_seq + 1
        rec = _encode_record(seq, batch)
        mid = len(rec) // 2
        self._fh.seek(0, os.SEEK_END)
        self._fh.write(rec[:mid])
        try:
            self.crash.hit("wal.mid_append")
        except SimulatedCrash:
            self._flush()  # leave the torn half on disk, like a real crash
            raise
        self._fh.write(rec[mid:])
        self._flush()
        self.last_seq = seq
        self.records += 1
        self.crash.hit("wal.post_append")
        return seq

    def replay(self, *, after_seq: int = 0) -> Iterator[tuple[int, list[np.ndarray]]]:
        """Yield ``(seq, batch)`` for every record with ``seq > after_seq``."""
        self._fh.flush()
        with open(self.path, "rb") as fh:
            WAL.read_header(fh, self.path)
            for payload, _end in WAL.records(fh, self.path):
                if _seq(payload) > after_seq:
                    yield _seq(payload), _decode_batch(payload)
        self._fh.seek(0, os.SEEK_END)

    def reset(self, base_seq: int) -> None:
        """Empty the log after a flush; numbering resumes above *base_seq*."""
        if base_seq < self.last_seq:
            raise ValueError("reset would rewind the sequence counter")
        self._write_header(base_seq)

    def _flush(self) -> None:
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())

    @property
    def nbytes(self) -> int:
        self._fh.flush()
        return os.path.getsize(self.path)
