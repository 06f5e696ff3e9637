"""Immutable sorted runs: the on-disk level of the LSM store.

A run is a flushed memtable (or a compaction product): strictly
increasing ``uint64`` keys with aligned ``int64`` counts, laid out so
it is servable without loading it whole (framing in
``docs/FORMATS.md``)::

    framed header   k, n, index_stride, fence_min, fence_max
    one record      index_keys: every index_stride-th key (uint64)
    zero pad        to the next multiple of 8 bytes
    keys section    n raw uint64, at a computed offset
    counts section  n raw int64, right behind the keys

:func:`write_run` indexes every :data:`~repro.fileio.BLOCK_KEYS`-th key,
the count database's block size; a reader takes the stride from the
header.

* **fences** — the min and max key, so a point lookup skips the run
  (no page touched at all) when the key is out of range;
* the **sparse index** is tiny and resident; the two sections are
  **mapped** read-only on first use and that mapping is the only way a
  run is read.  A lookup group, cut to the fences, is one
  ``searchsorted`` over the mapped keys (8-byte aligned, so not copied);
  its positions name the index blocks it touches (read accounting only).

Header and index are checksummed, and the pad must read zero; the two
data sections are not checksummed — on open their extent is checked
against the file size, and their first and last key against the fences.

Runs are immutable and published atomically and durably
(:func:`repro.fileio.publish` with fsync), so a crash leaves either no
file or a complete one — never a half-written run.
"""

from __future__ import annotations

import mmap
import os
from pathlib import Path

import numpy as np

from ..fileio import BLOCK_KEYS, FormatError, Framing, publish, record

__all__ = ["RUN", "write_run", "Run", "StreamedRun"]

RUN = Framing("LSM run", b"dakcrun\x00", 3, "<QQQQQ")
"""Header fields: k, n, index_stride, fence_min, fence_max."""


def write_run(path: str | os.PathLike, k: int, keys: np.ndarray,
              vals: np.ndarray, *, fsync: bool = True) -> None:
    """Atomically write a sorted run (keys strictly increasing).

    *keys*/*vals* may be memmaps — their buffers go to the file without
    a copy, which is what keeps compaction's peak memory flat.  A store
    run is fsynced before it is published; an out-of-core scratch run,
    which no crash has to survive, passes ``fsync=False``.
    """
    n = int(keys.shape[0])
    index_keys = np.ascontiguousarray(keys[::BLOCK_KEYS], dtype="<u8")
    fence_min, fence_max = (int(keys[0]), int(keys[-1])) if n else (0, 0)

    head = (RUN.header(k, n, BLOCK_KEYS, fence_min, fence_max)
            + record(index_keys.tobytes()))

    def write(fh) -> None:
        fh.write(head + bytes(-len(head) % 8))   # sections start 8-aligned
        fh.write(np.ascontiguousarray(keys, dtype="<u8"))
        fh.write(np.ascontiguousarray(vals, dtype="<i8"))

    publish(path, write, fsync=fsync)


class Run:
    """One immutable sorted run: two mapped sections behind a resident index."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            (self.k, self.n_keys, self.index_stride,
             self.fence_min, self.fence_max) = RUN.read_header(fh, self.path)
            index = next(RUN.records(fh, self.path), None)
            if index is None:
                raise FormatError(self.path, RUN.kind, "truncated", "no index record")
            payload, index_end = index
            self._keys_at = index_end + -index_end % 8
            pad = fh.read(self._keys_at - index_end)
            self.index_keys = np.frombuffer(payload, dtype="<u8")
            if (self.index_stride < 1
                    or self.index_keys.size != -(-self.n_keys // self.index_stride)):
                raise FormatError(self.path, RUN.kind, "corrupt",
                                  f"{self.index_keys.size} index keys for "
                                  f"{self.n_keys} keys at stride {self.index_stride}")
            size, want = os.path.getsize(self.path), self._keys_at + 16 * self.n_keys
            if size != want:
                raise FormatError(self.path, RUN.kind,
                                  "truncated" if size < want else "corrupt",
                                  f"{size} bytes on disk, header implies {want}")
            if any(pad):
                raise FormatError(self.path, RUN.kind, "corrupt",
                                  f"nonzero pad at byte {index_end}")
            if self.n_keys:   # the fences keep add_sorted's probe inside the keys
                ends = []
                for i in (0, self.n_keys - 1):
                    fh.seek(self._keys_at + 8 * i)
                    ends.append(int.from_bytes(fh.read(8), "little"))
                if ends != [self.fence_min, self.fence_max]:
                    raise FormatError(self.path, RUN.kind, "corrupt",
                                      f"keys span {ends[0]:#x}..{ends[1]:#x}, fences "
                                      f"{self.fence_min:#x}..{self.fence_max:#x}")
        self._sections: tuple[np.ndarray, np.ndarray] | None = None
        self._closed = False
        # read-amplification accounting
        self.point_queries = 0
        self.blocks_read = 0
        self.probes = 0

    # -- raw access ----------------------------------------------------

    def _mapped(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, counts)`` views of the file, mapped on first use; they own
        the mapping, so one handed out outlives :meth:`close` and an unlink."""
        if self._closed:
            raise ValueError(f"{self.path}: run is closed")
        if self._sections is None:
            with open(self.path, "rb") as fh:
                buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            n = self.n_keys
            self._sections = (np.frombuffer(buf, "<u8", n, self._keys_at),
                              np.frombuffer(buf, "<i8", n, self._keys_at + 8 * n))
        return self._sections

    def read_slice(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``keys[lo:hi], counts[lo:hi]`` as views of the mapped sections."""
        keys, counts = self._mapped()
        return keys[lo:hi], counts[lo:hi]

    def load(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole run (compaction / snapshot input)."""
        return self._mapped()

    def close(self) -> None:
        """Drop the mapping; every later read raises ``ValueError``."""
        self._sections = None
        self._closed = True

    # -- point lookups -------------------------------------------------

    def get(self, keys: np.ndarray) -> np.ndarray:
        """Batch point lookup, answers in caller order; absent -> 0."""
        keys = np.asarray(keys, dtype=np.uint64)
        order = np.argsort(keys)
        found = np.zeros(keys.size, dtype=np.int64)
        self.add_sorted(keys[order], found)
        return found[np.argsort(order)]

    def add_sorted(self, keys: np.ndarray, out: np.ndarray) -> None:
        """Add the counts of an ascending ``uint64`` group (duplicates allowed)
        into *out*, its ``int64`` answers.  The group is searched only where it
        straddles a fence; ``blocks_read`` counts the distinct index blocks its
        in-fence keys fall in: a hit's block holds it, a miss's the key before."""
        mapped_keys, mapped_counts = self._mapped()
        n = keys.size
        if self.n_keys == 0 or n == 0:
            return
        self.probes += 1
        first, last, fmin, fmax = keys[0], keys[-1], self.fence_min, self.fence_max
        if last < fmin or first > fmax:
            return
        lo = 0 if first >= fmin else int(keys.searchsorted(np.uint64(fmin)))
        hi = n if last <= fmax else int(keys.searchsorted(np.uint64(fmax), "right"))
        if hi <= lo:
            return
        self.point_queries += n
        cand = keys[lo:hi]
        pos = mapped_keys.searchsorted(cand)   # < n_keys: cand <= fence_max, the last key
        miss = mapped_keys[pos] != cand
        blocks = (pos - miss) // self.index_stride
        self.blocks_read += 1 + int(np.count_nonzero(blocks[1:] != blocks[:-1]))
        found = mapped_counts[pos]
        found[miss] = 0
        out[lo:hi] += found

    # -- accounting ----------------------------------------------------

    @property
    def nbytes(self) -> int:
        return os.path.getsize(self.path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Run({self.path.name}, n={self.n_keys}, "
                f"fences=[{self.fence_min:#x}, {self.fence_max:#x}])")


class StreamedRun(Run):
    """A run read front to back, once, by a merge (an out-of-core scratch run).

    Each :meth:`read_slice` is two positioned reads into fresh arrays,
    so the merge holds one offer of the file at a time; a mapping would
    keep every page it touched resident until the merge ends.  The file
    stays open from the first read to :meth:`close`.
    """

    _fd: int | None = None

    def read_slice(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        if self._closed:
            raise ValueError(f"{self.path}: run is closed")
        if self._fd is None:
            self._fd = os.open(self.path, os.O_RDONLY)
        lo, hi = min(lo, self.n_keys), min(hi, self.n_keys)
        keys, counts = (os.pread(self._fd, 8 * (hi - lo), self._keys_at + 8 * (section + lo))
                        for section in (0, self.n_keys))
        return np.frombuffer(keys, "<u8"), np.frombuffer(counts, "<i8")

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        super().close()
