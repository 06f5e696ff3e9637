"""Immutable sorted runs: the on-disk level of the LSM store.

A run is a flushed memtable (or a compaction product): strictly
increasing ``uint64`` keys with aligned ``int64`` counts, laid out so
it is servable without loading it whole (framing in
``docs/FORMATS.md``)::

    framed header   k, n, index_stride, fence_min, fence_max
    one record      index_keys: every index_stride-th key (uint64)
    keys section    n raw uint64, at a computed offset
    counts section  n raw int64, right behind the keys

* **fences** — the min and max key, so a point lookup skips the run
  (no I/O at all) when the key is out of range;
* the **sparse index** is tiny and resident.  A lookup binary-searches
  it to find its block, then reads just that ``index_stride``-sized
  slice of each section: one ``seek`` + ``read``.

Header and index are checksummed; the two data sections are not (block
reads never covered them) — their extent is checked against the file
size on open.

Runs are immutable and published atomically and durably
(:func:`repro.fileio.publish` with fsync), so a crash leaves either no
file or a complete one — never a half-written run.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..core.result import probe_sorted
from ..fileio import FormatError, Framing, publish, record

__all__ = ["RUN", "write_run", "Run"]

RUN = Framing("LSM run", b"dakcrun\x00", 2, "<QQQQQ")
"""Header fields: k, n, index_stride, fence_min, fence_max."""


def write_run(path: str | os.PathLike, k: int, keys: np.ndarray, vals: np.ndarray,
              *, index_stride: int = 4096) -> None:
    """Atomically write a sorted run (keys strictly increasing).

    *keys*/*vals* may be memmaps — their buffers go to the file without
    a copy, which is what keeps compaction's peak memory flat.
    """
    if index_stride < 1:
        raise ValueError("index_stride must be >= 1")
    n = int(keys.shape[0])
    index_keys = np.ascontiguousarray(keys[::index_stride], dtype="<u8")
    fence_min, fence_max = (int(keys[0]), int(keys[-1])) if n else (0, 0)

    def write(fh) -> None:
        fh.write(RUN.header(k, n, index_stride, fence_min, fence_max))
        fh.write(record(index_keys.tobytes()))
        fh.write(np.ascontiguousarray(keys, dtype="<u8"))
        fh.write(np.ascontiguousarray(vals, dtype="<i8"))

    publish(path, write, fsync=True)


class Run:
    """One immutable sorted run, served with block-granular reads."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            (self.k, self.n_keys, self.index_stride,
             self.fence_min, self.fence_max) = RUN.read_header(fh, self.path)
            index = next(RUN.records(fh, self.path), None)
        if index is None:
            raise FormatError(self.path, RUN.kind, "truncated", "no index record")
        payload, self._keys_at = index
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
        self._fh = None
        # read-amplification accounting
        self.point_queries = 0
        self.blocks_read = 0
        self.probes = 0

    # -- raw access ----------------------------------------------------

    def read_slice(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Read ``keys[lo:hi], counts[lo:hi]`` (one seek+read each)."""
        lo, hi = max(lo, 0), min(hi, self.n_keys)
        if hi <= lo:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        if self._fh is None:
            self._fh = open(self.path, "rb")
        out = []
        for section_at, dtype in ((self._keys_at, "<u8"),
                                  (self._keys_at + 8 * self.n_keys, "<i8")):
            self._fh.seek(section_at + 8 * lo)
            buf = self._fh.read(8 * (hi - lo))
            out.append(np.frombuffer(buf, dtype=dtype))
        return out[0], out[1]

    def load(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole run (compaction / snapshot input)."""
        return self.read_slice(0, self.n_keys)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- point lookups -------------------------------------------------

    def get(self, keys: np.ndarray) -> np.ndarray:
        """Batch point lookup touching only the index blocks it needs."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(keys.size, dtype=np.int64)
        if self.n_keys == 0 or keys.size == 0:
            return out
        self.probes += 1
        in_fence = (keys >= np.uint64(self.fence_min)) & (keys <= np.uint64(self.fence_max))
        if not in_fence.any():
            return out
        self.point_queries += int(keys.size)
        cand_pos = np.flatnonzero(in_fence)
        cand = keys[cand_pos]
        # index_keys[b] is the first key of block b, so 'right' - 1 is
        # the only block that can contain the key.
        blocks = np.searchsorted(self.index_keys, cand, side="right") - 1
        for b in np.unique(blocks):
            lo = int(b) * self.index_stride
            bk, bc = self.read_slice(lo, lo + self.index_stride)
            self.blocks_read += 1
            sel = blocks == b
            out[cand_pos[sel]] = probe_sorted(bk, bc, cand[sel])
        return out

    # -- accounting ----------------------------------------------------

    @property
    def nbytes(self) -> int:
        return os.path.getsize(self.path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Run({self.path.name}, n={self.n_keys}, "
                f"fences=[{self.fence_min:#x}, {self.fence_max:#x}])")
