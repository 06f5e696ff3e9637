"""Low-overhead in-process query-trace capture.

The recorder is the write side of :mod:`repro.trace.format`: the
serve engine hands it whole key batches on its hot path, and it
appends ``(ts, key, tier)`` rows into chunked numpy buffers — no
per-record Python object, no I/O until :meth:`TraceRecorder.snapshot`.
The trace's ``stream`` column is 0 on every row it records.  The hook
is duck-typed on purpose: anything with ``record_batch(keys, tiers)``
can stand in (the serve layer never imports this module).

Timestamps come from a monotonic clock rebased to the first record, so
a trace always starts at ``ts == 0`` and is host-epoch-free.  Replay
and profiling only care about relative spacing anyway.
"""

from __future__ import annotations

import time

import numpy as np

from .format import QueryTrace

__all__ = ["TraceRecorder"]

_CHUNK = 65_536


class TraceRecorder:
    """Appends query batches to an in-memory columnar trace.

    Parameters
    ----------
    k:
        k-mer length of the keyspace, carried into the trace header.
    seed:
        workload seed (provenance only).
    source:
        free-form provenance string (e.g. ``"trace record seed=0"``).
    clock:
        0-arg callable returning seconds; defaults to
        :func:`time.monotonic`.  Tests inject a fake clock here to
        make recorded timestamps deterministic.
    """

    def __init__(self, *, k: int = 0, seed: int = 0, source: str = "",
                 clock=None) -> None:
        self.k = int(k)
        self.seed = int(seed)
        self.source = str(source)
        self._clock = clock if clock is not None else time.monotonic
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._t0: float | None = None
        self._n = 0

    @property
    def n_records(self) -> int:
        return self._n

    def record_batch(self, keys, tiers) -> None:
        """Append one served batch.

        *keys* is any uint64-coercible array; *tiers* is a same-length
        int8 array of answering tiers.  The whole batch shares one
        monotonic timestamp — batches ARE the arrival granularity on
        the serving hot path.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = keys.size
        if n == 0:
            return
        tiers = np.asarray(tiers, dtype=np.int8)
        if tiers.size != n:
            raise ValueError("tiers length != keys length")
        now = float(self._clock())
        if self._t0 is None:
            self._t0 = now
        ts_col = np.full(n, now - self._t0, dtype=np.float64)
        self._chunks.append((ts_col, keys.copy(), tiers.copy()))
        self._n += n
        if len(self._chunks) >= _CHUNK // 64:
            self._coalesce()

    def _coalesce(self) -> None:
        """Fold the accumulated small batches into one chunk."""
        if len(self._chunks) <= 1:
            return
        merged = tuple(np.concatenate(cols)
                       for cols in zip(*self._chunks, strict=True))
        self._chunks = [merged]

    def snapshot(self) -> QueryTrace:
        """The trace captured so far (recording can continue after)."""
        self._coalesce()
        if not self._chunks:
            ts, keys, tiers = (np.empty(0, dtype=dt)
                               for dt in (np.float64, np.uint64, np.int8))
        else:
            ts, keys, tiers = (col.copy() for col in self._chunks[0])
        return QueryTrace(ts=ts, streams=np.zeros(ts.size, dtype=np.int32),
                          keys=keys, tiers=tiers,
                          k=self.k, seed=self.seed, source=self.source)

    def clear(self) -> None:
        self._chunks.clear()
        self._t0 = None
        self._n = 0
