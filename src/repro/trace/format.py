"""Query-trace records and their on-disk format.

A trace is the raw material of cache modelling: one record per served
query — ``(ts, stream, key, tier)`` — in arrival order, where *tier*
says which layer answered (the hot-key cache, or the sharded store on
a miss).  The cache model (:mod:`repro.trace.sampling`) needs only the
key sequence and the admission threshold of the cache it models, which
``dakc trace record`` writes into the header as ``meta["cache"] =
{"capacity", "admit_threshold"}`` (a trace without it is modelled at
``HotKeyCache``'s default threshold of 1); the replay engine
(:mod:`repro.trace.replay`) also uses the timestamps to rebuild arrival
groups, and the tier column lets recorded and replayed cache behaviour
be diffed.

On disk a trace is a compressed ``.npz`` (plain ``np.load`` reads it)
with the four column arrays plus a JSON header carrying a magic string,
a format version, and the provenance fields (k, seed, source).  It is
published and loaded through :mod:`repro.fileio`: anything but a
complete, current-version trace raises
:class:`~repro.fileio.FormatError` (``docs/FORMATS.md``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..fileio import FormatError, check_version, load_npz, parse_json, save_npz
from ..serve.cache import TIER_STORE, TIER_T1

__all__ = [
    "TRACE_MAGIC",
    "TRACE_VERSION",
    "TIER_T1",
    "TIER_STORE",
    "QueryTrace",
    "save_trace",
    "load_trace",
]

TRACE_MAGIC = "dakc-query-trace"
TRACE_VERSION = 1
_KIND = "query trace"
_COLUMNS = ("ts", "streams", "keys", "tiers")


@dataclass(frozen=True, eq=False)
class QueryTrace:
    """One captured query stream (column-oriented, arrival order)."""

    ts: np.ndarray       # float64 seconds since trace start, non-decreasing
    streams: np.ndarray  # int32 tenant/stream id per record
    keys: np.ndarray     # uint64 query keys
    tiers: np.ndarray    # int8 answering tier (TIER_T1/TIER_STORE)
    k: int = 0           # k-mer length of the keyspace (0 = unknown)
    seed: int = 0        # workload seed, when the trace came from a generator
    source: str = ""     # free-form provenance ("trace record seed=0", a path)
    meta: dict = field(default_factory=dict)  # extra JSON-able provenance

    def __post_init__(self) -> None:
        n = self.ts.size
        for name in ("streams", "keys", "tiers"):
            if getattr(self, name).size != n:
                raise ValueError(f"column {name!r} length != ts length")

    @property
    def n_records(self) -> int:
        return int(self.ts.size)

    @property
    def duration(self) -> float:
        """Span of the arrival timeline (seconds)."""
        return float(self.ts[-1] - self.ts[0]) if self.ts.size else 0.0

    def unique_fraction(self) -> float:
        """Distinct keys / records — low means a cache-friendly trace."""
        if not self.keys.size:
            return 0.0
        return np.unique(self.keys).size / self.keys.size

    def tier_counts(self) -> dict:
        """Records answered per tier, as recorded."""
        return {
            "t1": int((self.tiers == TIER_T1).sum()),
            "store": int((self.tiers == TIER_STORE).sum()),
        }

    def window(self, t0: float, t1: float) -> "QueryTrace":
        """The sub-trace with ``t0 <= ts < t1`` (temporal slicing)."""
        mask = (self.ts >= t0) & (self.ts < t1)
        return self.select(mask)

    def select(self, mask: np.ndarray) -> "QueryTrace":
        """A sub-trace keeping the records where *mask* is True."""
        return QueryTrace(
            ts=self.ts[mask], streams=self.streams[mask],
            keys=self.keys[mask], tiers=self.tiers[mask],
            k=self.k, seed=self.seed, source=self.source, meta=dict(self.meta),
        )

    def describe(self) -> dict:
        """JSON-friendly summary (the `dakc trace profile` header)."""
        return {
            "n_records": self.n_records,
            "n_distinct": int(np.unique(self.keys).size),
            "duration_s": self.duration,
            "unique_fraction": self.unique_fraction(),
            "tiers": self.tier_counts(),
            "k": self.k,
            "seed": self.seed,
            "source": self.source,
        }


def _normalised(trace: QueryTrace) -> QueryTrace:
    """Columns coerced to the canonical dtypes (pre-save hygiene)."""
    return QueryTrace(
        ts=np.ascontiguousarray(trace.ts, dtype=np.float64),
        streams=np.ascontiguousarray(trace.streams, dtype=np.int32),
        keys=np.ascontiguousarray(trace.keys, dtype=np.uint64),
        tiers=np.ascontiguousarray(trace.tiers, dtype=np.int8),
        k=int(trace.k), seed=int(trace.seed), source=str(trace.source),
        meta=dict(trace.meta),
    )


def save_trace(path: str | os.PathLike, trace: QueryTrace) -> None:
    """Write a trace as a compressed ``.npz`` with a JSON header."""
    trace = _normalised(trace)
    header = {
        "magic": TRACE_MAGIC,
        "version": TRACE_VERSION,
        "n_records": trace.n_records,
        "k": trace.k,
        "seed": trace.seed,
        "source": trace.source,
        "meta": trace.meta,
    }
    header_blob = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    save_npz(path, header=header_blob, ts=trace.ts, streams=trace.streams,
             keys=trace.keys, tiers=trace.tiers)


def load_trace(path: str | os.PathLike) -> QueryTrace:
    """Read a trace written by :func:`save_trace`.

    Raises :class:`~repro.fileio.FormatError` on anything that is not a
    complete, current-version trace file: truncated archives, foreign
    ``.npz`` files, versions from the future, tier labels other than
    :data:`TIER_T1` and :data:`TIER_STORE`.
    """
    columns = load_npz(path, _KIND, ("header", *_COLUMNS))
    header = parse_json(path, _KIND, columns.pop("header").tobytes(),
                        ("magic", "version"))
    if header["magic"] != TRACE_MAGIC:
        raise FormatError(path, _KIND, "foreign", f"bad magic {header['magic']!r}")
    check_version(path, _KIND, header["version"], TRACE_VERSION)
    n_records = header.get("n_records", columns["ts"].size)
    if any(col.size != n_records for col in columns.values()):
        raise FormatError(
            path, _KIND, "mismatch",
            f"header says {n_records} records, columns hold "
            + "/".join(str(col.size) for col in columns.values()))
    foreign = np.setdiff1d(columns["tiers"], (TIER_T1, TIER_STORE))
    if foreign.size:
        raise FormatError(path, _KIND, "corrupt",
                          f"unknown tier labels {foreign.tolist()}")
    return QueryTrace(
        ts=columns["ts"].astype(np.float64, copy=False),
        streams=columns["streams"].astype(np.int32, copy=False),
        keys=columns["keys"].astype(np.uint64, copy=False),
        tiers=columns["tiers"].astype(np.int8, copy=False),
        k=int(header.get("k", 0)),
        seed=int(header.get("seed", 0)),
        source=str(header.get("source", "")),
        meta=dict(header.get("meta", {})),
    )
