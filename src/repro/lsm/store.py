"""``LsmStore`` — the updatable, crash-recoverable k-mer count store.

Glues the layers into one log-structured store::

    ingest(reads) --> WAL append --> count batch --> memtable merge
                                         |  (byte budget exceeded)
                                       flush --> immutable sorted run
                                         |  (> max_runs runs)
                                      compaction --> merged run

    get(keys)  = memtable.get + sum over runs  (merge-on-read,
                 newest first; counts are additive deltas)
    snapshot() = full merge into one KmerCounts (a frozen database)

Crash consistency is anchored on two facts:

* the ``MANIFEST`` (a JSON file swapped with ``os.replace``) is the
  *only* authority on which runs exist and which WAL prefix they
  already contain (``wal_applied_seq``);
* every other write is either append-only and checksummed (the WAL) or
  published atomically under a fresh name (runs).

So at any kill point the reopen path is the same: read the MANIFEST,
delete files it does not know about, replay the WAL above the applied
watermark.  Acknowledged batches (WAL append returned) are never lost,
and replay never double-counts — the exact conventions of
:mod:`repro.fault`'s ``CheckpointStore``, applied to storage.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace
from typing import Callable
from pathlib import Path

import numpy as np

from ..apps.store import merge_sorted_counts
from ..core.result import KmerCounts
from ..fileio import check_version, parse_json, publish
from ..seq.kmers import check_k, count_owned_kmers, extract_kmers_from_reads
from ..serve.shards import ShardedStore
from .compaction import merge_runs, pick_compaction
from .crash import CrashPoints
from .memtable import Memtable
from .run import Run, write_run
from .wal import WriteAheadLog, as_read_list

__all__ = ["LsmConfig", "LsmStats", "LsmStore", "LsmReadView"]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_KIND = "LSM manifest"
MANIFEST_FORMAT = 3   # 3: runs of RUN version 3 (8-byte aligned sections)
MANIFEST_KEYS = ("format", "k", "canonical", "runs", "next_run_id", "wal_applied_seq")
WAL_NAME = "wal.log"


@dataclass(frozen=True)
class LsmConfig:
    """Tuning knobs: memory budget, fan-in bound, durability."""

    memtable_bytes: int = 8 << 20   # flush trigger (resident delta bytes)
    max_runs: int = 8               # read-amplification bound (fan-in)
    fan_in: int = 8                 # runs merged per compaction
    canonical: bool = False         # strand-folded counting
    wal_sync: bool = False          # fsync every WAL append
    auto_compact: bool = True       # compact inline when runs exceed bound

    def __post_init__(self) -> None:
        if self.memtable_bytes < 1:
            raise ValueError("memtable_bytes must be >= 1")
        if self.max_runs < 1:
            raise ValueError("max_runs must be >= 1")
        if self.fan_in < 2:
            raise ValueError("fan_in must be >= 2")


@dataclass
class LsmStats:
    """Operational counters of one open store."""

    records_ingested: int = 0
    batches_ingested: int = 0
    bulk_loads: int = 0       # ingest_counts() and load_runs() calls (no WAL)
    replayed_batches: int = 0
    flushes: int = 0
    compactions: int = 0
    point_reads: int = 0      # keys answered by get()
    run_probes: int = 0       # run consultations across those reads
    runs_merged: int = 0

    @property
    def read_amplification(self) -> float:
        """Mean runs consulted per point-read batch key."""
        if not self.point_reads:
            return 0.0
        return self.run_probes / self.point_reads

    def snapshot(self) -> dict:
        return asdict(self) | {"read_amplification": self.read_amplification}


class LsmStore:
    """Updatable k-mer count store over a directory (open-or-create)."""

    def __init__(self, path: str | os.PathLike, k: int | None = None, *,
                 config: LsmConfig | None = None,
                 crash: CrashPoints | None = None):
        self.dir = Path(path)
        manifest_path = self.dir / MANIFEST_NAME
        if k is None and not manifest_path.exists():
            raise ValueError(f"{self.dir}: no LSM store here "
                             f"(no {MANIFEST_NAME}); pass k to create one")
        if k is not None:
            check_k(k)  # runs and the WAL key one word per k-mer
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = config or LsmConfig()
        self.crash = crash or CrashPoints()
        self.stats = LsmStats()

        if manifest_path.exists():
            man = parse_json(manifest_path, MANIFEST_KIND,
                             manifest_path.read_bytes(), MANIFEST_KEYS)
            check_version(manifest_path, MANIFEST_KIND, man["format"], MANIFEST_FORMAT)
            if k is not None and man["k"] != k:
                raise ValueError(
                    f"{self.dir}: store has k={man['k']}, requested k={k}")
            self.k = int(man["k"])
            # The manifest's canonical flag is authoritative for an
            # existing store; the config value only applies at creation.
            if man["canonical"] != self.config.canonical:
                self.config = replace(self.config, canonical=man["canonical"])
        else:
            self.k = k
            man = {"format": MANIFEST_FORMAT, "k": k,
                   "canonical": self.config.canonical,
                   "runs": [], "next_run_id": 1, "wal_applied_seq": 0}
            self._write_manifest(man)
        self._man = man

        self._sweep_orphans()
        self.runs: list[Run] = [Run(self.dir / name) for name in man["runs"]]
        self.memtable = Memtable(self.k)
        # Ingest listeners (e.g. a serving cache invalidating updated
        # keys).  Must exist before WAL replay — replay absorbs batches
        # through the same path, before any listener can subscribe.
        self._listeners: list = []
        self.wal = WriteAheadLog(self.dir / WAL_NAME, sync=self.config.wal_sync,
                                 crash=self.crash)
        if self.wal.last_seq < man["wal_applied_seq"]:
            # The log lost its header (zero-length after a crash): new
            # records must still number above what the runs contain,
            # or the next replay would skip them.
            self.wal.reset(man["wal_applied_seq"])
        for _seq, batch in self.wal.replay(after_seq=man["wal_applied_seq"]):
            self._absorb(batch)
            self.stats.replayed_batches += 1

    # -- manifest / recovery -------------------------------------------

    def _write_manifest(self, man: dict) -> None:
        blob = (json.dumps(man, indent=2) + "\n").encode()
        publish(self.dir / MANIFEST_NAME, lambda fh: fh.write(blob))

    def _sweep_orphans(self) -> None:
        """Delete files the MANIFEST does not acknowledge.

        Crashes between publishing a run file and swapping the MANIFEST
        (or between a compaction swap and victim deletion) leave such
        files; they are dead weight, never wrong data.
        """
        known = set(self._man["runs"])
        for pattern in ("run-*.run", "*.tmp", "*.spill"):
            for p in self.dir.glob(pattern):
                if p.name not in known:
                    p.unlink()

    # -- writes --------------------------------------------------------

    def _absorb(self, batch: list[np.ndarray]) -> int:
        """Count one read batch into the memtable (no WAL, no flush)."""
        kmers, counts = count_owned_kmers(
            extract_kmers_from_reads(batch, self.k), self.k,
            canonical=self.config.canonical)
        self.memtable.add_counts(kmers, counts)
        for listener in self._listeners:
            listener(kmers)
        return len(batch)

    def subscribe(self, listener: Callable) -> Callable[[], None]:
        """Call *listener(updated_kmers)* after every absorbed batch.

        The argument is the batch's distinct k-mer array (uint64,
        sorted).  Anything caching answers over this store must
        invalidate those keys or it will serve pre-ingest counts.
        Returns an unsubscribe callable.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    def ingest(self, reads: np.ndarray | list) -> int:
        """Durably ingest one read batch; returns records absorbed.

        The batch is acknowledged (and therefore crash-durable) once
        this returns; a flush and compaction may run inline when the
        memtable budget or the run bound is exceeded.
        """
        batch = as_read_list(reads)
        if not batch:
            return 0
        self.wal.append(batch)
        self._absorb(batch)
        self.stats.records_ingested += len(batch)
        self.stats.batches_ingested += 1
        if self.memtable.nbytes >= self.config.memtable_bytes:
            self.flush()
            if self.config.auto_compact:
                self.compact()
        return len(batch)

    def ingest_counts(self, keys: np.ndarray, vals: np.ndarray) -> int:
        """Bulk-load a pre-counted ``(kmer, count)`` delta; returns pairs.

        The delta goes through the memtable, so flushes and compactions
        interleave with the caller's loads under the memtable budget.
        Unlike :meth:`ingest` this path writes no WAL — the caller's
        input is the durable copy, and a crash loses only deltas the
        caller can re-derive; call :meth:`flush` afterwards to make the
        load durable.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        vals = np.asarray(vals, dtype=np.int64)
        if keys.shape != vals.shape or keys.ndim != 1:
            raise ValueError("keys and vals must be 1-D arrays of equal length")
        if keys.size == 0:
            return 0
        top = np.uint64((1 << 2 * self.k) - 1)
        if vals.min() < 1 or keys.max() > top:
            bad = int(np.argmax((vals < 1) | (keys > top)))
            raise ValueError(f"pair {bad} is ({int(keys[bad]):#x}, {int(vals[bad])}): "
                             f"counts must be >= 1 and keys < 4^{self.k}")
        if keys.size > 1 and not (keys[:-1] < keys[1:]).all():
            self.memtable.add_pairs(keys, vals)   # unsorted/duplicated delta
        else:
            self.memtable.add_counts(keys, vals)
        for listener in self._listeners:
            listener(keys)
        self.stats.bulk_loads += 1
        if self.memtable.nbytes >= self.config.memtable_bytes:
            self.flush()
            if self.config.auto_compact:
                self.compact()
        return int(keys.size)

    def flush(self) -> Run | None:
        """Freeze the memtable into a new immutable run (if non-empty)."""
        if self.memtable.n_distinct == 0:
            return None
        applied = self.wal.last_seq
        run_id = self._man["next_run_id"]
        name = f"run-{run_id:06d}.run"
        write_run(self.dir / name, self.k, self.memtable.keys, self.memtable.vals)
        self.crash.hit("flush.post_run_write")
        new_man = dict(self._man,
                       runs=[name] + list(self._man["runs"]),
                       next_run_id=run_id + 1,
                       wal_applied_seq=applied)
        self.crash.hit("flush.pre_manifest")
        self._write_manifest(new_man)
        self._man = new_man
        self.crash.hit("flush.post_manifest")
        run = Run(self.dir / name)
        self.runs.insert(0, run)
        self.memtable.clear()
        self.wal.reset(applied)
        self.stats.flushes += 1
        return run

    def compact(self) -> int:
        """Merge runs until within the ``max_runs`` bound; returns merges."""
        merges = 0
        cfg = self.config
        while (sel := pick_compaction(self.runs, cfg.max_runs, cfg.fan_in)) is not None:
            self._compact_once(sel)
            merges += 1
        return merges

    def _compact_once(self, sel: list[int]) -> None:
        victims = [self.runs[i] for i in sel]
        # The merged run takes the newest victim's slot.
        self._publish_merge(victims, victims, min(sel))
        self.stats.compactions += 1
        self.stats.runs_merged += len(victims)

    def _publish_merge(self, sources: list, victims: list[Run], insert_at: int,
                       chunk_keys: int | None = None) -> Run:
        """Merge *sources* into a new run at ``runs[insert_at]`` in place of
        *victims*: one MANIFEST swap, then the victims are deleted."""
        run_id = self._man["next_run_id"]
        name = f"run-{run_id:06d}.run"
        merge_runs(sources, self.dir / name, self.k, chunk_keys=chunk_keys)
        self.crash.hit("compact.post_run_write")
        victim_names = {v.path.name for v in victims}
        new_names = [n for n in self._man["runs"] if n not in victim_names]
        new_names.insert(insert_at, name)
        new_man = dict(self._man, runs=new_names, next_run_id=run_id + 1)
        self.crash.hit("compact.pre_manifest")
        self._write_manifest(new_man)
        self._man = new_man
        self.crash.hit("compact.post_manifest")
        merged = Run(self.dir / name)
        self.runs = [r for r in self.runs if r.path.name not in victim_names]
        self.runs.insert(insert_at, merged)
        for v in victims:
            v.close()
            v.path.unlink(missing_ok=True)
        return merged

    def load_runs(self, runs: list, *, chunk_keys: int) -> tuple[np.ndarray, np.ndarray]:
        """Bulk-load the k-way merge of sorted *runs* as one new run.

        The fusion point of out-of-core counting: :func:`repro.ooc.ooc_count`
        hands its scratch runs (and the slice it counted last) here, and
        :func:`~.compaction.merge_runs` writes them, *chunk_keys* per run
        per step, straight into the store's newest run.  One MANIFEST
        swap publishes it, through compaction's code and crash points: a
        crash before the swap leaves the store as it was, a crash after
        it holds the whole load.  No WAL is written — the caller's input
        is the durable copy.  Returns the loaded ``(keys, counts)``:
        views of the new run's mapping, valid even when the compaction
        that may follow merges the run away.
        """
        loaded = self._publish_merge(runs, [], 0, chunk_keys).load()
        for listener in self._listeners:
            listener(loaded[0])
        self.stats.bulk_loads += 1
        if self.config.auto_compact:
            self.compact()
        return loaded

    # -- reads ---------------------------------------------------------

    def get(self, keys: np.ndarray) -> np.ndarray:
        """Merge-on-read batch lookup: memtable + every run, summed."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.ndim != 1:
            raise ValueError("keys must be 1-D")
        order = np.argsort(keys)   # once: every level is probed ascending
        group = keys[order]
        found = self.memtable.get(group)   # a fresh array: runs add into it
        for run in self.runs:
            run.add_sorted(group, found)
        self.stats.point_reads += int(keys.size)
        self.stats.run_probes += int(keys.size) * len(self.runs)
        out = np.empty_like(found)
        out[order] = found
        return out

    def snapshot(self) -> KmerCounts:
        """A frozen, fully merged :class:`KmerCounts` of the live state."""
        keys, vals = self.memtable.keys.copy(), self.memtable.vals.copy()
        for run in self.runs:
            keys, vals = merge_sorted_counts(keys, vals, *run.load())
        return KmerCounts(self.k, keys, vals)

    def read_view(self, n_shards: int = 1) -> "LsmReadView":
        """A live serving view pluggable into :class:`repro.serve`."""
        return LsmReadView(self, n_shards)

    # -- introspection / lifecycle -------------------------------------

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def n_distinct(self) -> int:
        """Distinct k-mers (upper bound: run key sets may overlap)."""
        return self.memtable.n_distinct + sum(r.n_keys for r in self.runs)

    @property
    def total(self) -> int:
        """Total k-mer occurrences across memtable and runs (exact)."""
        return self.memtable.total + sum(int(r.load()[1].sum()) for r in self.runs)

    def describe(self) -> dict:
        """JSON-friendly store summary (the ``dakc ingest`` report)."""
        return {
            "dir": str(self.dir),
            "k": self.k,
            "canonical": self.config.canonical,
            "memtable": {"n_distinct": self.memtable.n_distinct,
                         "nbytes": self.memtable.nbytes,
                         "budget_bytes": self.config.memtable_bytes},
            "runs": [{"name": r.path.name, "n_keys": r.n_keys,
                      "nbytes": r.nbytes} for r in self.runs],
            "wal": {"last_seq": self.wal.last_seq,
                    "applied_seq": self._man["wal_applied_seq"],
                    "nbytes": self.wal.nbytes},
            "stats": self.stats.snapshot(),
        }

    def close(self) -> None:
        self.wal.close()
        for run in self.runs:
            run.close()

    def __enter__(self) -> "LsmStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LsmReadView:
    """Duck-typed :class:`~repro.serve.shards.ShardedStore` over a live store.

    The serve engine needs routing (``n_shards``, ``shard_of``) and
    batched lookups (``lookup``); lookups are answered against the
    *current* memtable + runs, so a :class:`~repro.serve.engine.QueryEngine`
    holding this view serves exact counts while ingest and compaction
    keep mutating the store underneath — no rebuild, no snapshot copy.
    Sharding here is virtual, as in every store: data stays in one
    store, and the engine's flush makes one merge-on-read lookup per
    loop turn (routing only feeds the in-service shard queues).
    """

    def __init__(self, store: LsmStore, n_shards: int = 1):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.store = store
        self.n_shards = n_shards
        self.k = store.k

    shard_of = ShardedStore.shard_of

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """One merge-on-read lookup over memtable + runs."""
        return self.store.get(keys)

    def get(self, key: int) -> int:
        """Scalar lookup (the naive baseline path)."""
        return int(self.store.get(np.array([key], dtype=np.uint64))[0])

    def subscribe(self, listener: Callable) -> Callable[[], None]:
        """Delegate ingest notifications to the underlying store."""
        return self.store.subscribe(listener)

    @property
    def n_distinct(self) -> int:
        return self.store.n_distinct
