"""End-to-end tests for LsmStore: ingest, flush, compact, serve, reopen."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.fileio import FormatError
from repro.lsm.crash import CRASH_POINTS, CrashPoints, SimulatedCrash
from repro.lsm.store import MANIFEST_NAME, WAL_NAME, LsmConfig, LsmStore
from repro.lsm.wal import WriteAheadLog
from repro.seq.alphabet import INVALID_CODE
from repro.serve import engine as engine_mod
from repro.serve.engine import EngineConfig, QueryEngine

K = 17

# Tiny budget: every ingest flushes; small run bound: compaction is
# exercised constantly.  Correctness must be invariant to all of it.
TINY = LsmConfig(memtable_bytes=1, max_runs=3, fan_in=2)


def _batches(reads, size):
    return [reads[i:i + size] for i in range(0, reads.shape[0], size)]


class TestIngestAndRead:
    @pytest.mark.parametrize("config", [LsmConfig(), TINY],
                             ids=["memtable-only", "flush-heavy"])
    def test_snapshot_matches_serial_oracle(self, tmp_path, small_reads, config):
        with LsmStore(tmp_path / "db", K, config=config) as store:
            for batch in _batches(small_reads, 25):
                store.ingest(batch)
            want = serial_count(small_reads, K)
            assert store.snapshot() == want
            assert store.total == want.total

    def test_get_matches_oracle_during_ingest(self, tmp_path, small_reads, rng):
        """Point reads are exact after *every* batch, whatever the layout."""
        with LsmStore(tmp_path / "db", K, config=TINY) as store:
            n = 0
            for batch in _batches(small_reads, 40):
                store.ingest(batch)
                n += batch.shape[0]
                oracle = serial_count(small_reads[:n], K)
                q = np.concatenate([
                    rng.choice(oracle.kmers, 100),
                    rng.integers(0, 1 << (2 * K), 20).astype(np.uint64),
                ])
                want = np.array([oracle.get(int(x)) for x in q], dtype=np.int64)
                assert np.array_equal(store.get(q), want)

    def test_canonical_counting(self, tmp_path, small_reads):
        cfg = LsmConfig(canonical=True)
        with LsmStore(tmp_path / "db", K, config=cfg) as store:
            store.ingest(small_reads)
            assert store.snapshot() == serial_count(small_reads, K, canonical=True)

    def test_empty_batch_is_noop(self, tmp_path):
        with LsmStore(tmp_path / "db", K) as store:
            assert store.ingest([]) == 0
            assert store.stats.batches_ingested == 0


    def test_get_answers_in_caller_order(self, tmp_path, small_reads, rng):
        """A shuffled group with repeats, over the memtable and four runs."""
        with LsmStore(tmp_path / "db", K, config=LsmConfig(max_runs=4)) as store:
            for batch in _batches(small_reads[:160], 40):
                store.ingest(batch)
                store.flush()                            # one run each
            store.ingest(small_reads[160:])              # stays in the memtable
            assert store.n_runs == 4 and store.memtable.n_distinct
            oracle = serial_count(small_reads, K)
            q = np.concatenate([
                rng.choice(oracle.kmers, 150), oracle.kmers[:3], oracle.kmers[-3:],
                rng.integers(0, 1 << (2 * K), 30).astype(np.uint64)])
            q = rng.permutation(np.concatenate([q, q[:40]]))
            assert (q[:-1] > q[1:]).any()                # not already sorted
            want = np.array([oracle.get(int(x)) for x in q], dtype=np.int64)
            assert np.array_equal(store.get(q), want)
            assert store.stats.point_reads == q.size
            assert store.stats.run_probes == 4 * q.size

    def test_get_refuses_a_key_matrix(self, tmp_path):
        with LsmStore(tmp_path / "db", K) as store:
            with pytest.raises(ValueError, match="keys must be 1-D"):
                store.get(np.zeros((2, 3), dtype=np.uint64))


RAGGED = [np.array(codes, dtype=np.uint8) for codes in (
    [0, 1, 2, 3] * 12, [3, 3, 3], [], [2, 1, INVALID_CODE, 0, 0, 1, 3, 2] * 9,
    [1] * 40, [0, 3] * 17 + [INVALID_CODE], [2, 0, 1] * 11)]


class TestAbsorb:
    """The memtable delta of a batch is ``serial_count`` of that batch."""

    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("k", [1, 31, 32])
    def test_ragged_short_and_ambiguous_reads(self, tmp_path, k, canonical):
        cfg = LsmConfig(canonical=canonical)
        with LsmStore(tmp_path / "db", k, config=cfg) as store:
            seen = []
            store.subscribe(seen.append)
            store.ingest(RAGGED)
            want = serial_count(RAGGED, k, canonical=canonical)
            assert np.array_equal(store.memtable.keys, want.kmers)
            assert np.array_equal(store.memtable.vals, want.counts)
            assert np.array_equal(seen[0], want.kmers)

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_wal_replay_rebuilds_the_memtable(self, tmp_path, small_reads, point):
        """After a kill at *point*, the reopened memtable is the serial
        count of exactly the batches the log holds above the watermark."""
        cfg = LsmConfig(memtable_bytes=30_000, max_runs=2, fan_in=2)  # ~3 batches a run
        crash = CrashPoints()
        store = LsmStore(tmp_path / "db", K, config=cfg, crash=crash)
        crash.arm(point, nth=2)
        with pytest.raises(SimulatedCrash):
            for batch in _batches(small_reads, 10):
                store.ingest(batch)
        applied = json.loads((tmp_path / "db" / MANIFEST_NAME).read_text())[
            "wal_applied_seq"]
        log = WriteAheadLog(tmp_path / "db" / WAL_NAME)
        pending = [read for _seq, batch in log.replay(after_seq=applied)
                   for read in batch]
        log.close()
        with LsmStore(tmp_path / "db", config=cfg) as recovered:
            want = serial_count(pending, K)
            assert np.array_equal(recovered.memtable.keys, want.kmers), point
            assert np.array_equal(recovered.memtable.vals, want.counts), point


class TestIngestCounts:
    def test_poison_is_refused_at_the_door(self, tmp_path):
        with LsmStore(tmp_path / "db", 3) as store:
            seen = []
            store.subscribe(seen.append)
            for keys, vals, index in (([1, 2, 3], [0, -2, 3], 0),
                                      ([1, 2, 3], [5, 5, -1], 2),
                                      ([1, 64, 65], [1, 1, 1], 1)):   # 64 = 4^3
                with pytest.raises(ValueError, match=f"pair {index} is"):
                    store.ingest_counts(np.array(keys, dtype=np.uint64),
                                        np.array(vals, dtype=np.int64))
            assert not seen and store.memtable.n_distinct == 0
            assert store.stats.bulk_loads == 0
            assert store.ingest_counts(np.array([63], dtype=np.uint64),
                                       np.array([1], dtype=np.int64)) == 1

    def test_every_key_is_in_range_at_k_32(self, tmp_path):
        with LsmStore(tmp_path / "db", 32) as store:
            top = np.array([(1 << 64) - 1], dtype=np.uint64)
            store.ingest_counts(top, np.array([2], dtype=np.int64))
            assert store.get(top).tolist() == [2]


class TestMaintenance:
    def test_snapshot_survives_compaction_and_close(self, tmp_path, small_reads):
        """What `snapshot()` and `load()` handed out stays valid after the
        runs they came from are closed, unlinked and the store is shut."""
        cfg = LsmConfig(memtable_bytes=1, auto_compact=False, max_runs=1, fan_in=4)
        store = LsmStore(tmp_path / "db", K, config=cfg)
        for batch in _batches(small_reads, 50):
            store.ingest(batch)
        victims = list(store.runs)
        views = [run.load() for run in victims]
        copies = [(k.copy(), v.copy()) for k, v in views]
        snap = store.snapshot()
        store.compact()
        assert not any(run.path.exists() for run in victims)
        store.close()
        assert snap == serial_count(small_reads, K)
        for (k, v), (want_k, want_v) in zip(views, copies):
            assert np.array_equal(k, want_k) and np.array_equal(v, want_v)

    def test_compaction_bounds_runs_and_read_amp(self, tmp_path, small_reads):
        with LsmStore(tmp_path / "db", K, config=TINY) as store:
            for batch in _batches(small_reads, 10):
                store.ingest(batch)
            assert store.n_runs <= TINY.max_runs
            assert store.stats.compactions > 0
            store.get(store.snapshot().kmers[:50])
            assert store.stats.read_amplification <= TINY.max_runs

    def test_manual_flush_and_compact(self, tmp_path, small_reads):
        cfg = LsmConfig(auto_compact=False, memtable_bytes=1,
                        max_runs=1, fan_in=2)
        with LsmStore(tmp_path / "db", K, config=cfg) as store:
            for batch in _batches(small_reads, 50):
                store.ingest(batch)
            before = store.n_runs
            assert before == 4  # one per batch, no auto-compaction
            store.compact()
            assert store.n_runs == 1
            assert store.snapshot() == serial_count(small_reads, K)

    def test_flush_empty_memtable_is_noop(self, tmp_path):
        with LsmStore(tmp_path / "db", K) as store:
            assert store.flush() is None


class TestReopen:
    def test_reopen_restores_exact_state(self, tmp_path, small_reads):
        path = tmp_path / "db"
        with LsmStore(path, K, config=TINY) as store:
            for batch in _batches(small_reads, 30):
                store.ingest(batch)
            want = store.snapshot()
        with LsmStore(path) as store2:
            assert store2.k == K
            assert store2.snapshot() == want
            # And it keeps working: ingest more after reopen.
            store2.ingest(small_reads[:10])
            grown = store2.snapshot()
            assert grown.total == want.total + serial_count(
                small_reads[:10], K).total

    def test_unflushed_tail_replayed_from_wal(self, tmp_path, small_reads):
        path = tmp_path / "db"
        store = LsmStore(path, K)  # big budget: nothing flushes
        store.ingest(small_reads)
        store.close()
        with LsmStore(path) as store2:
            assert store2.stats.replayed_batches == 1
            assert store2.snapshot() == serial_count(small_reads, K)

    def test_k_mismatch_rejected(self, tmp_path):
        path = tmp_path / "db"
        LsmStore(path, 17).close()
        with pytest.raises(ValueError, match="has k=17, requested k=31"):
            LsmStore(path, 31)

    def test_manifest_canonical_is_authoritative(self, tmp_path, small_reads):
        path = tmp_path / "db"
        with LsmStore(path, K, config=LsmConfig(canonical=True)) as store:
            store.ingest(small_reads[:40])
        # Reopened with the default (canonical=False) config: the
        # manifest wins, counting stays strand-folded.
        with LsmStore(path) as store2:
            assert store2.config.canonical is True
            store2.ingest(small_reads[40:80])
            assert store2.snapshot() == serial_count(
                small_reads[:80], K, canonical=True)

    def test_orphan_runs_swept(self, tmp_path, small_reads):
        path = tmp_path / "db"
        with LsmStore(path, K, config=TINY) as store:
            for batch in _batches(small_reads, 30):
                store.ingest(batch)
            want = store.snapshot()
        orphan = path / "run-999999.run"
        orphan.write_bytes(b"leftover from a crashed flush")
        (path / "junk.tmp").write_bytes(b"x")
        (path / "out.run.keys.spill").write_bytes(b"x")
        with LsmStore(path) as store2:
            assert store2.snapshot() == want
        assert not orphan.exists()
        assert not list(path.glob("*.tmp"))
        assert not list(path.glob("*.spill"))

    def test_unsupported_manifest_rejected(self, tmp_path):
        path = tmp_path / "db"
        LsmStore(path, K).close()
        man = json.loads((path / MANIFEST_NAME).read_text())
        man["format"] = 99
        (path / MANIFEST_NAME).write_text(json.dumps(man))
        with pytest.raises(FormatError, match="MANIFEST.json.*version 99"):
            LsmStore(path)

    def test_new_store_requires_k(self, tmp_path):
        """Opening what is not there names the path and creates nothing."""
        with pytest.raises(ValueError, match=r"db: no LSM store here \(no "
                                             r"MANIFEST.json\); pass k"):
            LsmStore(tmp_path / "typo" / "db")
        assert not (tmp_path / "typo").exists()


class TestReadView:
    def test_routing_matches_sharded_store(self, tmp_path, small_reads):
        from repro.serve.shards import ShardedStore

        with LsmStore(tmp_path / "db", K) as store:
            store.ingest(small_reads)
            view = store.read_view(n_shards=4)
            kc = store.snapshot()
            sharded = ShardedStore.from_counts(kc, 4)
            keys = kc.kmers[:200]
            assert np.array_equal(view.shard_of(keys), sharded.shard_of(keys))
            assert view.shard_of(int(keys[0])) == sharded.shard_of(int(keys[0]))

    def test_serve_while_ingesting(self, tmp_path, small_reads, rng, monkeypatch):
        """QueryEngine answers exactly while the store mutates underneath."""
        monkeypatch.setattr(engine_mod, "BATCH_SIZE", 16)

        async def go():
            with LsmStore(tmp_path / "db", K, config=TINY) as store:
                view = store.read_view(n_shards=2)
                cfg = EngineConfig()
                n = 0
                async with QueryEngine(view, cfg) as engine:
                    for batch in _batches(small_reads, 50):
                        store.ingest(batch)
                        n += batch.shape[0]
                        oracle = serial_count(small_reads[:n], K)
                        q = rng.choice(oracle.kmers, 150)
                        got = await engine.query_many(q)
                        want = np.array([oracle.get(int(x)) for x in q])
                        assert np.array_equal(got, want)

        asyncio.run(go())

    def test_view_validation(self, tmp_path):
        with LsmStore(tmp_path / "db", K) as store:
            with pytest.raises(ValueError, match="n_shards"):
                store.read_view(0)


class TestIntrospection:
    def test_describe_is_json_serialisable(self, tmp_path, small_reads):
        with LsmStore(tmp_path / "db", K, config=TINY) as store:
            for batch in _batches(small_reads, 60):
                store.ingest(batch)
            desc = json.loads(json.dumps(store.describe()))
            assert desc["k"] == K
            assert desc["stats"]["flushes"] == store.stats.flushes
            assert len(desc["runs"]) == store.n_runs
