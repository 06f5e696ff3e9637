"""End-to-end tests for LsmStore: ingest, flush, compact, serve, reopen."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.fileio import FormatError
from repro.lsm.store import MANIFEST_NAME, LsmConfig, LsmStore
from repro.serve.engine import EngineConfig, QueryEngine

K = 17

# Tiny budget: every ingest flushes; small run bound: compaction is
# exercised constantly.  Correctness must be invariant to all of it.
TINY = LsmConfig(memtable_bytes=1, max_runs=3, fan_in=2, chunk_keys=512)


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


class TestMaintenance:
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
        with pytest.raises(ValueError, match="requires k"):
            LsmStore(tmp_path / "db")


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

    def test_serve_while_ingesting(self, tmp_path, small_reads, rng):
        """QueryEngine answers exactly while the store mutates underneath."""

        async def go():
            with LsmStore(tmp_path / "db", K, config=TINY) as store:
                view = store.read_view(n_shards=2)
                cfg = EngineConfig(batch_size=16, batch_window=0.0)
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
