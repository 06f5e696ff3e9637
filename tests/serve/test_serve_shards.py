"""Tests for the served database: one sorted table behind hash routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.owner import owner_pe
from repro.core.result import KmerCounts
from repro.core.serial import serial_count
from repro.serve.shards import Shard, ShardedStore


@pytest.fixture(scope="module")
def db(small_reads):
    return serial_count(small_reads, 15)


class TestPartition:
    """One table holds the database; the shards are routing only."""

    def test_shards_cover_database(self, db):
        store = ShardedStore.from_counts(db, 8)
        assert store.n_shards == 8
        assert store.n_distinct == db.n_distinct
        assert np.array_equal(store.table.kmers, db.kmers)
        assert np.array_equal(store.table.counts, db.counts)

    def test_partition_follows_owner_pe(self, db):
        store = ShardedStore.from_counts(db, 4)
        assert np.array_equal(store.shard_of(db.kmers), owner_pe(db.kmers, 4))

    def test_shards_stay_sorted(self, db):
        table = ShardedStore.from_counts(db, 8).table
        assert (table.kmers[:-1] < table.kmers[1:]).all()

    def test_single_shard(self, db):
        store = ShardedStore.from_counts(db, 1)
        assert (store.shard_of(db.kmers) == 0).all()

    def test_balance(self, db):
        # splitmix64 should spread distinct keys roughly evenly.
        store = ShardedStore.from_counts(db, 8)
        sizes = np.bincount(store.shard_of(db.kmers), minlength=8)
        assert sizes.min() > 0.5 * sizes.mean()
        assert sizes.max() < 1.5 * sizes.mean()

    def test_invalid_n_shards(self, db):
        with pytest.raises(ValueError):
            ShardedStore.from_counts(db, 0)


class TestLookup:
    def test_lookup_matches_scalar_get(self, db, rng):
        store = ShardedStore.from_counts(db, 8)
        keys = rng.choice(db.kmers, size=500)
        expect = np.array([db.get(int(k)) for k in keys])
        assert np.array_equal(store.lookup(keys), expect)
        assert all(store.get(int(k)) == db.get(int(k)) for k in keys[:50])

    def test_absent_keys_answer_zero(self, db):
        absent = np.setdiff1d(
            np.arange(1000, dtype=np.uint64), db.kmers.astype(np.uint64)
        )[:100]
        store = ShardedStore.from_counts(db, 4)
        looked = store.lookup(absent)
        assert looked.shape == absent.shape
        assert (looked == 0).all()
        beyond = int(db.kmers[-1]) + 1   # past the table's last key
        assert [store.get(int(k)) for k in absent[:10]] + [store.get(beyond)] == [0] * 11

    def test_empty_shard_and_empty_batch(self):
        empty = Shard(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
        assert empty.lookup(np.array([1, 2], dtype=np.uint64)).tolist() == [0, 0]
        store = ShardedStore(5, empty, 1)
        assert store.lookup(np.empty(0, dtype=np.uint64)).size == 0
        assert store.get(7) == 0

    def test_empty_key_batch_early_returns(self, db):
        shard = ShardedStore.from_counts(db, 2).table
        out = shard.lookup(np.empty(0, dtype=np.uint64))
        assert out.size == 0
        assert out.dtype == np.int64
        # Also via an untyped empty list (asarray path).
        assert shard.lookup(np.array([], dtype=np.uint64)).size == 0

    def test_shard_of_scalar_and_vector_agree(self, db):
        store = ShardedStore.from_counts(db, 8)
        keys = db.kmers[:64]
        vec = store.shard_of(keys)
        assert [store.shard_of(int(k)) for k in keys] == list(vec)


class TestMisc:
    def test_nbytes(self, db):
        store = ShardedStore.from_counts(db, 4)
        assert store.nbytes == db.kmers.nbytes + db.counts.nbytes

    def test_misaligned_shard_rejected(self):
        with pytest.raises(ValueError):
            Shard(np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.int64))

    def test_from_empty_counts(self):
        store = ShardedStore.from_counts(KmerCounts.empty(15), 4)
        assert store.n_distinct == 0
        assert (store.lookup(np.array([5], dtype=np.uint64)) == 0).all()
