"""Tests for OwnerPE hashing and the KmerCounts result type."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.owner import by_owner, owner_pe, owner_split, splitmix64
from repro.core.result import KmerCounts, probe_sorted
from repro.seq.superkmers import partition_superkmers, split_superkmers_batch

from dakc_reference import owner_pe_scalar

kmer_arrays = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=300
).map(lambda xs: np.array(xs, dtype=np.uint64))

#: Both sides of each width the owner key narrows to (uint8, uint16).
WIDTH_EDGES = (1, 2, 255, 256, 257, 65_536, 65_537)


def wide_split(owners: np.ndarray) -> np.ndarray:
    """The reference permutation: a stable sort of the owners as int64."""
    return np.argsort(owners.astype(np.int64), kind="stable")


class TestSplitmix:
    def test_known_vector(self):
        """splitmix64(0) reference value from the published algorithm."""
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_scalar_matches_vector(self):
        arr = np.array([0, 1, 12345, 2**63], dtype=np.uint64)
        vec = splitmix64(arr)
        for i, x in enumerate(arr.tolist()):
            assert splitmix64(int(x)) == int(vec[i])

    @given(kmer_arrays)
    def test_deterministic(self, arr):
        assert np.array_equal(splitmix64(arr), splitmix64(arr))

    def test_avalanche(self):
        """Nearby inputs spread across the 64-bit range."""
        out = splitmix64(np.arange(10_000, dtype=np.uint64))
        buckets = np.bincount((out >> np.uint64(56)).astype(np.int64), minlength=256)
        assert buckets.min() > 0  # every top byte hit


class TestOwnerPe:
    @given(kmer_arrays, st.integers(1, 64))
    def test_range(self, arr, p):
        owners = owner_pe(arr, p)
        if arr.size:
            assert owners.min() >= 0 and owners.max() < p

    def test_scalar_matches_vector(self):
        arr = np.array([7, 42, 2**60], dtype=np.uint64)
        vec = owner_pe(arr, 13)
        for i, x in enumerate(arr.tolist()):
            assert owner_pe_scalar(int(x), 13) == int(vec[i])

    def test_deterministic_across_calls(self):
        """Same k-mer, same owner — required for counting correctness."""
        arr = np.full(100, 987654321, dtype=np.uint64)
        assert len(set(owner_pe(arr, 17).tolist())) == 1

    def test_roughly_balanced(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 2**63, size=100_000, dtype=np.uint64)
        counts = np.bincount(owner_pe(arr, 16), minlength=16)
        assert counts.max() / counts.min() < 1.1

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            owner_pe(np.array([1], dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            owner_pe_scalar(1, 0)

    @given(kmer_arrays, st.integers(1, 16), st.integers(1, 3))
    def test_partition_complete(self, arr, p, n_columns):
        """`by_owner` is the `owners == q` mask split: every column,
        input order kept inside an owner, empty owners skipped (so an
        empty input yields nothing)."""
        owners = owner_pe(arr, p)
        columns = [arr, np.arange(arr.size), ~arr][:n_columns]
        got = list(by_owner(owners, p, *columns))
        assert [q for q, *_ in got] == np.unique(owners).tolist()
        for q, *slices in got:
            assert len(slices) == n_columns
            for column, chunk in zip(columns, slices):
                assert np.array_equal(chunk, column[owners == q])


class TestOwnerSplit:
    """The narrow-key split is the wide stable split, permutation for
    permutation, on both sides of each key-width edge."""

    @given(st.sampled_from(WIDTH_EDGES),
           st.lists(st.tuples(st.booleans(),
                              st.one_of(st.integers(0, 3), st.integers(0, 2**20))),
                    max_size=300))
    def test_same_permutation_as_the_wide_stable_sort(self, n, draws):
        # Owners crowd both ends of [0, n): the top ids are the ones a
        # too-narrow key would wrap.
        owners = np.array([n - 1 - d % n if top else d % n for top, d in draws],
                          dtype=np.int64)
        order, counts = owner_split(owners, n)
        assert np.array_equal(order, wide_split(owners))
        assert np.array_equal(counts, np.bincount(owners, minlength=n))
        column = np.arange(owners.size)
        chunks = [chunk for _, chunk in by_owner(owners, n, column)]
        assert np.array_equal(np.concatenate([column[:0], *chunks]), wide_split(owners))

    @given(st.sampled_from(WIDTH_EDGES), st.integers(0, 2**32 - 1))
    def test_partition_superkmers_is_the_same_split(self, n, seed):
        reads = np.random.default_rng(seed).integers(0, 4, size=(12, 70), dtype=np.uint8)
        batch = split_superkmers_batch(reads, 15, 7)
        owners, order, boundaries = partition_superkmers(batch, n)
        assert np.array_equal(owners, owner_pe(batch.minimizers, n))
        assert np.array_equal(order, wide_split(owners))
        assert boundaries.tolist() == [
            0, *np.cumsum(np.bincount(owners, minlength=n)).tolist()]

    @pytest.mark.parametrize("n", WIDTH_EDGES)
    def test_owner_outside_the_range_is_refused(self, n):
        """``n - 1`` is the last owner; ``n`` (which a narrow key wraps
        to 0 at n = 256 and 65,536) and -1 are refused, by the split
        and by `by_owner`."""
        last = np.array([0, n - 1], dtype=np.int64)
        assert owner_split(last, n)[1].tolist() == np.bincount(last, minlength=n).tolist()
        for bad in (n, -1):
            owners = np.array([0, bad], dtype=np.int64)
            with pytest.raises(ValueError):
                owner_split(owners, n)
            with pytest.raises(ValueError):
                by_owner(owners, n, np.arange(2))

    def test_non_integer_owners_are_refused(self):
        with pytest.raises(ValueError, match="integers"):
            owner_split(np.array([0.0, 1.0]), 2)


class TestKmerCounts:
    def make(self):
        return KmerCounts(5, np.array([1, 5, 9], dtype=np.uint64),
                          np.array([3, 1, 7], dtype=np.int64))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):  # not increasing
            KmerCounts(5, np.array([5, 1], dtype=np.uint64), np.array([1, 1]))
        with pytest.raises(ValueError):  # duplicate key
            KmerCounts(5, np.array([1, 1], dtype=np.uint64), np.array([1, 1]))
        with pytest.raises(ValueError):  # zero count
            KmerCounts(5, np.array([1], dtype=np.uint64), np.array([0]))
        with pytest.raises(ValueError):  # length mismatch
            KmerCounts(5, np.array([1], dtype=np.uint64), np.array([1, 2]))

    def test_queries(self):
        kc = self.make()
        assert kc.n_distinct == 3
        assert kc.total == 11
        assert kc.max_count == 7
        assert kc.get(5) == 1
        assert kc.get(4) == 0
        assert 9 in kc and 2 not in kc
        assert len(kc) == 3

    def test_from_pairs_sums_duplicates(self):
        kc = KmerCounts.from_pairs(
            5, np.array([9, 1, 9], dtype=np.uint64), np.array([1, 2, 3], dtype=np.int64)
        )
        assert kc.get(9) == 4 and kc.get(1) == 2

    def test_counter_roundtrip(self):
        kc = self.make()
        assert KmerCounts.from_counter(5, kc.to_counter()) == kc

    def test_filter_min_count(self):
        kc = self.make().filter_min_count(3)
        assert kc.n_distinct == 2
        assert 5 not in kc

    def test_spectrum(self):
        spec = self.make().spectrum()
        assert spec[1] == 1 and spec[3] == 1 and spec[7] == 1

    def test_equality_and_diff(self):
        a, b = self.make(), self.make()
        assert a == b
        c = KmerCounts(5, np.array([1], dtype=np.uint64), np.array([3], dtype=np.int64))
        assert a != c
        assert len(a.diff(c)) > 0
        assert a.diff(KmerCounts(7, a.kmers, a.counts)) == ["k differs: 5 vs 7"]

    def test_empty(self):
        kc = KmerCounts.empty(31)
        assert kc.total == 0 and kc.n_distinct == 0 and kc.max_count == 0


class TestProbeSorted:
    """The one sorted-table point lookup, against a ``dict`` oracle."""

    @given(table=st.dictionaries(st.integers(0, 2**64 - 1),
                                 st.integers(1, 2**40), max_size=40),
           extra=st.lists(st.integers(0, 2**64 - 1), max_size=40),
           picks=st.lists(st.integers(0, 10**6), max_size=40))
    def test_matches_dict_oracle(self, table, extra, picks):
        keys = np.array(sorted(table), dtype=np.uint64)
        vals = np.array([table[k] for k in sorted(table)], dtype=np.int64)
        # Present keys (repeats allowed), arbitrary keys, and both ends
        # of the key space so probes land below the first entry and
        # above the last one.
        present = [int(keys[i % keys.size]) for i in picks] if keys.size else []
        queries = present + extra + [0, 2**64 - 1] + present[:3]
        got = probe_sorted(keys, vals, np.array(queries, dtype=np.uint64))
        assert got.dtype == np.int64 and got.flags.writeable
        assert got.tolist() == [table.get(q, 0) for q in queries]

    def test_empty_table_and_empty_query(self):
        none = np.empty(0, dtype=np.uint64)
        keys, vals = np.array([5, 9], np.uint64), np.array([2, 3], np.int64)
        assert probe_sorted(none, none.astype(np.int64), keys).tolist() == [0, 0]
        empty = probe_sorted(keys, vals, none)
        assert empty.size == 0 and empty.dtype == np.int64

    def test_read_only_values_are_not_written_through(self):
        keys = np.array([1, 4, 7], dtype=np.uint64)
        vals = np.frombuffer(np.array([3, 5, 8], dtype="<i8").tobytes(), "<i8")
        assert probe_sorted(keys, vals, [4, 5, 7]).tolist() == [5, 0, 8]
        assert vals.tolist() == [3, 5, 8]
