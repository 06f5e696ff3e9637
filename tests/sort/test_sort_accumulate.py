"""Tests for accumulate sweeps — the Accumulate of Algorithms 1-4."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sort.accumulate import (
    accumulate_sorted,
    accumulate_weighted,
    counts_to_histogram,
    merge_count_arrays,
)

small_values = st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=400)


class TestAccumulateSorted:
    @given(small_values)
    def test_matches_counter(self, values):
        arr = np.sort(np.array(values, dtype=np.uint64))
        uniq, counts = accumulate_sorted(arr)
        assert dict(zip(uniq.tolist(), counts.tolist())) == Counter(values)

    @given(small_values)
    def test_conservation(self, values):
        arr = np.sort(np.array(values, dtype=np.uint64))
        _, counts = accumulate_sorted(arr)
        assert counts.sum() == len(values)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            accumulate_sorted(np.array([2, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="sorted"):  # [hi, lo] rows: hi, then lo
            accumulate_sorted(np.array([[0, 5], [0, 3]], dtype=np.uint64))

    def test_empty(self):
        uniq, counts = accumulate_sorted(np.empty(0, dtype=np.uint64))
        assert uniq.size == 0 and counts.size == 0

    def test_all_equal(self):
        uniq, counts = accumulate_sorted(np.full(100, 7, dtype=np.uint64))
        assert uniq.tolist() == [7] and counts.tolist() == [100]

    def test_output_strictly_increasing(self):
        arr = np.sort(np.random.default_rng(0).integers(0, 20, 200).astype(np.uint64))
        uniq, _ = accumulate_sorted(arr)
        assert (uniq[1:] > uniq[:-1]).all()


class TestAccumulateWeighted:
    @given(small_values)
    def test_matches_counter_unit_weights(self, values):
        arr = np.array(values, dtype=np.uint64)
        uniq, counts = accumulate_weighted(arr, np.ones(arr.size, dtype=np.int64))
        assert dict(zip(uniq.tolist(), counts.tolist())) == Counter(values)

    def test_sums_weights(self):
        k = np.array([5, 3, 5, 5], dtype=np.uint64)
        w = np.array([10, 2, 1, 1], dtype=np.int64)
        uniq, counts = accumulate_weighted(k, w)
        assert uniq.tolist() == [3, 5]
        assert counts.tolist() == [2, 12]
        rows = np.array([[1, 0], [0, 9], [1, 0], [0, 10]], dtype=np.uint64)
        uniq, counts = accumulate_weighted(rows, w)
        assert uniq.tolist() == [[0, 9], [0, 10], [1, 0]]
        assert counts.tolist() == [2, 1, 11]

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(-3, 1000)), max_size=400),
           st.sampled_from([0, 2**63 - 8, 2**64 - 16]), st.integers(0, 2**32 - 1))
    def test_matches_dict_oracle_on_shuffled_duplicates(self, pairs, base, seed):
        """Few keys, many repeats, shuffled: the sums are the oracle's
        whatever order equal keys meet in."""
        oracle: dict[int, int] = {}
        for key, weight in pairs:
            oracle[base + key] = oracle.get(base + key, 0) + weight
        perm = np.random.default_rng(seed).permutation(len(pairs))
        keys = np.array([base + pairs[i][0] for i in perm], dtype=np.uint64)
        weights = np.array([pairs[i][1] for i in perm], dtype=np.int64)
        uniq, sums = accumulate_weighted(keys, weights)
        assert uniq.tolist() == sorted(oracle)
        assert sums.tolist() == [oracle[key] for key in sorted(oracle)]

    def test_unsorted_input_ok(self):
        k = np.array([9, 1, 9], dtype=np.uint64)
        uniq, counts = accumulate_weighted(k, np.array([1, 1, 1]))
        assert uniq.tolist() == [1, 9]
        assert counts.tolist() == [1, 2]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accumulate_weighted(np.array([1], dtype=np.uint64), np.array([1, 2]))

    def test_empty(self):
        u, c = accumulate_weighted(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
        assert u.size == 0 and c.size == 0


class TestHistogram:
    def test_spectrum(self):
        hist = counts_to_histogram(np.array([1, 1, 2, 5]))
        assert hist.tolist() == [0, 2, 1, 0, 0, 1]

    def test_max_count_folds_tail(self):
        hist = counts_to_histogram(np.array([1, 9, 10, 200]), max_count=5)
        assert hist.size == 6
        assert hist[5] == 3  # 9, 10, 200 folded into the last bin

    def test_max_count_pads(self):
        hist = counts_to_histogram(np.array([1]), max_count=4)
        assert hist.tolist() == [0, 1, 0, 0, 0]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            counts_to_histogram(np.array([-1]))

    def test_empty(self):
        assert counts_to_histogram(np.empty(0, dtype=np.int64)).tolist() == [0]


class TestMerge:
    def test_disjoint_parts(self):
        a = (np.array([1, 2], dtype=np.uint64), np.array([5, 6], dtype=np.int64))
        b = (np.array([3], dtype=np.uint64), np.array([7], dtype=np.int64))
        uniq, counts = merge_count_arrays([a, b])
        assert uniq.tolist() == [1, 2, 3]
        assert counts.tolist() == [5, 6, 7]

    def test_overlapping_keys_summed(self):
        a = (np.array([1], dtype=np.uint64), np.array([5], dtype=np.int64))
        b = (np.array([1], dtype=np.uint64), np.array([2], dtype=np.int64))
        uniq, counts = merge_count_arrays([a, b])
        assert counts.tolist() == [7]

    def test_empty_parts_skipped(self):
        empty = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
        uniq, counts = merge_count_arrays([empty, empty])
        assert uniq.size == 0
