"""Tests for the radix/hybrid sorting substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sort.checks import count_descents, presortedness
from repro.sort.hybrid import HybridSortStats, hybrid_sort
from repro.sort.radix import (
    RadixSortStats,
    effective_msd_passes,
    radix_passes_for_bits,
    radix_sort,
)

uint64_arrays = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=300
).map(lambda xs: np.array(xs, dtype=np.uint64))


class TestRadixSort:
    @given(uint64_arrays)
    def test_matches_npsort(self, arr):
        assert np.array_equal(radix_sort(arr), np.sort(arr))

    @given(uint64_arrays, st.sampled_from([4, 8, 11, 16]))
    def test_digit_width_invariance(self, arr, digit_bits):
        assert np.array_equal(radix_sort(arr, digit_bits=digit_bits), np.sort(arr))

    @pytest.mark.parametrize("digit_bits", [1, 8, 9, 16])
    def test_matches_npsort_at_each_digit_width(self, digit_bits):
        """A digit is a uint8 (<= 8 bits) or uint16 key: every pass must
        still be the stable counting permutation."""
        rng = np.random.default_rng(digit_bits)
        arr = np.concatenate([
            rng.integers(0, 2**64 - 1, size=20_000, dtype=np.uint64, endpoint=True),
            rng.integers(0, 64, size=5_000).astype(np.uint64)])
        rng.shuffle(arr)
        assert np.array_equal(radix_sort(arr, digit_bits=digit_bits), np.sort(arr))

    def test_key_bits_limits_passes(self):
        stats = RadixSortStats()
        arr = np.arange(1000, dtype=np.uint64)
        radix_sort(arr, key_bits=16, digit_bits=8, stats=stats)
        assert stats.passes == 2

    def test_key_bits_correct_for_masked_keys(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 1 << 30, size=5000, dtype=np.uint64)
        assert np.array_equal(radix_sort(arr, key_bits=30), np.sort(arr))

    def test_input_not_modified(self):
        arr = np.array([3, 1, 2], dtype=np.uint64)
        radix_sort(arr)
        assert arr.tolist() == [3, 1, 2]

    def test_stats_accumulate(self):
        stats = RadixSortStats()
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 2**63, size=500, dtype=np.uint64)
        radix_sort(arr, stats=stats)
        assert stats.n == 500
        assert stats.passes == 8
        assert stats.bytes_moved > 0
        assert stats.histogram_ops > 0

    def test_empty_and_single(self):
        assert radix_sort(np.empty(0, dtype=np.uint64)).size == 0
        assert radix_sort(np.array([7], dtype=np.uint64)).tolist() == [7]

    def test_constant_digit_pass_skipped(self):
        """All-equal high bytes: those passes move no data."""
        stats = RadixSortStats()
        arr = np.arange(256, dtype=np.uint64)  # only lowest byte varies
        radix_sort(arr, stats=stats)
        # bytes_moved counted for every pass (model), but result correct.
        assert np.array_equal(radix_sort(arr), arr)

    @pytest.mark.parametrize("bad", [0, 17, -1])
    def test_invalid_digit_bits(self, bad):
        with pytest.raises(ValueError):
            radix_sort(np.array([1], dtype=np.uint64), digit_bits=bad)

    def test_invalid_key_bits(self):
        with pytest.raises(ValueError):
            radix_sort(np.array([1], dtype=np.uint64), key_bits=65)


class TestPasses:
    def test_passes_for_bits(self):
        assert radix_passes_for_bits(64, 8) == 8
        assert radix_passes_for_bits(62, 8) == 8
        assert radix_passes_for_bits(30, 8) == 4
        assert radix_passes_for_bits(0, 8) == 0

    def test_effective_msd_passes(self):
        assert effective_msd_passes(1, 8) == 1
        assert effective_msd_passes(256, 8) == 1
        assert effective_msd_passes(2**16, 8) == 2
        assert effective_msd_passes(2**40, 8) == 5
        assert effective_msd_passes(2**63, 4) == 4  # clamped to worst case

    def test_effective_invalid(self):
        with pytest.raises(ValueError):
            effective_msd_passes(10, 0)


class TestHybridSort:
    @given(uint64_arrays)
    def test_matches_npsort(self, arr):
        assert np.array_equal(hybrid_sort(arr), np.sort(arr))

    def test_small_input_takes_comparison_path(self):
        stats = HybridSortStats()
        hybrid_sort(np.array([3, 2, 1], dtype=np.uint64), stats=stats)
        assert stats.comparison_calls == 1
        assert stats.radix_calls == 0

    def test_presorted_input_skips_radix(self):
        stats = HybridSortStats()
        arr = np.arange(10_000, dtype=np.uint64)
        arr[5000] = 4999  # one inversion, still ~presorted
        hybrid_sort(arr, stats=stats)
        assert stats.presorted_skips == 1
        assert stats.radix_calls == 0

    def test_random_input_takes_radix_path(self):
        stats = HybridSortStats()
        rng = np.random.default_rng(2)
        arr = rng.integers(0, 2**62, size=10_000, dtype=np.uint64)
        hybrid_sort(arr, stats=stats)
        assert stats.radix_calls == 1
        assert stats.radix.n == 10_000


class TestChecks:
    def test_count_descents(self):
        assert count_descents(np.array([3, 1, 2, 0])) == 2

    def test_presortedness_bounds(self):
        assert presortedness(np.arange(100)) == 1.0
        assert presortedness(np.arange(100)[::-1]) == 0.0
