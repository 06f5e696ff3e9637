"""Tests for the radix/hybrid sorting substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sort import hybrid
from repro.sort.checks import count_descents, presortedness
from repro.sort.hybrid import hybrid_sort
from repro.sort.radix import effective_msd_passes, radix_passes_for_bits, radix_sort

uint64_arrays = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=300
).map(lambda xs: np.array(xs, dtype=np.uint64))


class TestRadixSort:
    @given(uint64_arrays)
    def test_matches_npsort(self, arr):
        assert np.array_equal(radix_sort(arr), np.sort(arr))

    def test_matches_npsort_on_a_large_array(self):
        """A digit is a uint8 key: every pass must still be the stable
        counting permutation."""
        rng = np.random.default_rng(8)
        arr = np.concatenate([
            rng.integers(0, 2**64 - 1, size=20_000, dtype=np.uint64, endpoint=True),
            rng.integers(0, 64, size=5_000).astype(np.uint64)])
        rng.shuffle(arr)
        assert np.array_equal(radix_sort(arr), np.sort(arr))

    def test_key_bits_limits_passes(self):
        # Two byte passes order by the low 16 bits only: bit 20 is never read.
        arr = np.array([3 | 1 << 20, 2, 1 << 20], dtype=np.uint64)
        assert radix_sort(arr, key_bits=16).tolist() == [1 << 20, 2, 3 | 1 << 20]

    def test_key_bits_correct_for_masked_keys(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 1 << 30, size=5000, dtype=np.uint64)
        assert np.array_equal(radix_sort(arr, key_bits=30), np.sort(arr))

    def test_input_not_modified(self):
        arr = np.array([3, 1, 2], dtype=np.uint64)
        radix_sort(arr)
        assert arr.tolist() == [3, 1, 2]

    def test_empty_and_single(self):
        assert radix_sort(np.empty(0, dtype=np.uint64)).size == 0
        assert radix_sort(np.array([7], dtype=np.uint64)).tolist() == [7]

    def test_constant_digit_pass_skipped(self):
        """All-equal high bytes: those passes move no data."""
        arr = np.arange(256, dtype=np.uint64)[::-1]  # only lowest byte varies
        assert np.array_equal(radix_sort(arr), arr[::-1])

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

    @pytest.fixture
    def radix_calls(self, monkeypatch):
        """Sizes of the arrays the hybrid hands to the radix sort."""
        calls = []

        def spy(arr, **kwargs):
            calls.append(arr.size)
            return radix_sort(arr, **kwargs)

        monkeypatch.setattr(hybrid, "radix_sort", spy)
        return calls

    def test_small_input_takes_comparison_path(self, radix_calls):
        out = hybrid_sort(np.array([3, 2, 1], dtype=np.uint64))
        assert out.tolist() == [1, 2, 3]
        assert radix_calls == []

    def test_presorted_input_skips_radix(self, radix_calls):
        arr = np.arange(10_000, dtype=np.uint64)
        arr[5000] = 4999  # one inversion, still ~presorted
        assert np.array_equal(hybrid_sort(arr), np.sort(arr))
        assert radix_calls == []

    def test_random_input_takes_radix_path(self, radix_calls):
        rng = np.random.default_rng(2)
        arr = rng.integers(0, 2**62, size=10_000, dtype=np.uint64)
        assert np.array_equal(hybrid_sort(arr), np.sort(arr))
        assert radix_calls == [10_000]


class TestChecks:
    def test_count_descents(self):
        assert count_descents(np.array([3, 1, 2, 0])) == 2

    def test_presortedness_bounds(self):
        assert presortedness(np.arange(100)) == 1.0
        assert presortedness(np.arange(100)[::-1]) == 0.0
