"""Tests for the downstream applications (spectrum, set ops, storage)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.setops import (
    containment,
    intersect,
    jaccard,
    subtract,
    symmetric_difference,
)
from repro.apps.spectrum import (
    estimate_error_rate,
    estimate_genome_size,
    solid_threshold,
    spectrum_features,
)
from repro.apps.store import dump_text, load_counts, load_text, save_counts
from repro.core.result import KmerCounts
from repro.core.serial import serial_count
from repro.seq.genomes import uniform_genome
from repro.seq.readsim import ReadSimConfig, simulate_reads


@pytest.fixture(scope="module")
def sequenced_counts():
    """Counts from a 30 kb genome at 25x with 0.3% errors."""
    genome = uniform_genome(30_000, seed=13)
    reads = simulate_reads(
        genome, ReadSimConfig(read_len=120, coverage=25.0, error_rate=0.003, seed=13)
    )
    return serial_count(reads, 21), 30_000


def kc(pairs, k=5):
    keys = np.array([p[0] for p in pairs], dtype=np.uint64)
    vals = np.array([p[1] for p in pairs], dtype=np.int64)
    return KmerCounts.from_pairs(k, keys, vals)


class TestSpectrum:
    def test_features_locate_valley_and_peak(self, sequenced_counts):
        counts, _ = sequenced_counts
        feats = spectrum_features(counts)
        assert 1 < feats.valley < 15
        # Coverage peak near the 25x sequencing depth (k-mer coverage
        # is slightly below base coverage: c*(L-k+1)/L ~ 20.8).
        assert 15 <= feats.peak <= 26
        assert feats.signal_mass > feats.error_mass

    def test_genome_size_estimate(self, sequenced_counts):
        counts, true_size = sequenced_counts
        est = estimate_genome_size(counts)
        assert abs(est - true_size) / true_size < 0.15

    def test_error_rate_estimate(self, sequenced_counts):
        counts, _ = sequenced_counts
        rate = estimate_error_rate(counts)
        assert 0.001 < rate < 0.01  # true rate 0.003

    def test_solid_threshold(self, sequenced_counts):
        counts, _ = sequenced_counts
        thr = solid_threshold(counts)
        assert thr >= 2
        solid = counts.filter_min_count(thr)
        assert solid.n_distinct < counts.n_distinct

    def test_empty_spectrum(self):
        feats = spectrum_features(KmerCounts.empty(21))
        assert not feats.has_signal
        assert estimate_genome_size(KmerCounts.empty(21)) == 0
        assert estimate_error_rate(KmerCounts.empty(21)) == 0.0


class TestSetOps:
    def test_intersect_modes(self):
        a = kc([(1, 5), (2, 3), (4, 1)])
        b = kc([(2, 7), (4, 2), (9, 1)])
        assert intersect(a, b).to_counter() == {2: 3, 4: 1}
        assert intersect(b, a).to_counter() == {2: 3, 4: 1}

    def test_subtract(self):
        a = kc([(1, 5), (2, 3)])
        b = kc([(2, 1)])
        assert subtract(a, b).to_counter() == {1: 5}
        assert subtract(b, a).n_distinct == 0

    def test_symmetric_difference(self):
        a = kc([(1, 5), (2, 3)])
        b = kc([(2, 7), (9, 1)])
        assert symmetric_difference(a, b).to_counter() == {1: 5, 9: 1}

    def test_similarity_measures(self):
        a = kc([(1, 1), (2, 1), (3, 1)])
        b = kc([(2, 1), (3, 1), (4, 1)])
        assert jaccard(a, b) == pytest.approx(2 / 4)
        assert containment(a, b) == pytest.approx(2 / 3)
        assert jaccard(a, a) == 1.0

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError):
            intersect(kc([(1, 1)], k=5), kc([(1, 1)], k=7))

    def test_empty_operands(self):
        a = kc([(1, 1)])
        e = KmerCounts.empty(5)
        assert intersect(a, e).n_distinct == 0
        assert subtract(a, e) == a
        assert containment(e, a) == 1.0

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 9)), max_size=30),
           st.lists(st.tuples(st.integers(0, 30), st.integers(1, 9)), max_size=30))
    def test_counter_semantics(self, pa, pb):
        a, b = kc(pa), kc(pb)
        ca, cb = a.to_counter(), b.to_counter()
        assert intersect(a, b).to_counter() == ca & cb
        assert subtract(a, b).to_counter() == {key: n for key, n in ca.items()
                                               if key not in cb}

    def test_biological_use_case(self):
        """Shared k-mers between two overlapping genome samples."""
        g = uniform_genome(10_000, seed=3)
        reads_a = simulate_reads(g[:7_000], ReadSimConfig(read_len=100, coverage=10, error_rate=0, seed=1))
        reads_b = simulate_reads(g[3_000:], ReadSimConfig(read_len=100, coverage=10, error_rate=0, seed=2))
        a = serial_count(reads_a, 21)
        b = serial_count(reads_b, 21)
        shared = intersect(a, b)
        # The overlap region (4 kb of 10 kb) shows up as shared k-mers.
        assert 0.2 < containment(a, b) < 0.8
        assert shared.n_distinct > 2_000


class TestStore:
    def test_binary_roundtrip(self, tmp_path, sequenced_counts):
        counts, _ = sequenced_counts
        path = tmp_path / "db.npz"
        save_counts(path, counts, canonical=True)
        back, canonical = load_counts(path)
        assert back == counts
        assert canonical is True

    def test_text_roundtrip(self, tmp_path):
        counts = kc([(1, 5), (7, 2), (30, 9)])
        path = tmp_path / "dump.tsv"
        assert dump_text(path, counts) == 3
        back = load_text(path)
        assert back == counts

    def test_text_format(self, tmp_path):
        counts = kc([(0b0001, 2)], k=4)  # AAAC
        path = tmp_path / "d.tsv"
        dump_text(path, counts)
        assert path.read_text() == "AAAC\t2\n"

    def test_text_malformed(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("ACGT\n")
        with pytest.raises(ValueError, match="malformed"):
            load_text(p)

    def test_text_inconsistent_k(self, tmp_path):
        p = tmp_path / "bad2.tsv"
        p.write_text("ACGT\t1\nACG\t2\n")
        with pytest.raises(ValueError, match="length"):
            load_text(p)

    def test_text_empty_needs_k(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        with pytest.raises(ValueError):
            load_text(p)
