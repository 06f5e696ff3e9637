"""Tests for genome generation and read simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.seq.encoding import decode_codes, encode_seq
from repro.seq.genomes import HUMAN_CENTROMERIC_REPEAT, RepeatSpec, repeat_genome, uniform_genome
from repro.seq.kmers import extract_kmers
from repro.seq.readsim import ReadSimConfig, coverage_to_n_reads, reads_to_records, simulate_reads


class TestUniformGenome:
    def test_length_and_codes(self):
        g = uniform_genome(10_000, seed=0)
        assert g.size == 10_000
        assert g.max() <= 3

    def test_deterministic(self):
        assert np.array_equal(uniform_genome(500, seed=1), uniform_genome(500, seed=1))

    def test_roughly_uniform(self):
        g = uniform_genome(100_000, seed=2)
        freq = np.bincount(g, minlength=4) / g.size
        assert np.allclose(freq, 0.25, atol=0.02)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            uniform_genome(-1)

    def test_zero_length(self):
        assert uniform_genome(0).size == 0


class TestRepeatGenome:
    def test_contains_repeat_unit(self):
        g = repeat_genome(20_000, RepeatSpec(fraction=0.2, n_tracts=2),
                          rng=np.random.default_rng(0))
        s = decode_codes(g)
        assert HUMAN_CENTROMERIC_REPEAT * 10 in s

    def test_heavy_hitters_in_spectrum(self):
        """Repeat genomes must produce high-count k-mers (the paper's
        heavy hitters); a uniform genome of the same size must not."""
        k = 15
        rep = repeat_genome(30_000, RepeatSpec(fraction=0.2, n_tracts=2),
                            rng=np.random.default_rng(1))
        uni = uniform_genome(30_000, seed=1)
        rep_k = extract_kmers(rep, k)
        uni_k = extract_kmers(uni, k)
        _, rep_counts = np.unique(rep_k, return_counts=True)
        _, uni_counts = np.unique(uni_k, return_counts=True)
        assert rep_counts.max() > 100
        assert uni_counts.max() < 10

    def test_zero_fraction(self):
        g = repeat_genome(5_000, RepeatSpec(fraction=0.0), rng=np.random.default_rng(0))
        assert g.size == 5_000

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            RepeatSpec(fraction=1.5)
        with pytest.raises(ValueError):
            RepeatSpec(unit="")
        with pytest.raises(ValueError):
            RepeatSpec(n_tracts=0)


class TestReadSim:
    def test_shape(self):
        g = uniform_genome(5_000, seed=0)
        reads = simulate_reads(g, ReadSimConfig(read_len=100, n_reads=50, seed=0))
        assert reads.shape == (50, 100)

    def test_reads_are_genome_substrings_when_errorfree(self):
        g = uniform_genome(2_000, seed=3)
        s = decode_codes(g)
        reads = simulate_reads(g, ReadSimConfig(read_len=50, n_reads=20, error_rate=0.0, seed=3))
        for row in reads:
            assert decode_codes(row) in s

    def test_coverage_determines_read_count(self):
        g = uniform_genome(15_000, seed=1)
        reads = simulate_reads(g, ReadSimConfig(read_len=100, coverage=10.0, seed=1))
        assert reads.shape[0] == coverage_to_n_reads(15_000, 100, 10.0) == 1500

    def test_error_rate_perturbs(self):
        g = uniform_genome(2_000, seed=5)
        clean = simulate_reads(g, ReadSimConfig(read_len=100, n_reads=100, error_rate=0.0, seed=5))
        noisy = simulate_reads(g, ReadSimConfig(read_len=100, n_reads=100, error_rate=0.05, seed=5))
        frac = (clean != noisy).mean()
        assert 0.02 < frac < 0.09  # ~5% substitutions

    def test_errors_never_silent(self):
        """A substitution must change the base (never code -> same code)."""
        g = uniform_genome(1_000, seed=6)
        rng = np.random.default_rng(6)
        cfg = ReadSimConfig(read_len=100, n_reads=200, error_rate=0.5, seed=6)
        reads = simulate_reads(g, cfg, rng=rng)
        assert reads.max() <= 3

    def test_genome_shorter_than_read(self):
        g = uniform_genome(10, seed=0)
        reads = simulate_reads(g, ReadSimConfig(read_len=100, n_reads=5, seed=0))
        assert reads.shape == (0, 100)

    def test_records(self):
        g = uniform_genome(500, seed=0)
        reads = simulate_reads(g, ReadSimConfig(read_len=40, n_reads=3, seed=0))
        recs = reads_to_records(reads)
        assert len(recs) == 3
        assert all(len(r.seq) == 40 and len(r.qual) == 40 for r in recs)
        assert np.array_equal(encode_seq(recs[0].seq), reads[0])

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ReadSimConfig(read_len=0)
        with pytest.raises(ValueError):
            ReadSimConfig(error_rate=1.5)
        with pytest.raises(ValueError):
            ReadSimConfig(coverage=-1, n_reads=None)
