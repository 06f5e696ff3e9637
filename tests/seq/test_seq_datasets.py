"""Tests for the Table V dataset registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.seq.datasets import (
    ALL_SPECS,
    MIN_GENOME_LEN,
    REAL_SPECS,
    SYNTHETIC_SPECS,
    get_spec,
    materialize,
    table5_rows,
)


class TestRegistry:
    def test_counts(self):
        assert len(SYNTHETIC_SPECS) == 13  # Synthetic 20..32
        assert len(REAL_SPECS) == 7
        assert len(ALL_SPECS) == 20

    def test_table5_matches_paper_read_counts(self):
        """Spot-check Table V values from the paper."""
        assert REAL_SPECS["p-aeruginosa"].n_reads == 10_190_262
        assert REAL_SPECS["human"].n_reads == 263_469_656
        assert REAL_SPECS["t-aestivum"].n_reads == 345_818_242
        assert REAL_SPECS["ambystoma"].read_len == 125
        # Synthetic read counts track the paper's within 0.1%.
        assert abs(SYNTHETIC_SPECS["synthetic-20"].n_reads - 349_500) < 500
        assert abs(SYNTHETIC_SPECS["synthetic-32"].n_reads - 1_431_655_750) < 1000

    def test_heavy_flags(self):
        assert REAL_SPECS["human"].heavy
        assert REAL_SPECS["t-aestivum"].heavy
        assert not REAL_SPECS["p-aeruginosa"].heavy
        assert not SYNTHETIC_SPECS["synthetic-30"].heavy

    def test_synthetic_genome_lengths(self):
        for scale in range(20, 33):
            assert SYNTHETIC_SPECS[f"synthetic-{scale}"].genome_len == 2**scale

    def test_get_spec_unknown(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            get_spec("e-coli")

    def test_n_kmers(self):
        spec = SYNTHETIC_SPECS["synthetic-20"]
        assert spec.n_kmers(31) == spec.n_reads * (150 - 31 + 1)
        assert spec.n_kmers(151) == 0

    def test_coverage_of_synthetics(self):
        assert abs(SYNTHETIC_SPECS["synthetic-24"].coverage - 50.0) < 0.1

    def test_table5_rows(self):
        rows = table5_rows()
        assert len(rows) == 20
        assert rows[0]["Data"] == "Synthetic 20"
        assert any(r["Name"] == "Human" for r in rows)


class TestMaterialize:
    def test_scaled_genome_and_coverage(self):
        w = materialize("synthetic-24", fidelity=2**-8, seed=0)
        assert w.genome_len == 2**16
        # Coverage preserved within rounding.
        got_cov = w.n_reads * w.read_len / w.genome_len
        assert abs(got_cov - w.spec.coverage) / w.spec.coverage < 0.01

    def test_min_genome_clamp(self):
        w = materialize("synthetic-20", fidelity=1e-9, seed=0)
        assert w.genome_len == MIN_GENOME_LEN

    def test_deterministic(self):
        a = materialize("synthetic-20", fidelity=2**-9, seed=42)
        b = materialize("synthetic-20", fidelity=2**-9, seed=42)
        assert np.array_equal(a.reads, b.reads)

    def test_seed_changes_data(self):
        a = materialize("synthetic-20", fidelity=2**-9, seed=1)
        b = materialize("synthetic-20", fidelity=2**-9, seed=2)
        assert not np.array_equal(a.reads, b.reads)

    def test_heavy_dataset_has_heavy_kmers(self):
        from repro.seq.kmers import extract_kmers_from_reads

        w = materialize("human", fidelity=1e-5, seed=0)
        kmers = extract_kmers_from_reads(w.reads, 21)
        _, counts = np.unique(kmers, return_counts=True)
        # The repeat tracts must produce far-above-coverage counts.
        assert counts.max() > 20 * w.spec.coverage

    def test_coverage_override(self):
        w = materialize("synthetic-22", fidelity=2**-6, seed=0, coverage=5.0)
        got_cov = w.n_reads * w.read_len / w.genome_len
        assert abs(got_cov - 5.0) < 0.1

    def test_bad_fidelity(self):
        with pytest.raises(ValueError):
            materialize("synthetic-20", fidelity=0)
        with pytest.raises(ValueError):
            materialize("synthetic-20", fidelity=1.5)

    def test_bad_coverage(self):
        with pytest.raises(ValueError):
            materialize("synthetic-20", coverage=-2.0)

    def test_workload_accessors(self):
        w = materialize("synthetic-20", fidelity=2**-8, seed=0)
        assert w.total_bases == w.n_reads * w.read_len
        assert w.n_kmers(31) == w.n_reads * (w.read_len - 30)
