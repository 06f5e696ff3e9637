"""Tests for de Bruijn graph construction and unitig assembly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.assembly import (
    DeBruijnGraph,
    assemble_unitigs,
    assembly_stats,
    genome_recovery,
)
from repro.apps.spectrum import solid_threshold
from repro.core.result import KmerCounts
from repro.core.serial import serial_count
from repro.seq.encoding import decode_codes, encode_seq
from repro.seq.genomes import uniform_genome
from repro.seq.readsim import ReadSimConfig, simulate_reads


def counts_of(seqs: list[str], k: int) -> KmerCounts:
    return serial_count([encode_seq(s) for s in seqs], k)


class TestGraph:
    def test_linear_path_degrees(self):
        kc = counts_of(["ACGTTG"], 3)  # path ACG -> CGT -> GTT -> TTG
        g = DeBruijnGraph(kc)
        assert g.n_nodes == 4
        assert g.successors_mask(g.kmers).sum() == 3  # three edges
        assert g.predecessors_mask(g.kmers).sum() == 3

    def test_branch_detected(self):
        # ACG extends to CGA and CGT: out-degree 2 at CG*.
        kc = counts_of(["ACGA", "ACGT"], 3)
        g = DeBruijnGraph(kc)
        out_degrees = g.successors_mask(g.kmers).sum(axis=1)
        degrees = dict(zip(g.kmers.tolist(), out_degrees.tolist()))
        from repro.seq.kmers import str_to_kmer

        assert degrees[str_to_kmer("ACG")] == 2

    def test_empty_graph(self):
        g = DeBruijnGraph(KmerCounts.empty(5))
        assert g.n_nodes == 0
        assert assemble_unitigs(KmerCounts.empty(5)) == []


class TestUnitigs:
    def test_single_path_reconstructs_sequence(self):
        seq = "ACGTTGCAATCGG"
        unitigs = assemble_unitigs(counts_of([seq], 4))
        assert len(unitigs) == 1
        assert unitigs[0].seq == seq

    def test_branch_splits_unitigs(self):
        unitigs = assemble_unitigs(counts_of(["AAACGTTT", "CCACGTGG"], 4))
        seqs = {u.seq for u in unitigs}
        # The shared ACGT core forces splits at the branch points.
        assert len(unitigs) >= 3
        assert all(len(s) >= 4 for s in seqs)
        assert "ACGT" in " ".join(seqs)

    def test_cycle_handled(self):
        # A circular sequence: every node internal -> pass 2 covers it.
        seq = "ACGTACGTACG"  # ACGT repeated; k=4 gives a 4-cycle
        unitigs = assemble_unitigs(counts_of([seq], 4))
        total_nodes = counts_of([seq], 4).n_distinct
        visited_nodes = sum(len(u) - 3 for u in unitigs)
        assert visited_nodes == total_nodes

    def test_coverage_annotation(self):
        unitigs = assemble_unitigs(counts_of(["ACGTAC"] * 7, 3))
        assert unitigs[0].mean_coverage == pytest.approx(7.0)

    def test_every_kmer_in_exactly_one_unitig(self):
        """Unitigs partition the k-mer set (no loss, no duplication)."""
        rng = np.random.default_rng(0)
        seqs = ["".join("ACGT"[c] for c in rng.integers(0, 4, 60)) for _ in range(8)]
        kc = counts_of(seqs, 9)
        unitigs = assemble_unitigs(kc)
        from repro.seq.kmers import iter_kmers

        seen: list[int] = []
        for u in unitigs:
            seen.extend(iter_kmers(u.seq, 9))
        assert sorted(set(seen)) == sorted(kc.kmers.tolist())
        assert len(seen) == len(set(seen))


class TestEndToEnd:
    def test_error_filtered_assembly_recovers_genome(self):
        """The full paper pipeline: count -> filter -> assemble."""
        genome = uniform_genome(12_000, seed=21)
        reads = simulate_reads(
            genome, ReadSimConfig(read_len=150, coverage=35.0, error_rate=0.004, seed=21)
        )
        kc = serial_count(reads, 25)
        solid = kc.filter_min_count(solid_threshold(kc))
        unitigs = assemble_unitigs(solid)
        stats = assembly_stats(unitigs)
        recovery = genome_recovery(unitigs, decode_codes(genome), k=25)
        assert recovery > 0.95
        assert stats.n50 > 1_000
        # Without filtering the graph shatters.
        raw_stats = assembly_stats(assemble_unitigs(kc))
        assert raw_stats.n50 < stats.n50
        assert raw_stats.n_unitigs > stats.n_unitigs

    def test_stats_empty(self):
        s = assembly_stats([])
        assert s.n_unitigs == 0 and s.n50 == 0

    def test_recovery_empty_genome(self):
        assert genome_recovery([], "", k=5) == 0.0
