"""End-to-end integration tests across the whole stack.

Every distributed algorithm, on every dataset flavour, must produce the
exact multiset of counts that Algorithm 1 produces — across machines,
granularities, topologies and k values.  This is the repository's
master correctness gate.
"""

from __future__ import annotations

import pytest

from repro import count_kmers
from repro.core.serial import serial_count, serial_count_oracle
from repro.runtime.machine import laptop, phoenix_amd, phoenix_intel
from repro.seq.datasets import materialize
from repro.seq.kmers import extract_kmers_from_reads

DISTRIBUTED = ["dakc", "bsp", "pakman", "pakman*", "hysortk"]


@pytest.fixture(scope="module")
def workloads():
    return {
        "uniform": materialize("synthetic-20", fidelity=2**-8, seed=5),
        "heavy": materialize("human", fidelity=6e-6, seed=5),
        "tiny-genome": materialize("synthetic-20", fidelity=1e-9, seed=5,
                                   coverage=10.0),
    }


class TestCrossAlgorithmAgreement:
    @pytest.mark.parametrize("flavour", ["uniform", "heavy", "tiny-genome"])
    @pytest.mark.parametrize("algorithm", DISTRIBUTED + ["kmc3"])
    def test_agreement_k31(self, workloads, flavour, algorithm):
        w = workloads[flavour]
        ref = serial_count(w.reads, 31)
        run = count_kmers(w.reads, 31, algorithm=algorithm,
                          machine=phoenix_intel(2), pe_granularity="node")
        assert run.counts == ref, run.counts.diff(ref)

    @pytest.mark.parametrize("k", [4, 16, 32])
    def test_agreement_k_sweep(self, workloads, k):
        w = workloads["uniform"]
        ref = serial_count(w.reads, k)
        for algorithm in ("dakc", "hysortk"):
            run = count_kmers(w.reads, k, algorithm=algorithm,
                              machine=laptop(nodes=2, cores=4))
            assert run.counts == ref

    def test_oracle_anchoring(self, workloads):
        """The vectorised serial counter itself is anchored to a
        string-level Counter oracle on a subset."""
        w = workloads["uniform"]
        sub = w.reads[:25]
        assert serial_count(sub, 13) == serial_count_oracle(sub, 13)

    def test_amd_machine(self, workloads):
        w = workloads["uniform"]
        ref = serial_count(w.reads, 21)
        run = count_kmers(w.reads, 21, algorithm="dakc",
                          machine=phoenix_amd(1), pe_granularity="socket")
        assert run.counts == ref


class TestPaperHeadlineClaims:
    """The qualitative results the paper leads with, at replica scale."""

    def test_dakc_three_syncs_vs_bsp_growth(self, workloads):
        w = workloads["uniform"]
        d = count_kmers(w.reads, 31, algorithm="dakc", machine=laptop(2, 4))
        b = count_kmers(w.reads, 31, algorithm="bsp", machine=laptop(2, 4),
                        batch_size=2000)
        assert d.stats.global_syncs == 3
        assert b.stats.global_syncs > 3

    def test_dakc_beats_bsp_baselines(self):
        """Who-wins, on a mid-size replica at 8 nodes."""
        from repro.bench.harness import run_point
        from repro.bench.workloads import build_workload

        w = build_workload("synthetic-26", 31, budget_kmers=200_000)
        d = run_point("dakc", w, 31, nodes=8)
        p = run_point("pakman*", w, 31, nodes=8)
        h = run_point("hysortk", w, 31, nodes=8)
        assert d.sim_time < h.sim_time < p.sim_time

    def test_heavy_hitter_l3_speedup(self):
        """Fig. 12's core claim: on heavy-hitter data, the L3 layer
        speeds DAKC up; on uniform data it does not slow it much."""
        from repro.bench.harness import run_point
        from repro.bench.workloads import build_workload
        from repro.core.l2l3 import AggregationConfig

        wh = build_workload("human", 31, budget_kmers=200_000)
        on = run_point("dakc", wh, 31, nodes=8, pe_granularity="core",
                       agg=AggregationConfig(enable_l3=True),
                       enforce_oom_gate=False)
        off = run_point("dakc", wh, 31, nodes=8, pe_granularity="core",
                        agg=AggregationConfig(enable_l3=False),
                        enforce_oom_gate=False)
        assert on.sim_time < off.sim_time
        assert on.receive_imbalance < off.receive_imbalance

    def test_strong_scaling_monotone_until_limit(self):
        from repro.bench.harness import run_point
        from repro.bench.workloads import build_workload

        w = build_workload("synthetic-27", 31, budget_kmers=300_000)
        times = [run_point("dakc", w, 31, nodes=n).sim_time for n in (1, 2, 4, 8)]
        assert times[0] > times[1] > times[2] > times[3]


class TestDataPipeline:
    def test_fastq_roundtrip_counting(self, tmp_path, workloads):
        """FASTQ write -> read -> count == in-memory count."""
        from repro.seq.fastx import write_fastq
        from repro.seq.readsim import reads_to_records

        w = workloads["uniform"]
        sub = w.reads[:40]
        path = tmp_path / "roundtrip.fastq"
        write_fastq(path, reads_to_records(sub))
        ref = serial_count(sub, 15)
        run = count_kmers(str(path), 15, algorithm="serial")
        assert run.counts == ref

    def test_total_kmer_conservation(self, workloads):
        w = workloads["uniform"]
        kc = serial_count(w.reads, 31)
        assert kc.total == extract_kmers_from_reads(w.reads, 31).size
