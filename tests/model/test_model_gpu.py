"""Tests for the GPU projection (Section VII's accelerator analysis)."""

from __future__ import annotations

import pytest

from repro.model.gpu import A100, H100, Accelerator, project_speedup
from repro.model.roofline import operational_intensity
from repro.runtime.machine import phoenix_intel
from repro.seq.datasets import get_spec


class TestAccelerators:
    def test_h100_balance_matches_paper(self):
        """Section VII quotes ~8.3 iadd64/byte for the H100."""
        assert H100.balance == pytest.approx(8.3, abs=0.2)

    def test_a100_balance(self):
        assert 4.0 < A100.balance < 6.0


class TestProjection:
    @pytest.fixture(scope="class")
    def proj(self):
        spec = get_spec("synthetic-30")
        return project_speedup(spec.n_reads, spec.read_len, 31, H100)

    def test_workload_stays_bandwidth_bound(self, proj):
        """The paper's conclusion: KC is bandwidth-bound even on an
        H100, so GPU compute units would idle harder than the CPU's."""
        assert proj.bandwidth_bound
        assert proj.compute_utilisation < 0.05

    def test_speedup_bounded_by_bandwidth_ratio(self, proj):
        machine = phoenix_intel(32)
        bw_ratio = H100.mem_bw / machine.beta_mem
        assert 1.0 < proj.total_speedup <= bw_ratio + 1e-9

    def test_internode_limits_gpu_gain(self, proj):
        """Phase 1's NIC traffic does not accelerate, capping the
        end-to-end win well below the raw ~70x bandwidth ratio."""
        assert proj.total_speedup < 25

    def test_a100_weaker_than_h100(self):
        spec = get_spec("synthetic-30")
        h = project_speedup(spec.n_reads, spec.read_len, 31, H100)
        a = project_speedup(spec.n_reads, spec.read_len, 31, A100)
        assert a.total_speedup < h.total_speedup

    def test_intensity_consistent_with_roofline(self, proj):
        spec = get_spec("synthetic-30")
        assert proj.workload_intensity == pytest.approx(
            operational_intensity(spec.n_reads, spec.read_len, 31)
        )

    def test_custom_accelerator(self):
        """A bandwidth-poor accelerator cannot speed anything up."""
        slow = Accelerator("potato", mem_bw=10e9, int64_ops=100e12)
        spec = get_spec("synthetic-28")
        proj = project_speedup(spec.n_reads, spec.read_len, 31, slow)
        assert proj.total_speedup < 1.0
