"""Per-tenant metrics: exact histogram merging, SLO grading, deltas."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.tenant.metrics import TenantMetricsSet
from repro.tenant.registry import TenantRegistry, TenantSpec


class TestFractionBelow:
    def test_empty_histogram_attains_everything(self):
        assert LatencyHistogram().fraction_below(0.01) == 1.0

    def test_bounds_and_monotonicity(self):
        h = LatencyHistogram()
        for ms in (1.0, 2.0, 5.0, 50.0):
            h.record(ms * 1e-3)
        lo = h.fraction_below(0.5e-3)
        mid = h.fraction_below(10e-3)
        hi = h.fraction_below(1.0)
        assert 0.0 <= lo <= mid <= hi <= 1.0
        assert hi == 1.0
        # 3 of 4 samples sit well under 10 ms; conservative by at most
        # one bucket, so never over-reports.
        assert mid <= 0.75 + 1e-9
        assert mid >= 0.5

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().fraction_below(-1.0)


class TestMergedMetrics:
    def test_merged_is_bucketwise_sum_of_concurrent_recorders(self):
        """Satellite: per-tenant recorders fold back exactly.

        Interleaved recording emulates concurrent per-tenant writers
        (asyncio interleaves at await points, so interleaving *is* the
        concurrency model); the merged histogram must be bucket-wise
        identical to one histogram that saw every sample.
        """
        tms = TenantMetricsSet()
        oracle = ServeMetrics()
        rng = np.random.default_rng(7)
        tenants = ["a", "b", "c"]
        for i in range(900):
            t = tenants[i % 3]
            lat = float(rng.uniform(1e-4, 5e-2))
            m = tms.get(t)
            m.latency.record(lat)
            oracle.latency.record(lat)
            m.n_queries += 1
            oracle.n_queries += 1
            if i % 5 == 0:
                m.reject(2, "quota" if i % 2 else "shed")
                oracle.reject(2, "quota" if i % 2 else "shed")
        merged = tms.merged()
        assert np.array_equal(merged.latency.counts, oracle.latency.counts)
        assert merged.latency.n == oracle.latency.n
        assert merged.n_queries == 900
        assert merged.rejected == oracle.rejected
        assert merged.rejected_by_cause == oracle.rejected_by_cause
        for q in (0.5, 0.95, 0.99):
            assert merged.latency.quantile(q) == oracle.latency.quantile(q)

    def test_merge_carries_every_counter_a_tenant_carries(self):
        """``merged`` used to drop the batching counters."""
        tms = TenantMetricsSet()
        for i, t in enumerate(("a", "b"), start=1):
            m = tms.get(t)
            m.n_batches, m.batched_keys = i, 10 * i
            m.cache_hits = i
            m.observe_queue_depth(4 * i)
        merged = tms.merged()
        assert (merged.n_batches, merged.batched_keys) == (3, 30)
        assert merged.cache_hits == 3
        assert merged.queue_depth_max == 8 and merged.queue_depth_mean == 6.0

    def test_elapsed_stamped_on_all(self):
        tms = TenantMetricsSet()
        tms.get("a")
        tms.get("b")
        tms.set_elapsed(3.5)
        assert tms.get("a").elapsed == 3.5
        assert tms.get("b").elapsed == 3.5
        assert tms.merged().elapsed == 3.5


class TestSloGrading:
    def make(self):
        reg = TenantRegistry([TenantSpec("gold", slo_ms=10.0),
                              TenantSpec("free")])
        return TenantMetricsSet(reg)

    def test_attainment_from_histogram(self):
        tms = self.make()
        m = tms.get("gold")
        for _ in range(9):
            m.latency.record(1e-3)   # well within 10 ms
        m.latency.record(0.5)        # one gross miss
        att = tms.slo_attainment("gold")
        assert att == pytest.approx(0.9, abs=0.05)

    def test_no_slo_or_no_registry_is_ungraded(self):
        tms = self.make()
        assert tms.slo_attainment("free") is None
        assert tms.slo_attainment("stranger") is None
        assert TenantMetricsSet().slo_attainment("gold") is None

    def test_snapshot_carries_slo_block(self):
        tms = self.make()
        tms.get("gold").latency.record(1e-3)
        tms.get("free").latency.record(1e-3)
        snap = tms.snapshot()
        assert snap["gold"]["slo"] == {"target_ms": 10.0, "attainment": 1.0}
        assert "slo" not in snap["free"]

    def test_membership(self):
        tms = self.make()
        assert "gold" not in tms
        tms.get("gold")
        assert "gold" in tms and list(tms) == ["gold"]
