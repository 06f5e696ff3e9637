"""Tests for the analytical model, footprints and roofline (Sec. V/VII)."""

from __future__ import annotations

import pytest

from repro.model.analytical import cache_miss_model, predict
from repro.model.footprints import (
    HYSORTK_MAX_KMERS,
    check_fits,
    footprint_bytes_per_node,
)
from repro.model.params import (
    DEFAULT_C1,
    DEFAULT_C2,
    DEFAULT_C3,
    HEAVY_THRESHOLD,
    table4_params,
    table4_rows,
)
from repro.model.roofline import (
    H100_BALANCE,
    hardware_balance,
    operational_intensity,
    roofline_point,
)
from repro.model.validation import validate_workload
from repro.runtime.machine import phoenix_intel
from repro.runtime.memory import OutOfMemoryError
from repro.seq.datasets import get_spec, materialize


class TestAnalytical:
    def test_equation9_compute(self):
        """T_comp^1 = n(m-k+1)/(P*C_node)."""
        m = phoenix_intel(8)
        pred = predict(n=1_000_000, m=150, k=31, machine=m)
        n_kmers = 1_000_000 * 120
        assert pred.phase1.t_comp == pytest.approx(n_kmers / (8 * m.c_node))

    def test_equation11_internode(self):
        """T_inter^1 = n(m-k+1)*2^ceil(log2 2k)/(4*P*beta_link)."""
        m = phoenix_intel(8)
        pred = predict(n=1_000_000, m=150, k=31, machine=m)
        n_kmers = 1_000_000 * 120
        assert pred.phase1.t_inter == pytest.approx(
            n_kmers * 64 / (4 * 8 * m.beta_link)
        )

    def test_equation12_phase2_compute(self):
        m = phoenix_intel(8)
        pred = predict(n=1_000_000, m=150, k=31, machine=m)
        n_kmers = 1_000_000 * 120
        assert pred.phase2.t_comp == pytest.approx(n_kmers * 64 / (8 * 8 * m.c_node))

    def test_sum_vs_max_model(self):
        pred = predict(n=100_000, m=150, k=31, machine=phoenix_intel(4))
        assert pred.phase1.t_comm_sum >= pred.phase1.t_comm_max
        assert pred.t_total("sum") >= pred.t_total("max")

    def test_total_is_phase_sum(self):
        """Eq. 18: the inter-phase barrier forbids overlap."""
        pred = predict(n=100_000, m=150, k=31, machine=phoenix_intel(4))
        assert pred.t_total("sum") == pytest.approx(
            pred.phase1.total("sum") + pred.phase2.total("sum")
        )

    def test_scaling_in_nodes(self):
        """Everything in the model is embarrassingly 1/P."""
        p1 = predict(n=10**6, m=150, k=31, machine=phoenix_intel(1))
        p8 = predict(n=10**6, m=150, k=31, machine=phoenix_intel(8))
        assert p8.t_total("sum") < p1.t_total("sum")

    def test_width_dependence(self):
        """k=15 stores in 32 bits: half the bytes of k=31 -> cheaper."""
        small = predict(n=10**6, m=150, k=15, machine=phoenix_intel(8))
        large = predict(n=10**6, m=150, k=17, machine=phoenix_intel(8))
        assert small.phase1.t_inter < large.phase1.t_inter

    def test_breakdown_fig5_shape(self):
        """Fig. 5: compute is a small share, data movement dominates."""
        spec = get_spec("synthetic-30")
        pred = predict(spec.n_reads, spec.read_len, 31, phoenix_intel(32))
        shares = pred.breakdown("sum")
        assert shares["compute"] < 0.10
        assert shares["intranode"] + shares["internode"] > 0.90
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_cache_miss_model_linear_in_data(self):
        p1a, p2a = cache_miss_model(1000, 150, 31, 8, 64)
        p1b, p2b = cache_miss_model(2000, 150, 31, 8, 64)
        assert p1b == pytest.approx(2 * p1a, rel=0.01)
        assert p2b == pytest.approx(2 * p2a, rel=0.01)

    def test_invalid_nodes(self):
        """A machine of no nodes is refused before the model sees it."""
        with pytest.raises(ValueError):
            predict(n=10, m=150, k=31, machine=phoenix_intel(1).with_nodes(0))


class TestRoofline:
    def test_paper_intensity_value(self):
        """Section VII: ~0.12 iadd64/B, one add per ~8.14 bytes."""
        oi = operational_intensity(n=10**6, m=150, k=31)
        assert oi == pytest.approx(0.123, abs=0.003)
        assert 1 / oi == pytest.approx(8.14, abs=0.1)

    def test_paper_balance_values(self):
        assert hardware_balance(phoenix_intel(1)) == pytest.approx(2.6, abs=0.05)
        assert H100_BALANCE == 8.3

    def test_memory_bound_classification(self):
        """KC is memory-bound on CPU and would be even more so on GPU."""
        point = roofline_point(10**6, 150, 31)
        assert point.bound == "memory"
        assert point.compute_utilisation < 0.1

    def test_empty_workload(self):
        assert operational_intensity(0, 150, 31) == 0.0


class TestFootprints:
    def test_fig8_pakman_oom_pattern(self):
        """Fig. 8: PakMan* OOM at 16 & 32 nodes, fits at 64+."""
        spec = get_spec("synthetic-32")
        for nodes, ok in ((16, False), (32, False), (64, True), (128, True), (256, True)):
            m = phoenix_intel(nodes)
            if ok:
                check_fits("pakman*", spec, 31, m, nodes)
            else:
                with pytest.raises(OutOfMemoryError):
                    check_fits("pakman*", spec, 31, m, nodes)

    def test_fig8_hysortk_never_runs_s32(self):
        spec = get_spec("synthetic-32")
        for nodes in (16, 64, 256):
            with pytest.raises(OutOfMemoryError):
                check_fits("hysortk", spec, 31, phoenix_intel(nodes), nodes)

    def test_hysortk_runs_s31(self):
        spec = get_spec("synthetic-31")
        assert spec.n_kmers(31) < HYSORTK_MAX_KMERS
        check_fits("hysortk", spec, 31, phoenix_intel(32), 32)

    def test_dakc_runs_s32_everywhere_fig8(self):
        spec = get_spec("synthetic-32")
        for nodes in (16, 32, 64, 128, 256):
            check_fits("dakc", spec, 31, phoenix_intel(nodes), nodes)

    def test_footprint_decreases_with_nodes(self):
        spec = get_spec("synthetic-30")
        f16 = footprint_bytes_per_node("dakc", spec, 31, 16)
        f64 = footprint_bytes_per_node("dakc", spec, 31, 64)
        assert f64 < f16

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            footprint_bytes_per_node("magic", get_spec("synthetic-20"), 31, 4)


class TestParams:
    def test_table3_defaults(self):
        assert (DEFAULT_C1, DEFAULT_C2, DEFAULT_C3) == (1024, 32, 10_000)
        assert HEAVY_THRESHOLD == 2

    def test_table4_values(self):
        p = table4_params()
        assert p.c_node == pytest.approx(121.9e9)
        assert p.l == 64

    def test_table4_rows_render(self):
        rows = table4_rows()
        assert len(rows) == 5
        assert rows[0]["Value"] == "121.9 GOp/s"


class TestValidation:
    @pytest.fixture(scope="class")
    def row(self):
        w = materialize("synthetic-22", fidelity=2**-6, seed=0, coverage=2)
        row, stats, pred = validate_workload(w, 31, phoenix_intel(8))
        return row

    def test_fig3_phase1_misses_close(self, row):
        """Fig. 3: measured P1 misses track the model closely."""
        assert 0.8 <= row.miss_ratio_p1 <= 1.5

    def test_fig3_phase2_model_overestimates(self, row):
        """Fig. 3: worst-case radix model >= measured."""
        assert row.miss_ratio_p2 <= 1.0

    def test_fig4_same_ballpark(self, row):
        """Fig. 4: times within ~3x of the model."""
        assert 0.33 <= row.measured_t1 / row.predicted_t1_sum <= 3.0
        assert 0.2 <= row.measured_t2 / row.predicted_t2 <= 3.0


class TestScalingCurve:
    def test_model_tracks_simulation_across_nodes(self):
        """Whole-curve validation: the analytical model's strong-scaling
        curve must correlate strongly with the simulated one."""
        from repro.model.validation import scaling_curve_agreement

        w = materialize("synthetic-24", fidelity=2**-7, seed=0, coverage=4)
        measured, predicted, corr = scaling_curve_agreement(
            w, 31, phoenix_intel(1), [1, 2, 4, 8, 16]
        )
        assert measured.shape == predicted.shape == (5,)
        assert (measured > 0).all() and (predicted > 0).all()
        assert corr > 0.95
        # Both curves must actually scale down.
        assert measured[-1] < measured[0]
        assert predicted[-1] < predicted[0]
