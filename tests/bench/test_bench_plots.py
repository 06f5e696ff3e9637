"""Tests for the ASCII chart renderer."""

from __future__ import annotations


import pytest

from repro.bench.plots import ascii_chart, scaling_chart


class TestAsciiChart:
    def test_basic_structure(self):
        out = ascii_chart({"a": [(1, 1), (10, 10)]})
        lines = out.splitlines()
        assert lines[0] == "log-log scaling (lower is better)"
        assert any("o" in l for l in lines)  # marker drawn
        assert "o a" in lines[-1]  # legend

    def test_multiple_series_distinct_markers(self):
        out = ascii_chart({"a": [(1, 1)], "b": [(2, 2)]})
        assert "o a" in out and "x b" in out

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_chart({"a": [(0, 1)]})

    def test_empty(self):
        assert ascii_chart({}) == "(no data)\n"


class TestScalingChart:
    def test_skips_nan_points(self):
        curves = {"dakc": {1: 1.0, 2: 0.5}, "pakman": {1: float("nan"), 2: 2.0}}
        out = scaling_chart(curves)
        assert "dakc" in out and "pakman" in out

    def test_monotone_curve_renders_descending(self):
        curves = {"dakc": {2**i: 1.0 / 2**i for i in range(6)}}
        out = scaling_chart(curves)
        rows = [l for l in out.splitlines() if l.startswith("  |")]
        first_marker_cols = [l.index("o") for l in rows if "o" in l]
        # Strong scaling: markers step rightward as we go down (time falls).
        assert first_marker_cols == sorted(first_marker_cols)
