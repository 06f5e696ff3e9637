"""Tests for benchmarks/_common.py: the repetition-policy plumbing,
artifact provenance stamping, and the hardened speedup-cell parser."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parents[2]
sys.path.insert(0, str(REPO / "benchmarks"))

import _common  # noqa: E402
from _common import parse_speedup, run_and_record  # noqa: E402


class FakeBenchmark:
    """Mimics pytest-benchmark's pedantic() and records its policy."""

    def __init__(self):
        self.calls = []

    def pedantic(self, fn, rounds=1, iterations=1, warmup_rounds=0):
        self.calls.append(
            {"rounds": rounds, "iterations": iterations,
             "warmup_rounds": warmup_rounds})
        out = None
        for _ in range(warmup_rounds + rounds):
            out = fn()
        return out


class FakeResult:
    def render(self):
        return "exp_id  col\nrow     1.0\n"


class TestParseSpeedup:
    @pytest.mark.parametrize("cell,expected", [
        ("2.35x", 2.35),
        ("1x", 1.0),
        ("0.5", 0.5),
        ("1e-3x", 1e-3),
        ("  3.0x  ", 3.0),
        ("-1.5x", -1.5),
    ])
    def test_valid_cells(self, cell, expected):
        assert parse_speedup(cell) == pytest.approx(expected)

    def test_dash_is_nan(self):
        assert math.isnan(parse_speedup("-"))

    @pytest.mark.parametrize("cell", ["fast", "", "2.3.4", "x", "2,35x",
                                      "3x faster", "nanx"])
    def test_malformed_cells_are_loud(self, cell):
        with pytest.raises(ValueError, match="malformed speedup cell"):
            parse_speedup(cell)

    @pytest.mark.parametrize("cell", [2.35, None, ["2.35x"]])
    def test_non_string_is_a_type_error(self, cell):
        with pytest.raises(TypeError, match="must be a string"):
            parse_speedup(cell)


class TestRunAndRecord:
    @pytest.fixture
    def patched(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
        monkeypatch.setattr(_common, "run_experiment",
                            lambda exp_id, **kw: FakeResult())
        return tmp_path

    def test_policy_threads_through_to_pedantic(self, patched):
        bench = FakeBenchmark()
        run_and_record(bench, "fake-exp", rounds=3, iterations=2,
                       warmup_rounds=1)
        assert bench.calls == [
            {"rounds": 3, "iterations": 2, "warmup_rounds": 1}]

    def test_single_round_is_still_the_default(self, patched):
        bench = FakeBenchmark()
        run_and_record(bench, "fake-exp")
        assert bench.calls == [
            {"rounds": 1, "iterations": 1, "warmup_rounds": 0}]

    def test_artifact_gains_provenance_footer(self, patched):
        run_and_record(FakeBenchmark(), "fake-exp", rounds=2)
        text = (patched / "fake-exp.txt").read_text()
        assert text.startswith("exp_id")  # rendered rows come first
        assert "# --- provenance ---" in text
        assert "rounds=2" in text and "warmup_rounds=0" in text
        assert "# git:" in text and "# timestamp:" in text
