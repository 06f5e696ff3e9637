"""Tests for the execution tracer and Gantt rendering."""

from __future__ import annotations

import pytest

from repro.core.bsp import BspConfig, bsp_count
from repro.core.dakc import dakc_count
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.runtime.trace import Span, Tracer, render_gantt, to_chrome_trace


class TestTracer:
    def test_record_and_total(self):
        tr = Tracer()
        tr.record(0, 0.0, 1.0, "compute")
        tr.record(1, 0.5, 2.0, "memory")
        assert tr.total_time() == 2.0
        assert len(tr.spans) == 2

    def test_zero_length_spans_dropped(self):
        tr = Tracer()
        tr.record(0, 1.0, 1.0, "compute")
        assert not tr.spans

    def test_disabled(self):
        tr = Tracer(enabled=False)
        tr.record(0, 0.0, 1.0, "compute")
        assert not tr.spans

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            Span(0, 2.0, 1.0, "compute")

    def test_busy_fraction(self):
        tr = Tracer()
        tr.record(0, 0.0, 6.0, "compute")
        tr.record(0, 6.0, 10.0, "wait")
        assert tr.busy_fraction(0) == pytest.approx(0.6)
        assert tr.busy_fraction(5) == 0.0


class TestGantt:
    def test_empty(self):
        assert "empty" in render_gantt(Tracer())

    def test_rows_and_glyphs(self):
        tr = Tracer()
        tr.record(0, 0.0, 5.0, "compute")
        tr.record(1, 5.0, 10.0, "send")
        out = render_gantt(tr, width=40)
        lines = out.splitlines()
        assert lines[1].startswith("PE  0")
        assert "#" in lines[1]
        assert ">" in lines[2]

    def test_barrier_renders_on_top(self):
        tr = Tracer()
        tr.record(0, 0.0, 10.0, "compute")
        tr.record(0, 9.0, 10.0, "barrier")
        out = render_gantt(tr, width=20)
        assert out.splitlines()[1].rstrip().endswith("|")


class TestChromeTrace:
    def _trace(self) -> Tracer:
        tr = Tracer()
        tr.record(0, 0.0, 1.5, "compute")
        tr.record(1, 0.5, 2.0, "send")
        tr.record(0, 1.5, 2.0, "barrier")
        return tr

    def test_document_shape(self):
        import json

        doc = json.loads(to_chrome_trace(self._trace()))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert all({"name", "ph", "pid", "tid"} <= set(e) for e in events)

    def test_duration_events_map_spans(self):
        import json

        doc = json.loads(to_chrome_trace(self._trace()))
        durs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(durs) == 3
        compute = next(e for e in durs if e["name"] == "compute")
        assert compute["tid"] == 0
        assert compute["ts"] == pytest.approx(0.0)
        assert compute["dur"] == pytest.approx(1.5e6)  # seconds -> us
        send = next(e for e in durs if e["name"] == "send")
        assert send["tid"] == 1
        assert send["ts"] == pytest.approx(0.5e6)
        # Events arrive sorted by start time (viewer-friendly).
        assert [e["ts"] for e in durs] == sorted(e["ts"] for e in durs)

    def test_metadata_names_process_and_threads(self):
        import json

        doc = json.loads(to_chrome_trace(self._trace()))
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "simulated machine" in names
        assert {"PE 0", "PE 1"} <= names

    def test_empty_trace_is_valid_json(self):
        import json

        doc = json.loads(to_chrome_trace(Tracer()))
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]  # process name only


class TestIntegration:
    def test_dakc_run_produces_trace(self, small_reads):
        tr = Tracer()
        cost = CostModel(laptop(nodes=2, cores=2), tracer=tr)
        dakc_count(small_reads, 21, cost)
        kinds = {s.kind for s in tr.spans}
        assert {"compute", "memory", "barrier"} <= kinds
        assert tr.total_time() > 0
        out = render_gantt(tr)
        assert out.count("PE") == 4

    def test_bsp_shows_more_barrier_walls(self, small_reads):
        """BSP's per-superstep synchronisation shows up as more barrier
        glyphs than DAKC's three."""
        tr_d = Tracer()
        dakc_count(small_reads, 21, CostModel(laptop(2, 2), tracer=tr_d))
        tr_b = Tracer()
        bsp_count(small_reads, 21, CostModel(laptop(2, 2), tracer=tr_b),
                  BspConfig(batch_size=500))
        barriers_d = sum(1 for s in tr_d.spans if s.kind == "barrier")
        assert barriers_d == 3 * 4  # 3 syncs x 4 PEs
        # BSP's supersteps go through alltoallv (traced as memory/wait
        # activity), still bracketed by its two explicit barriers.
        barriers_b = sum(1 for s in tr_b.spans if s.kind == "barrier")
        assert barriers_b == 2 * 4
