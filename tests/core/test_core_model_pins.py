"""Model-output pins for every simulated counter (parent-commit literals).

`small_reads`, 8 PEs on 2 laptop nodes: each counter's run is a fixed
function of the seed.  The literals below were produced by the commit
*before* the counters were ported onto ``repro.core.phases`` (style of
``test_core_minipart.py::TestPinnedRun``); a refactor of the shared
prologue / split / parse / bucket / epilogue must leave every one of
them — counts, both clocks, PUTs, wire bytes, syncs, cache misses and
the peak buffer — exactly as it found them.  Do not edit the table to
make a change pass.
"""

from __future__ import annotations

import pytest

from repro.baselines.kmc3 import kmc3_count
from repro.core.bsp import BspConfig, bsp_count
from repro.core.dakc import DakcConfig, dakc_count, dakc_count_big
from repro.core.minipart import minimizer_partitioned_count
from repro.core.serial import serial_count, serial_count_oracle
from repro.core.sortedset import dakc_overlap_count
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop

from dakc_reference import dakc_count_reference

K = 21
BIG_K = 41


def _cost() -> CostModel:
    return CostModel(laptop(nodes=2, cores=4))


def _dakc(**kw):
    return lambda reads, canonical: dakc_count(
        reads, K, _cost(), DakcConfig(canonical=canonical, **kw))


def _bsp(**kw):
    return lambda reads, canonical: bsp_count(
        reads, K, _cost(), BspConfig(canonical=canonical, **kw))


COUNTERS = {
    "dakc-1d": _dakc(),
    "dakc-2d": _dakc(protocol="2D"),
    "dakc-exact": lambda reads, canonical: dakc_count_reference(
        reads, K, _cost(), DakcConfig(canonical=canonical)),
    "dakc-overlap": lambda reads, canonical: dakc_overlap_count(
        reads, K, _cost(), DakcConfig(canonical=canonical)),
    "bsp-blocking": _bsp(batch_size=500),
    "bsp-nonblocking": _bsp(batch_size=500, blocking=False),
    "bsp-preaccumulate": _bsp(batch_size=500, preaccumulate=True),
    "bsp-quicksort": _bsp(sort="quicksort"),
    "minimizer": lambda reads, canonical: minimizer_partitioned_count(
        reads, K, _cost(), canonical=canonical),
    "kmc3": lambda reads, canonical: kmc3_count(
        reads, K, laptop(nodes=2, cores=4), canonical=canonical),
    "big-k": lambda reads, canonical: dakc_count_big(
        reads, BIG_K, _cost(), canonical=canonical),
}


def observe(counts, stats) -> tuple:
    return (
        counts.n_distinct, counts.total, stats.sim_time, stats.phase1_time,
        stats.total_puts, stats.total_bytes_sent, stats.global_syncs,
        stats.total("cache_misses_p1"), stats.total("cache_misses_p2"),
        stats.peak_buffer_bytes_per_pe,
    )


# (counter, canonical, layout) -> (n_distinct, total, sim_time,
# phase1_time, total_puts, total_bytes_sent, global_syncs,
# cache_misses_p1, cache_misses_p2, peak_buffer_bytes_per_pe)
PINS = {
    ('dakc-1d', False, 'matrix'): (
        4740, 16000, 5.20484e-05, 3.2450373333333326e-05,
        32, 62832, 3, 2286, 5691, 16088),
    ('dakc-1d', False, 'list'): (
        4740, 16000, 5.20484e-05, 3.2450373333333326e-05,
        32, 62832, 3, 2286, 5691, 16088),
    ('dakc-1d', True, 'matrix'): (
        4740, 16000, 5.1381786666666665e-05, 3.205469333333332e-05,
        32, 62600, 3, 2287, 5691, 15776),
    ('dakc-1d', True, 'list'): (
        4740, 16000, 5.1381786666666665e-05, 3.205469333333332e-05,
        32, 62600, 3, 2287, 5691, 15776),
    ('dakc-2d', False, 'matrix'): (
        4740, 16000, 5.877778666666667e-05, 3.917976e-05,
        32, 84016, 3, 2286, 5691, 16088),
    ('dakc-2d', False, 'list'): (
        4740, 16000, 5.877778666666667e-05, 3.917976e-05,
        32, 84016, 3, 2286, 5691, 16088),
    ('dakc-2d', True, 'matrix'): (
        4740, 16000, 5.866317333333334e-05, 3.9336079999999996e-05,
        32, 83652, 3, 2287, 5691, 15776),
    ('dakc-2d', True, 'list'): (
        4740, 16000, 5.866317333333334e-05, 3.9336079999999996e-05,
        32, 83652, 3, 2287, 5691, 15776),
    ('dakc-exact', False, 'matrix'): (
        4740, 16000, 4.526680000000001e-05, 2.5668773333333337e-05,
        32, 62832, 3, 0, 5691, 16088),
    ('dakc-exact', False, 'list'): (
        4740, 16000, 4.526680000000001e-05, 2.5668773333333337e-05,
        32, 62832, 3, 0, 5691, 16088),
    ('dakc-exact', True, 'matrix'): (
        4740, 16000, 4.466253333333335e-05, 2.533544000000001e-05,
        32, 62600, 3, 0, 5691, 15776),
    ('dakc-exact', True, 'list'): (
        4740, 16000, 4.466253333333335e-05, 2.533544000000001e-05,
        32, 62600, 3, 0, 5691, 15776),
    ('dakc-overlap', False, 'matrix'): (
        4740, 16000, 5.043163588737194e-05, 4.195942255403861e-05,
        32, 62832, 2, 320, 888, 14160),
    ('dakc-overlap', False, 'list'): (
        4740, 16000, 5.043163588737194e-05, 4.195942255403861e-05,
        32, 62832, 2, 320, 888, 14160),
    ('dakc-overlap', True, 'matrix'): (
        4740, 16000, 4.933568804988359e-05, 4.117203232457206e-05,
        32, 62600, 2, 320, 861, 14008),
    ('dakc-overlap', True, 'list'): (
        4740, 16000, 4.933568804988359e-05, 4.117203232457206e-05,
        32, 62600, 2, 320, 861, 14008),
    ('bsp-blocking', False, 'matrix'): (
        4740, 16000, 0.00010674051555555556, 8.644035555555557e-05,
        256, 64008, 6, 2336, 6015, 17024),
    ('bsp-blocking', False, 'list'): (
        4740, 16000, 0.00010674051555555556, 8.644035555555557e-05,
        256, 64008, 6, 2336, 6015, 17024),
    ('bsp-blocking', True, 'matrix'): (
        4740, 16000, 0.00010621568, 8.624480000000001e-05,
        256, 63808, 6, 2336, 6012, 16632),
    ('bsp-blocking', True, 'list'): (
        4740, 16000, 0.00010621568, 8.624480000000001e-05,
        256, 63808, 6, 2336, 6012, 16632),
    ('bsp-nonblocking', False, 'matrix'): (
        4740, 16000, 5.0227093333333336e-05, 2.992693333333333e-05,
        256, 64008, 6, 2336, 6015, 17024),
    ('bsp-nonblocking', False, 'list'): (
        4740, 16000, 5.0227093333333336e-05, 2.992693333333333e-05,
        256, 64008, 6, 2336, 6015, 17024),
    ('bsp-nonblocking', True, 'matrix'): (
        4740, 16000, 4.9882524444444436e-05, 2.9911644444444442e-05,
        256, 63808, 6, 2336, 6012, 16632),
    ('bsp-nonblocking', True, 'list'): (
        4740, 16000, 4.9882524444444436e-05, 2.9911644444444442e-05,
        256, 63808, 6, 2336, 6012, 16632),
    ('bsp-preaccumulate', False, 'matrix'): (
        4740, 16000, 0.00012711509333333332, 0.00010731893333333331,
        256, 124480, 6, 2336, 5835, 32848),
    ('bsp-preaccumulate', False, 'list'): (
        4740, 16000, 0.00012711509333333332, 0.00010731893333333331,
        256, 124480, 6, 2336, 5835, 32848),
    ('bsp-preaccumulate', True, 'matrix'): (
        4740, 16000, 0.00012662062222222226, 0.00010711342222222226,
        256, 123984, 6, 2336, 5838, 32160),
    ('bsp-preaccumulate', True, 'list'): (
        4740, 16000, 0.00012662062222222226, 0.00010711342222222226,
        256, 123984, 6, 2336, 5838, 32160),
    ('bsp-quicksort', False, 'matrix'): (
        4740, 16000, 7.059410666666666e-05, 4.42224e-05,
        64, 64008, 3, 2328, 8012, 17024),
    ('bsp-quicksort', False, 'list'): (
        4740, 16000, 7.059410666666666e-05, 4.42224e-05,
        64, 64008, 3, 2328, 8012, 17024),
    ('bsp-quicksort', True, 'matrix'): (
        4740, 16000, 6.972067555555555e-05, 4.385155555555555e-05,
        64, 63808, 3, 2328, 8010, 16632),
    ('bsp-quicksort', True, 'list'): (
        4740, 16000, 6.972067555555555e-05, 4.385155555555555e-05,
        64, 63808, 3, 2328, 8010, 16632),
    ('minimizer', False, 'matrix'): (
        4740, 16000, 3.293602666666666e-05, 1.6435493333333333e-05,
        32, 16749, 3, 0, 0, 0),
    ('minimizer', False, 'list'): (
        4740, 16000, 3.293602666666666e-05, 1.6435493333333333e-05,
        32, 16749, 3, 0, 0, 0),
    ('minimizer', True, 'matrix'): (
        4740, 16000, 3.518248000000001e-05, 1.897938666666667e-05,
        32, 48825, 3, 0, 0, 0),
    ('minimizer', True, 'list'): (
        4740, 16000, 3.518248000000001e-05, 1.897938666666667e-05,
        32, 48825, 3, 0, 0, 0),
    ('kmc3', False, 'matrix'): (
        4740, 16000, 0.00011081471640627762, 2.1e-05,
        0, 0, 0, 4314, 32375, 0),
    ('kmc3', False, 'list'): (
        4740, 16000, 0.00011081471640627762, 2.1e-05,
        0, 0, 0, 4314, 32375, 0),
    ('kmc3', True, 'matrix'): (
        4740, 16000, 0.00011081471640627773, 2.1e-05,
        0, 0, 0, 4314, 32457, 0),
    ('kmc3', True, 'list'): (
        4740, 16000, 0.00011081471640627773, 2.1e-05,
        0, 0, 0, 4314, 32457, 0),
    ('big-k', False, 'matrix'): (
        4459, 12000, 4.0136213333333336e-05, 1.9714133333333335e-05,
        32, 95792, 3, 0, 0, 0),
    ('big-k', False, 'list'): (
        4459, 12000, 4.0136213333333336e-05, 1.9714133333333335e-05,
        32, 95792, 3, 0, 0, 0),
    ('big-k', True, 'matrix'): (
        4459, 12000, 4.0130986666666674e-05, 1.9735466666666668e-05,
        32, 96064, 3, 0, 0, 0),
    ('big-k', True, 'list'): (
        4459, 12000, 4.0130986666666674e-05, 1.9735466666666668e-05,
        32, 96064, 3, 0, 0, 0),
}


@pytest.mark.parametrize("counter,canonical,layout", sorted(PINS))
def test_model_outputs_pinned(small_reads, counter, canonical, layout):
    reads = small_reads if layout == "matrix" else [r for r in small_reads]
    counts, stats = COUNTERS[counter](reads, canonical)
    if counter == "big-k":
        assert counts == serial_count_oracle(small_reads, BIG_K, canonical=canonical)
    else:
        assert counts == serial_count(small_reads, K, canonical=canonical)
    assert observe(counts, stats) == PINS[counter, canonical, layout]
