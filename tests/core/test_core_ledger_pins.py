"""Model-output pins for the DAKC paths ``test_core_model_pins`` does not reach.

``PINS`` there runs each counter at its defaults on 2,000 k-mers per PE:
one partial L3 chunk, no L1 copy, 2D at most.  The cases below drive
the rest of the aggregation stack and the conveyor — the 3D protocol,
the L0-L1 and L0-L2 ablations, thresholds small enough that most
groups cross an L1 or L0 boundary, an odd ``C2`` with every repeat
heavy, several ``add_kmers`` calls per PE on dilated clocks, the
faulty and reliable conveyors, a call whose buffer ops and first chunk
sort share a ledger key, and a traced run (pinned by the SHA-256 of its
Chrome trace).  Each pin is the run's ``observe()`` tuple plus
every PE's clock and layer counters.  The literals were recorded on
the commit before the aggregator and conveyor moved from per-group
Python to per-call arrays; a change of host bookkeeping must leave
every one of them exactly as it found them.  Do not edit the table to
make a change pass.
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.core.dakc import DakcConfig, dakc_count
from repro.core.l2l3 import AggregationConfig
from repro.core.serial import serial_count
from repro.fault.injector import FaultyConveyor
from repro.fault.models import FaultPlan
from repro.fault.reliability import ReliableConveyor
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.runtime.trace import Tracer, to_chrome_trace
from repro.seq.genomes import RepeatSpec, repeat_genome
from repro.seq.readsim import ReadSimConfig, simulate_reads

K = 21

#: A wire that loses, duplicates, delays, reorders and corrupts groups.
PLAN = FaultPlan(seed=5, drop_prob=0.05, duplicate_prob=0.05, delay_prob=0.1,
                 reorder_prob=0.1, corrupt_prob=0.05)


def _reads(n_reads: int, read_len: int, seed: int):
    genome = repeat_genome(6_000, RepeatSpec(fraction=0.3, n_tracts=3),
                           rng=np.random.default_rng(seed))
    return simulate_reads(genome, ReadSimConfig(read_len=read_len, n_reads=n_reads,
                                                error_rate=0.0, seed=seed))


def _laptop(**kw) -> CostModel:
    return CostModel(laptop(nodes=2, cores=4), **kw)


# name -> (reads, cost factory, config, conveyor factory, exact counts)
CASES = {
    "3d": (partial(_reads, 400, 100, 1), _laptop,
           DakcConfig(protocol="3D"), None, True),
    "l0-l1": (partial(_reads, 300, 80, 2), _laptop,
              DakcConfig(protocol="2D", agg=AggregationConfig(
                  enable_l2=False, enable_l3=False)), None, True),
    "l0-l2": (partial(_reads, 300, 80, 3), _laptop,
              DakcConfig(agg=AggregationConfig(enable_l3=False)), None, True),
    "thresholds": (partial(_reads, 400, 100, 4), _laptop,
                   DakcConfig(protocol="2D", c0_bytes=700, c1_packets=3,
                              agg=AggregationConfig(c2=6, c3=1_500)), None, True),
    "odd-c2": (partial(_reads, 400, 100, 5), _laptop,
               DakcConfig(protocol="3D", c1_packets=5, agg=AggregationConfig(
                   c2=7, c3=997, heavy_threshold=1)), None, True),
    "dilated-multicall": (
        partial(_reads, 1_800, 150, 6),
        lambda: CostModel(laptop(nodes=2, cores=1), dilation=[1.0, 1.75]),
        DakcConfig(protocol="1D", c0_bytes=4_096, c1_packets=7,
                   agg=AggregationConfig(c3=4_000)), None, True),
    "faulty": (partial(_reads, 300, 100, 7), _laptop,
               DakcConfig(protocol="2D", c0_bytes=1_024),
               partial(FaultyConveyor, plan=PLAN), False),
    "reliable": (partial(_reads, 300, 100, 8), _laptop,
                 DakcConfig(protocol="2D", c0_bytes=1_024),
                 partial(ReliableConveyor, plan=PLAN), True),
    # Entries of one ledger key in the order they were charged: the
    # call's buffer ops before its first chunk's sort.
    "call-order": (partial(_reads, 321, 100, 10), lambda: CostModel(laptop(nodes=2, cores=2)),
                   DakcConfig(protocol="1D", c0_bytes=734, c1_packets=8,
                              agg=AggregationConfig(c2=9, c3=2_506)), None, True),
    "traced": (partial(_reads, 300, 100, 9),
               lambda: _laptop(tracer=Tracer()),
               DakcConfig(protocol="2D", c0_bytes=2_048, c1_packets=4), None, True),
}


def observe(counts, stats) -> tuple:
    return (
        counts.n_distinct, counts.total, stats.sim_time, stats.phase1_time,
        stats.total_puts, stats.total_bytes_sent, stats.global_syncs,
        stats.total("cache_misses_p1"), stats.total("cache_misses_p2"),
        stats.peak_buffer_bytes_per_pe,
    )


#: Per-PE values pinned beside ``observe()``.  Every clock ends equal at
#: the exit barrier, so ``sync_wait_time`` is what pins each PE's own
#: clock before the barriers.
PER_PE_FIELDS = ("clock", "sync_wait_time", "compute_ops", "mem_bytes",
                 "local_memcpy_bytes", "l0_flushes", "l1_flushes",
                 "l2_flushes", "hops_forwarded", "header_bytes")


def run_case(name: str) -> tuple:
    make_reads, make_cost, config, factory, exact = CASES[name]
    reads = make_reads()
    cost = make_cost()
    try:
        counts, stats = dakc_count(reads, K, cost, config, conveyor_factory=factory)
    finally:
        if factory is not None:
            cost.set_dilation(None)
    if exact:
        assert counts == serial_count(reads, K)
    per_pe = tuple(tuple(getattr(pe, f) for pe in stats.pe) for f in PER_PE_FIELDS)
    trace = None
    if cost.tracer is not None:
        trace = hashlib.sha256(to_chrome_trace(cost.tracer).encode()).hexdigest()
    return observe(counts, stats), per_pe, trace


# name -> (observe(), per-PE values in PER_PE_FIELDS order, trace SHA-256)
PINS = {
    '3d': (
        (4231, 32000, 7.737266666666669e-05, 5.324848000000001e-05, 8, 90372, 3, 3425, 7464,
         24092),
        (
            (7.737266666666669e-05, 7.737266666666669e-05, 7.737266666666669e-05,
             7.737266666666669e-05, 7.737266666666669e-05, 7.737266666666669e-05,
             7.737266666666669e-05, 7.737266666666669e-05),
            (2.408186666666697e-06, 4.615973333333334e-06, 5.4668266666666775e-06,
             8.067413333333329e-06, 5.37599999999993e-07, 2.033253333333348e-06,
             3.4674666666667346e-07, 4.271840000000025e-06),
            (75888, 73076, 71442, 71391, 74789, 72819, 72938, 73620),
            (243908, 239332, 229528, 224012, 248792, 245228, 243596, 238068),
            (23332, 22284, 21056, 22852, 24936, 22416, 22928, 23272),
            (7, 7, 7, 7, 7, 7, 7, 7),
            (0, 0, 0, 0, 0, 0, 0, 0),
            (113, 96, 92, 90, 92, 87, 86, 98),
            (56, 56, 54, 60, 68, 60, 63, 59),
            (676, 608, 584, 600, 640, 588, 596, 628),
        ),
        None),
    'l0-l1': (
        (4171, 18000, 0.00015919469333333333, 0.00013073645333333333, 32, 135876, 3, 2635,
         6765, 26736),
        (
            (0.00015919469333333333, 0.00015919469333333333, 0.00015919469333333333,
             0.00015919469333333333, 0.00015919469333333333, 0.00015919469333333333,
             0.00015919469333333333, 0.00015919469333333333),
            (1.9208079999999975e-05, 1.6346719999999978e-05, 5.658311999999995e-05, 0.0,
             3.36005866666666e-05, 5.375898666666666e-05, 4.804106666666665e-05,
             3.716778666666664e-05),
            (616164, 590012, 444252, 590128, 601692, 437572, 480328, 463132),
            (184840, 185824, 119872, 216940, 146420, 120224, 126944, 158204),
            (33444, 19704, 22008, 11484, 18312, 10236, 10188, 18720),
            (9, 9, 5, 9, 9, 5, 5, 5),
            (0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0),
            (1464, 1298, 411, 1282, 1455, 430, 697, 571),
            (14976, 14312, 10764, 14248, 14700, 10600, 11668, 11164),
        ),
        None),
    'l0-l2': (
        (4006, 18000, 6.535842666666667e-05, 3.273378666666666e-05, 32, 70424, 3, 2635,
         6765, 31696),
        (
            (6.535842666666667e-05, 6.535842666666667e-05, 6.535842666666667e-05,
             6.535842666666667e-05, 6.535842666666667e-05, 6.535842666666667e-05,
             6.535842666666667e-05, 6.535842666666667e-05),
            (1.222448e-05, 1.260421333333334e-05, 2.3345333333333335e-05, 0.0,
             2.232613333333335e-05, 2.363770666666666e-05, 2.2039520000000016e-05,
             1.2185493333333348e-05),
            (29404, 29484, 24908, 34688, 24488, 24136, 24592, 28860),
            (147296, 146144, 92832, 207336, 94656, 87056, 95928, 142248),
            (8024, 8744, 10080, 6784, 5616, 5472, 5880, 4472),
            (7, 7, 7, 7, 7, 7, 7, 7),
            (0, 0, 0, 0, 0, 0, 0, 0),
            (74, 75, 75, 75, 72, 74, 72, 74),
            (0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0),
        ),
        None),
    'thresholds': (
        (4223, 32000, 9.76422400000001e-05, 7.203218666666676e-05, 153, 125924, 3, 3437,
         8199, 23232),
        (
            (9.76422400000001e-05, 9.76422400000001e-05, 9.76422400000001e-05,
             9.76422400000001e-05, 9.76422400000001e-05, 9.76422400000001e-05,
             9.76422400000001e-05, 9.76422400000001e-05),
            (7.810266666666628e-06, 0.0, 1.5026986666666753e-05, 2.4032266666667294e-06,
             5.216746666666659e-06, 1.075546666666673e-05, 1.579400000000008e-05,
             1.385832000000001e-05),
            (186935, 194219, 150738, 173432, 170662, 144577, 135723, 146483),
            (249224, 265388, 233448, 250548, 252544, 239920, 222672, 228724),
            (29932, 20892, 17624, 8516, 16820, 8744, 7812, 17940),
            (45, 46, 27, 47, 47, 28, 29, 31),
            (235, 248, 174, 211, 206, 156, 145, 160),
            (536, 564, 457, 473, 426, 449, 393, 477),
            (294, 304, 145, 269, 298, 109, 118, 99),
            (3320, 3472, 2408, 2968, 2896, 2232, 2044, 2304),
        ),
        None),
    'odd-c2': (
        (4198, 32000, 9.180162666666668e-05, 6.746250666666668e-05, 8, 101468, 3, 3592,
         7602, 25124),
        (
            (9.180162666666668e-05, 9.180162666666668e-05, 9.180162666666668e-05,
             9.180162666666668e-05, 9.180162666666668e-05, 9.180162666666668e-05,
             9.180162666666668e-05, 9.180162666666668e-05),
            (3.3378933333333516e-06, 1.0336533333333718e-06, 3.2851200000000083e-06,
             2.0312800000000345e-06, 2.464319999999977e-06, 3.1739199999999745e-06,
             2.727306666666673e-06, 1.344799999999886e-07),
            (178764, 172439, 174995, 181784, 163754, 171660, 157746, 182758),
            (247300, 254856, 245436, 253476, 242528, 242252, 239576, 256236),
            (25696, 25952, 24420, 27592, 24172, 24980, 24356, 26084),
            (7, 7, 7, 7, 7, 7, 7, 7),
            (134, 127, 129, 139, 120, 129, 113, 139),
            (496, 413, 495, 470, 380, 439, 319, 496),
            (252, 292, 229, 296, 275, 267, 300, 274),
            (2992, 2820, 2896, 3064, 2620, 2824, 2476, 3080),
        ),
        None),
    'dilated-multicall': (
        (4239, 234000, 0.0005796945800000005, 0.0003103107733333337, 60, 605792, 3, 23177,
         67876, 546768),
        (
            (0.0005796945800000005, 0.0005796945800000005),
            (0.00017130044666666686, 0.0),
            (1858398, 1846724),
            (6747384, 6686872),
            (0, 0),
            (30, 30),
            (158, 156),
            (2394, 2349),
            (0, 0),
            (0, 0),
        ),
        None),
    'faulty': (
        (4617, 23365, 0.00025062082666666666, 0.00023019648000000004, 78, 92208, 3, 2566,
         6048, 17048),
        (
            (0.00025062082666666666, 0.00025062082666666666, 0.00025062082666666666,
             0.00025062082666666666, 0.00025062082666666666, 0.00025062082666666666,
             0.00025062082666666666, 0.00025062082666666666),
            (8.00159733333333e-05, 7.622464000000008e-05, 5.6971167580079784e-05,
             6.832634666666671e-05, 9.123365333333337e-05, 9.064154666666666e-05,
             8.167584000000008e-05, 1.634133333332905e-07),
            (57248, 56509, 54811, 56934, 56855, 53347, 53718, 52395),
            (184672, 180744, 182676, 177156, 188356, 173636, 177524, 177788),
            (20488, 14204, 14324, 7020, 13148, 7092, 7640, 13040),
            (21, 23, 14, 22, 24, 16, 16, 14),
            (0, 0, 0, 0, 0, 0, 0, 0),
            (76, 78, 81, 74, 73, 81, 84, 71),
            (46, 39, 21, 50, 48, 19, 17, 21),
            (488, 468, 408, 496, 484, 400, 404, 368),
        ),
        None),
    'reliable': (
        (4160, 24000, 0.0004775394399999999, 0.0004571245866666665, 155, 109196, 3, 2620,
         6057, 16984),
        (
            (0.0004775394399999999, 0.0004775394399999999, 0.0004775394399999999,
             0.0004775394399999999, 0.0004775394399999999, 0.0004775394399999999,
             0.0004775394399999999, 0.0004775394399999999),
            (1.3149333333333977e-06, 1.6656053333333394e-05, 7.007733333334767e-07,
             1.424560000000012e-05, 0.00018552909805764618, 5.890079999999829e-06,
             0.00011957925333333329, 1.9039200000000385e-05),
            (60865, 59119, 53586, 57865, 57677, 52367, 52015, 51978),
            (194960, 198740, 175228, 189940, 190276, 175864, 173552, 178576),
            (22148, 15872, 12876, 6876, 14920, 8060, 6484, 16344),
            (30, 32, 18, 27, 25, 19, 21, 21),
            (0, 0, 0, 0, 0, 0, 0, 0),
            (88, 77, 73, 70, 75, 70, 74, 71),
            (56, 52, 24, 55, 53, 25, 18, 19),
            (632, 588, 392, 536, 544, 428, 412, 428),
        ),
        None),
    'call-order': (
        (4180, 25680, 5.8554640000000006e-05, 3.9013386666666676e-05, 31, 74504, 3, 2845, 6729,
         36808),
        (
            (5.8554640000000006e-05, 5.8554640000000006e-05, 5.8554640000000006e-05,
             5.8554640000000006e-05),
            (1.5683466666666958e-06, 1.2560133333333213e-06, 2.8258666666665746e-07,
             4.3400000000000296e-07),
            (166410, 159711, 170798, 173148),
            (348460, 355488, 361336, 356304),
            (9816, 7920, 9880, 10120),
            (12, 11, 12, 12),
            (45, 40, 46, 49),
            (519, 476, 544, 562),
            (0, 0, 0, 0),
            (0, 0, 0, 0),
        ),
        None),
    'traced': (
        (4650, 24000, 6.743314666666669e-05, 4.7025893333333364e-05, 68, 92920, 3, 2651,
         6060, 16904),
        (
            (6.743314666666669e-05, 6.743314666666669e-05, 6.743314666666669e-05,
             6.743314666666669e-05, 6.743314666666669e-05, 6.743314666666669e-05,
             6.743314666666669e-05, 6.743314666666669e-05),
            (5.876319999999957e-06, 4.466799999999982e-06, 1.0525333333333326e-05, 0.0,
             5.073359999999988e-06, 6.92045333333333e-06, 6.418613333333332e-06,
             8.687359999999998e-06),
            (57001, 57290, 52802, 59904, 56128, 50783, 53416, 54255),
            (190396, 185968, 170636, 194204, 185104, 164500, 179552, 174644),
            (18216, 13152, 14024, 7024, 12860, 5984, 6192, 15108),
            (19, 22, 12, 21, 18, 11, 12, 14),
            (20, 22, 18, 22, 22, 17, 18, 19),
            (70, 73, 77, 89, 68, 70, 75, 88),
            (46, 48, 17, 45, 50, 18, 23, 18),
            (464, 484, 376, 536, 472, 352, 392, 424),
        ),
        '15c2074dff350dd7c5c565785268edd68a49ca4bfd906df84110d7d80e7a220f'),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_ledger_outputs_pinned(name, monkeypatch):
    if name == "faulty":   # the wire loses groups: run past the conservation check
        monkeypatch.setattr("repro.core.dakc._verify_conservation", lambda stats, conv: None)
    assert run_case(name) == PINS[name]
