"""Global hypothesis property tests over the whole pipeline.

These generate arbitrary read sets and configurations and assert the
system-wide invariants the paper's correctness rests on.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bsp import BspConfig, bsp_count
from repro.core.dakc import DakcConfig, dakc_count
from repro.core.l2l3 import AggregationConfig
from repro.core.serial import serial_count
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.seq.encoding import encode_seq
from repro.seq.kmers import iter_kmers

from dakc_reference import dakc_count_reference, shared_counters

read_sets = st.lists(
    st.text(alphabet="ACGT", min_size=0, max_size=50), min_size=0, max_size=12
)


def oracle(reads: list[str], k: int) -> Counter:
    c: Counter = Counter()
    for r in reads:
        c.update(iter_kmers(r, k))
    return c


@given(read_sets, st.integers(1, 12), st.integers(1, 3),
       st.sampled_from(["1D", "2D", "3D"]))
@settings(max_examples=25)
def test_dakc_equals_oracle_for_any_input(reads, k, nodes, protocol):
    """DAKC == Counter oracle for arbitrary reads, P and topology."""
    encoded = [encode_seq(r) for r in reads]
    cost = CostModel(laptop(nodes=nodes, cores=3))
    kc, _ = dakc_count(encoded, k, cost, DakcConfig(protocol=protocol))
    assert kc.to_counter() == oracle(reads, k)


@given(read_sets, st.integers(1, 12), st.integers(1, 500), st.booleans())
@settings(max_examples=25)
def test_bsp_equals_oracle_for_any_batch(reads, k, b, blocking):
    encoded = [encode_seq(r) for r in reads]
    cost = CostModel(laptop(nodes=2, cores=2))
    kc, _ = bsp_count(encoded, k, cost, BspConfig(batch_size=b, blocking=blocking))
    assert kc.to_counter() == oracle(reads, k)


@given(read_sets, st.integers(2, 9), st.integers(1, 64))
@settings(max_examples=20)
def test_dakc_c3_invariance(reads, k, c3):
    """Counting is invariant under the L3 window size."""
    encoded = [encode_seq(r) for r in reads]
    ref = serial_count(encoded, k)
    cost = CostModel(laptop(nodes=1, cores=4))
    kc, _ = dakc_count(encoded, k, cost,
                       DakcConfig(agg=AggregationConfig(c3=c3)))
    assert kc == ref


@given(read_sets, st.integers(2, 9), st.sampled_from(["1D", "2D", "3D"]),
       st.sampled_from(["L0-L1", "L0-L2", "L0-L3"]), st.booleans())
@settings(max_examples=15)
def test_exact_mode_equals_fast_mode(reads, k, protocol, layers, canonical):
    """The per-element Algorithm 4 reference (``tests/dakc_reference.py``)
    and ``dakc_count`` agree on the counts and, per PE, on every
    ``PEStats`` counter but the five the reference does not charge
    (``clock``, ``compute_ops``, ``mem_bytes``, ``cache_misses_p1``,
    ``sync_wait_time``): it leaves out the aggregation stack's own work
    and the Phase-1 cache model, so only its clocks and those charges
    differ, never what travels on the wire."""
    encoded = [encode_seq(r) for r in reads]
    agg = AggregationConfig(c2=4, c3=16, enable_l2=layers != "L0-L1",
                            enable_l3=layers == "L0-L3")
    config = DakcConfig(protocol=protocol, agg=agg, canonical=canonical)
    a, sa = dakc_count_reference(encoded, k, CostModel(laptop(nodes=2, cores=2)), config)
    b, sb = dakc_count(encoded, k, CostModel(laptop(nodes=2, cores=2)), config)
    assert a == b
    assert shared_counters(sa) == shared_counters(sb)


@given(read_sets, st.integers(1, 9))
@settings(max_examples=20)
def test_result_invariants(reads, k):
    """Every KmerCounts satisfies its structural invariants and
    conserves the total number of windows."""
    encoded = [encode_seq(r) for r in reads]
    kc = serial_count(encoded, k)
    assert (kc.counts >= 1).all()
    if kc.n_distinct > 1:
        assert (np.diff(kc.kmers.astype(np.int64)) > 0).all() or (
            kc.kmers[1:] > kc.kmers[:-1]
        ).all()
    assert kc.total == sum(max(0, len(r) - k + 1) for r in reads)
    # k-mers fit in 2k bits.
    if kc.n_distinct:
        assert int(kc.kmers.max()) < (1 << (2 * k))


@given(read_sets)
@settings(max_examples=15)
def test_canonical_counts_strand_symmetric(reads):
    """Canonical counting of a read set equals canonical counting of
    the reverse-complemented read set."""
    from repro.seq.alphabet import reverse_complement_str

    k = 7
    fwd = serial_count([encode_seq(r) for r in reads], k, canonical=True)
    rc_reads = [reverse_complement_str(r) for r in reads]
    rev = serial_count([encode_seq(r) for r in rc_reads], k, canonical=True)
    assert fwd == rev


@given(st.integers(0, 2**32), st.integers(1, 6))
@settings(max_examples=15)
def test_simulated_time_positive_and_finite(seed, nodes):
    rng = np.random.default_rng(seed)
    reads = rng.integers(0, 4, size=(30, 40)).astype(np.uint8)
    cost = CostModel(laptop(nodes=nodes, cores=2))
    _, stats = dakc_count(reads, 9, cost)
    assert np.isfinite(stats.sim_time) and stats.sim_time > 0
    assert all(np.isfinite(pe.clock) and pe.clock >= 0 for pe in stats.pe)
