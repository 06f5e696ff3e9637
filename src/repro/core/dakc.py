"""DAKC: the Distributed Asynchronous k-mer Counter (Algorithms 3+4).

The paper's contribution.  Phase 1 parses reads into k-mers and routes
each to its owner PE through ``AsyncAdd`` — the four-layer aggregation
stack (L3 heavy-hitter catcher, L2 packing, L1 runtime staging, L0
Conveyors PUTs).  A single global barrier separates Phase 1 from
Phase 2, where every PE radix-sorts and accumulates the k-mers it owns.
DAKC needs exactly **three** global synchronisations (start, inter-
phase, end) regardless of input size — the heart of its advantage over
the BSP baselines whose collective count grows as ``mn / bP``.

There is one execution path: each source PE's k-mers go through the
vectorised :class:`~repro.core.l2l3.BulkAggregator`, and receivers
drain lazily through one busy-period charge per destination
(:func:`_charge_receives`), which stands in for HClib-Actor's
interleaving of message handling with source work.  The per-element
transcription of Algorithm 4 on a cooperative actor scheduler is the
tests' reference (``tests/dakc_reference.py``): it must deliver the
same counts and the same wire counters.

The run's opening, read split, parse and close are the shared skeleton
of :mod:`repro.core.phases`; this module holds what DAKC adds — the
conveyor (:func:`open_conveyor`), ``AsyncAdd`` through the aggregation
stack, the lazy receive charge, the delivery conservation check and
the Phase-2 sort charge.  :func:`dakc_count_big` is the two phases
for Section VII's 128-bit k-mers (k up to 64).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..runtime.cache import CacheAccounting
from ..runtime.conveyors import Conveyor, PacketGroup
from ..runtime.cost import CostModel
from ..runtime.machine import MachineConfig
from ..runtime.memory import L0_BUFFER_BYTES
from ..runtime.stats import RunStats
from ..runtime.topology import make_topology
from ..seq.kmers import check_k, count_owned_kmers, kmer_width_bits
from ..sort.accumulate import accumulate_weighted
from ..sort.radix import effective_msd_passes
from .l2l3 import AggregationConfig, BulkAggregator, receive_service_times
from .owner import by_owner, owner_pe
from .phases import SimRun, n_bases, parse_kmers, split_reads
from .result import KmerCounts

__all__ = ["DakcConfig", "dakc_count", "dakc_count_big", "open_conveyor",
           "DeliveryIntegrityError"]

#: k-mers fed to the aggregator per call.
PARSE_CHUNK: int = 65_536


@dataclass(frozen=True, slots=True)
class DakcConfig:
    """All DAKC tunables in one place."""

    protocol: str = "1D"  # Conveyors virtual topology: 1D | 2D | 3D
    c0_bytes: int = L0_BUFFER_BYTES
    c1_packets: int = 1024
    agg: AggregationConfig = field(default_factory=AggregationConfig)
    canonical: bool = False


def open_conveyor(run: SimRun, config: DakcConfig, factory=None) -> Conveyor:
    """The conveyor of *run* over *config*'s virtual topology; *factory*
    replaces the stock :class:`Conveyor` (same arguments)."""
    return (factory or Conveyor)(
        run.cost, run.stats, make_topology(config.protocol, run.n_pes), run.memory,
        c0_bytes=config.c0_bytes, c1_packets=config.c1_packets,
    )


def _phase2(
    dst: int, groups: list[PacketGroup], k: int, run: SimRun
) -> tuple[np.ndarray, np.ndarray]:
    """Sort + accumulate one PE's received k-mers (Phase 2)."""
    cost, memory = run.cost, run.memory
    pe_stats = run.stats.pe[dst]
    normals = [g.kmers for g in groups if g.kind == "NORMAL"]
    heavy_k = [g.kmers for g in groups if g.kind == "HEAVY"]
    heavy_c = [g.counts for g in groups if g.kind == "HEAVY"]
    t_arr = np.concatenate(normals) if normals else np.empty(0, dtype=np.uint64)
    memory.set_category(dst, "phase2-T", int(t_arr.nbytes))

    width = kmer_width_bits(k)
    passes = max(1, width // 8)
    # The real hybrid sorter (MSD ska_sort) recurses only until
    # buckets fit in cache: ~log2(n)/8 effective digit levels, fewer
    # than the model's worst-case `width/8` passes.  This is exactly
    # why measured Phase-2 misses undershoot the prediction in Fig. 3,
    # with the gap shrinking as n grows.
    eff_passes = effective_msd_passes(int(t_arr.size), passes)
    cache = CacheAccounting(cost.machine.line_bytes)
    cost.charge_compute(pe_stats, t_arr.size * eff_passes)
    cost.charge_mem(pe_stats, 2 * t_arr.nbytes * eff_passes)
    for _ in range(eff_passes):
        cache.stream(t_arr.nbytes)
    # Accumulate sweep: one read pass plus the output write.
    cost.charge_compute(pe_stats, 2 * t_arr.size)
    cost.charge_mem(pe_stats, 2 * t_arr.nbytes)
    cache.stream(t_arr.nbytes)
    pe_stats.cache_misses_p2 += cache.misses

    uniq, counts = count_owned_kmers(t_arr, k)
    if heavy_k:
        hk = np.concatenate(heavy_k)
        hc = np.concatenate(heavy_c)
        cost.charge_compute(pe_stats, hk.size)
        cost.charge_mem(pe_stats, hk.nbytes * 2)
        uniq, counts = _add_pairs(uniq, counts, *accumulate_weighted(hk, hc))
    memory.set_category(dst, "phase2-T", 0)
    memory.set_category(dst, "phase2-out", int(uniq.nbytes + counts.nbytes))
    return uniq, counts


def _add_pairs(uniq, counts, keys, weights):
    """Add sorted distinct ``(keys, weights)`` into sorted distinct
    ``(uniq, counts)``: what ``accumulate_weighted`` of the two makes,
    without sorting the owner's whole table again for a few pairs."""
    at = uniq.searchsorted(keys)
    found = at < uniq.size  # then: and the key is there
    found[found] = uniq[at[found]] == keys[found]
    counts = counts.copy()
    counts[at[found]] += weights[found]
    new = ~found
    return np.insert(uniq, at[new], keys[new]), np.insert(counts, at[new], weights[new])


def dakc_count(
    reads: np.ndarray | list,
    k: int,
    cost: CostModel | MachineConfig,
    config: DakcConfig | None = None,
    *,
    conveyor_factory=None,
    interphase_hook=None,
) -> tuple[KmerCounts, RunStats]:
    """Count k-mers with DAKC on the simulated machine.

    Parameters
    ----------
    reads:
        2-D ``uint8`` code matrix (rows = reads) or list of code arrays.
    k:
        k-mer length (<= 32).
    cost:
        A :class:`CostModel` (or a :class:`MachineConfig`, wrapped with
        one PE per core).
    config:
        DAKC tunables; defaults reproduce the paper's defaults
        (1D protocol, C1=1024, C2=32, C3=10^4, L2+L3 enabled).
    conveyor_factory:
        Optional replacement for the stock :class:`Conveyor` — called
        with the same positional/keyword arguments.  Used by
        :mod:`repro.fault` to substitute fault-injecting or reliable
        conveyor engines.
    interphase_hook:
        Optional ``hook(conveyor, stats)`` invoked at the inter-phase
        barrier, after Phase 1 settles and *before* the delivery
        conservation check — the point where :mod:`repro.fault` takes
        checkpoints and applies transient PE crashes.

    Returns
    -------
    (KmerCounts, RunStats)
        The global ordered counts and the measured run statistics
        (simulated time, messages, bytes, per-PE clocks).
    """
    check_k(k)
    config = config or DakcConfig()
    run = SimRun(cost)
    cost, stats, n_pes = run.cost, run.stats, run.n_pes
    conveyor = open_conveyor(run, config, conveyor_factory)
    per_pe_reads = split_reads(reads, n_pes)

    run.barrier()  # sync 1: all PEs enter the counting kernel

    _run_phase1(per_pe_reads, k, cost, stats, conveyor, config)
    _charge_receives(cost, stats, conveyor)
    run.barrier()  # sync 2: inter-phase barrier

    stats.phase1_time = stats.max_clock

    if interphase_hook is not None:
        interphase_hook(conveyor, stats)

    _verify_conservation(stats, conveyor)

    results = [
        _phase2(dst, [g for _, g in conveyor.delivered[dst]], k, run)
        for dst in range(n_pes)
    ]
    # sync 3 (end of the kernel) is the run's exit barrier.
    return run.finish(k, results, protocol=config.protocol)


def dakc_count_big(
    reads: np.ndarray | list,
    k: int,
    cost: CostModel | MachineConfig,
    *,
    canonical: bool = False,
) -> tuple[KmerCounts, RunStats]:
    """DAKC's two phases for k up to 64 (``[hi, lo]`` rows): route by
    owner, then per owner sort + accumulate; three global syncs, 16-byte
    wire elements, twice the radix passes of one word.  The L2/L3 stack
    is :func:`dakc_count`'s and is not repeated here.
    """
    run = SimRun(cost)
    cost, stats, n_pes = run.cost, run.stats, run.n_pes
    run.barrier()  # sync 1

    inbox: list[list[np.ndarray]] = [[] for _ in range(n_pes)]
    for src, rows in enumerate(split_reads(reads, n_pes)):
        pe = stats.pe[src]
        kmers = parse_kmers(rows, k, canonical)
        pe.kmers_generated += len(kmers)
        cost.charge_compute(pe, 2 * len(kmers))  # two-word rolling update
        cost.charge_mem(pe, n_bases(rows))
        for dst, routed in by_owner(owner_pe(kmers, n_pes), n_pes, kmers):
            cost.charge_put(pe, dst, len(routed) * 16)
            inbox[dst].append(routed)

    run.barrier()  # sync 2: inter-phase
    stats.phase1_time = stats.max_clock

    results = []
    for dst in range(n_pes):
        if not inbox[dst]:
            continue
        pe = stats.pe[dst]
        merged = np.concatenate(inbox[dst])
        pe.elements_received += len(merged)
        pe.kmers_received += len(merged)
        cost.charge_compute(pe, 4 * len(merged))
        cost.charge_mem(pe, 4 * 16 * len(merged))
        results.append(count_owned_kmers(merged, k))
    # sync 3 is the run's exit barrier.
    return run.finish(k, results)


def _run_phase1(
    per_pe_reads: list,
    k: int,
    cost: CostModel,
    stats: RunStats,
    conveyor: Conveyor,
    config: DakcConfig,
) -> None:
    """Vectorised Phase 1: parse + AsyncAdd for every source PE."""
    line_bytes = cost.machine.line_bytes
    for src, rows in enumerate(per_pe_reads):
        pe_stats = stats.pe[src]
        kmers = parse_kmers(rows, k, config.canonical)
        read_bytes = n_bases(rows)
        pe_stats.kmers_generated += int(kmers.size)
        cost.charge_compute(pe_stats, int(kmers.size))
        cost.charge_mem(pe_stats, read_bytes)
        cache = CacheAccounting(line_bytes)
        # Only the read scan misses on the send side: generated k-mers
        # flow through the cache-resident L3/L2 buffers (80 KB + 264 B
        # per destination), never touching DRAM until the NIC PUT.
        # This is DAKC's aggregation dividend, visible in Fig. 3 as
        # measured Phase-1 misses sitting close to the parse+store
        # model despite the extra buffering machinery.
        cache.stream(read_bytes)
        pe_stats.cache_misses_p1 += cache.misses
        agg = BulkAggregator(src, config.agg, conveyor, cost, k=k)
        for lo in range(0, kmers.size, PARSE_CHUNK):
            agg.add_kmers(kmers[lo : lo + PARSE_CHUNK])
        agg.flush()
        conveyor.flush_pe(src)
    conveyor.finalize()


class DeliveryIntegrityError(RuntimeError):
    """Raised when the conservation check fails: the occurrences that
    arrived at owners do not equal the occurrences parsed at sources
    (a lost or duplicated message in the aggregation/conveyor stack)."""


def _verify_conservation(stats: RunStats, conveyor: Conveyor) -> None:
    """Check sum(generated occurrences) == sum(delivered weight).

    NORMAL elements carry one occurrence each; HEAVY pairs carry their
    explicit counts.  The equality must hold exactly — the L3 layer
    compresses *representation*, never weight.
    """
    generated = stats.total_kmers
    delivered = 0
    for queue in conveyor.delivered:
        # A HEAVY pair's element stands for `count` occurrences.
        heavy = [g.counts for _, g in queue if g.kind == "HEAVY"]
        delivered += sum(g.kmers.size for _, g in queue)
        if heavy:
            counts = np.concatenate(heavy)
            delivered += int(counts.sum()) - counts.size
    if delivered != generated:
        raise DeliveryIntegrityError(
            f"delivery conservation violated: {generated} k-mer occurrences "
            f"generated but {delivered} delivered"
        )


def _charge_receives(cost: CostModel, stats: RunStats, conveyor: Conveyor) -> None:
    """Charge lazy receive processing per destination (Phase 1 tail)."""
    for dst in range(cost.n_pes):
        pe_stats = stats.pe[dst]
        queue = conveyor.delivered[dst]
        src, n_elements, n_packets, payload = np.array(
            [(g.src, g.kmers.size, g.n_packets, g.payload_bytes) for _, g in queue],
            dtype=np.int64).reshape(-1, 4).T
        service = receive_service_times(cost, src, dst, n_elements, n_packets, payload)
        received = int(n_elements.sum())
        pe_stats.kmers_received += received
        pe_stats.elements_received += received
        jobs = [(arrival, t) for (arrival, _), t in zip(queue, service.tolist())]
        pe_stats.clock = cost.busy_period(pe_stats.clock, jobs)
        cache = CacheAccounting(cost.machine.line_bytes)
        cache.stream(int(payload.sum()))
        pe_stats.cache_misses_p1 += cache.misses
