"""Algorithm 4, element by element: the reference DAKC is checked against.

The product runs DAKC one way (:func:`repro.core.dakc.dakc_count`,
array-at-a-time aggregation and one lazy busy-period receive charge per
destination).  This module is the literal transcription it is tested
against:

* :class:`ExactAggregator` — ``AddToL3Buffer`` / ``AddToL2Buffer`` one
  k-mer at a time: one list filled to exactly ``C3`` before
  sort+accumulate, per-destination lists flushed at exactly ``C2``
  elements (NORMAL) or ``C2/2`` pairs (HEAVY);
* :class:`DakcActor` — one PE parsing one read per step through it;
* :class:`ActorRuntime` — an HClib-Actor style round-robin scheduler:
  every round steps each actor once, moves conveyor traffic and hands
  newly delivered groups to their receivers, so message handling
  interleaves with source work, and it ends with a global barrier;
* :func:`owner_pe_scalar` — Algorithm 2's ``OwnerPE`` on one k-mer;
* :func:`dakc_count_reference` — Phase 1 on those pieces, then the
  product's own conveyor, read split, conservation check and Phase 2.

The reference charges parse, per-packet receive and Phase 2 work, but
none of the aggregation stack's own work (buffering ops, L3 sorts,
packet handling): its clocks, ``compute_ops``, ``mem_bytes``,
``cache_misses_p1`` and ``sync_wait_time`` are not the product's.
Every other counter is, and the tests compare them.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.core.dakc import DakcConfig, _phase2, _verify_conservation, open_conveyor
from repro.core.l2l3 import AggregationConfig, receive_service_time
from repro.core.owner import splitmix64
from repro.core.phases import SimRun, parse_kmers, split_reads
from repro.core.result import KmerCounts
from repro.runtime.collectives import barrier
from repro.runtime.conveyors import Conveyor, PacketGroup
from repro.runtime.cost import CostModel
from repro.runtime.machine import MachineConfig
from repro.runtime.stats import PEStats, RunStats

#: The :class:`PEStats` fields the reference does not charge as the
#: product does; every other one matches per PE.
UNCHARGED = ("clock", "compute_ops", "mem_bytes", "cache_misses_p1", "sync_wait_time")


def shared_counters(stats: RunStats) -> list[dict]:
    """Each PE's counters, :data:`UNCHARGED` left out."""
    names = [f.name for f in fields(PEStats) if f.name not in UNCHARGED]
    return [{name: getattr(pe, name) for name in names} for pe in stats.pe]


def owner_pe_scalar(kmer: int, p: int) -> int:
    """Scalar reference of :func:`repro.core.owner.owner_pe`."""
    if p < 1:
        raise ValueError("P must be >= 1")
    return int(splitmix64(int(kmer)) % p)


class ExactAggregator:
    """Per-element transcription of Algorithm 4's L3 and L2 layers."""

    def __init__(self, src: int, config: AggregationConfig, conveyor: Conveyor,
                 cost: CostModel) -> None:
        self.src = src
        self.config = config
        self.conveyor = conveyor
        self.n_pes = cost.n_pes
        self._stats = conveyor.stats.pe[src]
        self._l3: list[int] = []
        self._l2n: list[list[int]] = [[] for _ in range(self.n_pes)]
        self._l2h: list[list[tuple[int, int]]] = [[] for _ in range(self.n_pes)]

    def add_kmer(self, kmer: int) -> None:
        """``AsyncAdd``'s send half for a single k-mer."""
        if not self.config.enable_l3:
            self._add_to_l2(int(kmer), 1)
            return
        self._l3.append(int(kmer))
        if len(self._l3) == self.config.c3:
            self._process_l3()

    def _process_l3(self) -> None:
        """Sort + accumulate the L3 buffer, then hand each run to L2."""
        self._stats.l3_flushes += 1
        self._l3.sort()
        runs: list[tuple[int, int]] = []
        for kmer in self._l3:
            if runs and runs[-1][0] == kmer:
                runs[-1] = (kmer, runs[-1][1] + 1)
            else:
                runs.append((kmer, 1))
        self._l3 = []
        for kmer, count in runs:
            self._add_to_l2(kmer, count)

    def _add_to_l2(self, kmer: int, count: int) -> None:
        """``AddToL2Buffer`` of Algorithm 4."""
        cfg = self.config
        dst = owner_pe_scalar(kmer, self.n_pes)
        if not cfg.enable_l2:
            self._stats.normal_elements_sent += count
            for _ in range(count):
                self._emit_packet(dst, "NORMAL", [kmer], None)
            return
        if count > cfg.heavy_threshold:
            self._stats.heavy_pairs_sent += 1
            self._l2h[dst].append((kmer, count))
            if len(self._l2h[dst]) == cfg.l2h_capacity_pairs:
                pairs, self._l2h[dst] = self._l2h[dst], []
                self._emit_packet(dst, "HEAVY", [p[0] for p in pairs], [p[1] for p in pairs])
        else:
            # count <= threshold: append `count` occurrences.
            self._stats.normal_elements_sent += count
            for _ in range(count):
                self._l2n[dst].append(kmer)
                if len(self._l2n[dst]) == cfg.c2:
                    elems, self._l2n[dst] = self._l2n[dst], []
                    self._emit_packet(dst, "NORMAL", elems, None)

    def flush(self) -> None:
        """End of stream: the partial L3 buffer, then every L2 buffer."""
        if self.config.enable_l3 and self._l3:
            self._process_l3()
        for dst in range(self.n_pes):
            if self._l2n[dst]:
                elems, self._l2n[dst] = self._l2n[dst], []
                self._emit_packet(dst, "NORMAL", elems, None)
            if self._l2h[dst]:
                pairs, self._l2h[dst] = self._l2h[dst], []
                self._emit_packet(dst, "HEAVY", [p[0] for p in pairs], [p[1] for p in pairs])

    def _emit_packet(self, dst: int, kind: str, kmers: list[int],
                     counts: list[int] | None) -> None:
        # A packet is an L2 flush only when there is an L2 buffer: with
        # L2 off every element goes out as its own packet, unbuffered.
        self._stats.l2_flushes += self.config.enable_l2
        k_arr = np.asarray(kmers, dtype=np.uint64)
        c_arr = None if counts is None else np.asarray(counts, dtype=np.int64)
        per_elem = self.config.elem_bytes * (2 if kind == "HEAVY" else 1)
        group = PacketGroup(src=self.src, dst=dst, kind=kind, kmers=k_arr, counts=c_arr,
                            n_packets=1, payload_bytes=int(k_arr.size) * per_elem)
        self.conveyor.inject_many(self.src, [group])


class Actor:
    """One PE's application logic.

    :meth:`step` does a bounded chunk of source work and returns False
    once the PE's own stream is exhausted; :meth:`on_message` consumes
    one delivered group and returns its service time, which the
    runtime charges with lazy-queue semantics.
    """

    def __init__(self, pe: int) -> None:
        self.pe = pe

    def step(self) -> bool:
        raise NotImplementedError

    def on_message(self, group: PacketGroup, arrival: float) -> float:
        raise NotImplementedError


class ActorRuntime:
    """Round-robin cooperative scheduler driving actors and the conveyor."""

    def __init__(self, cost: CostModel, stats: RunStats, conveyor: Conveyor) -> None:
        self.cost = cost
        self.stats = stats
        self.conveyor = conveyor
        self._delivered_upto = [0] * cost.n_pes

    def _deliver_pending(self, actors: list[Actor]) -> int:
        """Hand newly delivered groups to their actors; returns count."""
        delivered = 0
        for pe, queue in enumerate(self.conveyor.delivered):
            start = self._delivered_upto[pe]
            if start >= len(queue):
                continue
            pe_stats = self.stats.pe[pe]
            jobs = []
            for arrival, group in queue[start:]:
                jobs.append((arrival, actors[pe].on_message(group, arrival)))
                pe_stats.kmers_received += group.n_elements
                pe_stats.elements_received += group.n_elements
                delivered += 1
            pe_stats.clock = self.cost.busy_period(pe_stats.clock, jobs)
            self._delivered_upto[pe] = len(queue)
        return delivered

    def run_until_quiescent(self, actors: list[Actor]) -> float:
        """Drive all actors to completion; ends with a global barrier
        and returns the post-barrier virtual time."""
        if len(actors) != self.cost.n_pes:
            raise ValueError("need exactly one actor per PE")
        active = [True] * len(actors)
        while True:
            progressed = False
            for pe, actor in enumerate(actors):
                if active[pe]:
                    active[pe] = actor.step()
                    progressed = progressed or active[pe]
            self.conveyor.drain()
            delivered = self._deliver_pending(actors)
            if not progressed and not delivered:
                # Sources exhausted; flush stragglers and finish.
                self.conveyor.finalize()
                if not self._deliver_pending(actors):
                    break
        return barrier(self.cost, self.stats)


class DakcActor(Actor):
    """A DAKC PE: parses one read per step through Algorithm 4."""

    def __init__(self, pe: int, reads, k: int, agg: ExactAggregator, cost: CostModel,
                 stats: RunStats, canonical: bool) -> None:
        super().__init__(pe)
        self.reads = reads
        self.k = k
        self.agg = agg
        self.cost = cost
        self.stats = stats
        self.canonical = canonical
        self._next = 0
        self._flushed = False

    def step(self) -> bool:
        if self._next >= len(self.reads):
            if not self._flushed:
                self.agg.flush()
                self._flushed = True
            return False
        codes = np.asarray(self.reads[self._next], dtype=np.uint8)
        self._next += 1
        kmers = parse_kmers([codes], self.k, self.canonical)
        pe_stats = self.stats.pe[self.pe]
        pe_stats.kmers_generated += int(kmers.size)
        self.cost.charge_compute(pe_stats, int(kmers.size))
        self.cost.charge_mem(pe_stats, int(codes.size))
        for kmer in kmers.tolist():
            self.agg.add_kmer(kmer)
        # Stay active until the exhausted branch has flushed the
        # aggregation buffers (next call).
        return True

    def on_message(self, group: PacketGroup, arrival: float) -> float:
        return receive_service_time(self.cost, group)


def dakc_count_reference(
    reads: np.ndarray | list,
    k: int,
    cost: CostModel | MachineConfig,
    config: DakcConfig,
    *,
    conveyor_factory=None,
) -> tuple[KmerCounts, RunStats]:
    """:func:`~repro.core.dakc.dakc_count` with Phase 1 run element by
    element on :class:`ActorRuntime`: the same counts and wire counters."""
    run = SimRun(cost)
    cost, stats, n_pes = run.cost, run.stats, run.n_pes
    conveyor = open_conveyor(run, config, conveyor_factory)
    per_pe_reads = split_reads(reads, n_pes)

    run.barrier()  # sync 1
    actors = [
        DakcActor(pe, per_pe_reads[pe], k, ExactAggregator(pe, config.agg, conveyor, cost),
                  cost, stats, config.canonical)
        for pe in range(n_pes)
    ]
    ActorRuntime(cost, stats, conveyor).run_until_quiescent(actors)  # sync 2
    stats.phase1_time = stats.max_clock

    _verify_conservation(stats, conveyor)
    results = [
        _phase2(dst, [g for _, g in conveyor.delivered[dst]], k, run)
        for dst in range(n_pes)
    ]
    return run.finish(k, results, protocol=config.protocol)  # sync 3
