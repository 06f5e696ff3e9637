"""Application-level aggregation: the L2 and L3 layers of Algorithm 4.

This is the heart of DAKC's communication design (Section IV):

* **L3** (heavy-hitter catcher): parsed k-mers accumulate in one
  per-PE buffer of ``C3`` elements.  A full buffer is sorted and
  run-length accumulated *locally*; k-mers whose local count exceeds
  the heavy threshold (paper: count > 2) travel as ``{kmer, count}``
  pairs on the HEAVY path, the rest on the NORMAL path (a count of 2
  sends the k-mer twice, exactly as Algorithm 4 does).

* **L2** (header amortisation): per-destination buffers pack ``C2``
  NORMAL elements (or ``C2/2`` HEAVY pairs) into a single wire packet,
  so the 32-bit routing header of the 2D/3D protocols is paid once per
  packet rather than once per 8-byte k-mer.

Both layers exist in two implementations with identical semantics and
identical flush statistics:

* :class:`BulkAggregator` — vectorised, array-at-a-time (the fast
  path used for real workloads);
* :class:`ExactAggregator` — a literal per-element transcription of
  Algorithm 4 (``AddToL3Buffer`` / ``AddToL2Buffer``), used by tests
  and the exact execution mode.

Property tests assert the two produce the same delivered multiset and
the same packet/flush counts on identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime.conveyors import Conveyor, PacketGroup
from ..runtime.cost import (
    OPS_PER_ELEMENT_BUFFER,
    OPS_PER_ELEMENT_RECV,
    OPS_PER_PACKET,
    CostModel,
)
from ..sort.radix import effective_msd_passes, radix_passes_for_bits
from .owner import by_owner, owner_pe, owner_pe_scalar

__all__ = [
    "AggregationConfig",
    "BulkAggregator",
    "ExactAggregator",
    "receive_service_time",
]

#: Working set below which an L3 sort stays in the LLC (a slice of any
#: realistic last-level cache; the default 80 KB buffer is far under).
L3_RESIDENT_BYTES: int = 8 * 1024 * 1024

#: Fixed cost of one L3 sort+accumulate invocation: radix histogram
#: zeroing (256 buckets x 8 digits) plus call/recursion bookkeeping.
OPS_PER_L3_FLUSH: int = 2560


@dataclass(frozen=True, slots=True)
class AggregationConfig:
    """Tunables of the application aggregation layers (Table III).

    ``enable_l3`` requires ``enable_l2``: the paper's ablation (Fig. 12)
    studies L0-L1, L0-L2 and L0-L3 configurations — L3 always sits on
    top of L2.
    """

    c2: int = 32
    c3: int = 10_000
    heavy_threshold: int = 2  # HEAVY when local count > this
    enable_l2: bool = True
    enable_l3: bool = True
    elem_bytes: int = 8

    def __post_init__(self) -> None:
        if self.c2 < 2:
            raise ValueError("C2 must be >= 2 (an L2H packet holds C2/2 pairs)")
        if self.c3 < 1:
            raise ValueError("C3 must be >= 1")
        if self.heavy_threshold < 1:
            raise ValueError("heavy threshold must be >= 1")
        if self.enable_l3 and not self.enable_l2:
            raise ValueError("L3 requires L2 (paper evaluates L0-L1/L0-L2/L0-L3)")

    @property
    def l2h_capacity_pairs(self) -> int:
        return max(1, self.c2 // 2)


def receive_service_time(cost: CostModel, group: PacketGroup) -> float:
    """Receive-side processing time of one delivered group.

    ``ProcessReceiveBuffer`` of Algorithm 4: copy the payload into the
    local array ``T`` (memory traffic) plus per-element dispatch and
    per-packet header parsing.  Remote-origin groups additionally pay
    NIC *ingress* on the receiver's bandwidth share — this serialises
    incast at a heavy-hitter's owner PE, which is precisely the load
    imbalance the L3 protocol removes (Section IV-D).
    """
    ops = group.n_elements * OPS_PER_ELEMENT_RECV + group.n_packets * OPS_PER_PACKET
    t = group.payload_bytes / cost.pe_mem_bw + ops / cost.pe_ops
    if not cost.colocated(group.src, group.dst):
        t += group.payload_bytes / cost.pe_link_bw
    return t


class BulkAggregator:
    """Vectorised L3 + L2 pipeline for one source PE."""

    def __init__(
        self,
        src: int,
        config: AggregationConfig,
        conveyor: Conveyor,
        cost: CostModel,
        *,
        k: int = 31,
        charge_costs: bool = True,
    ) -> None:
        self.src = src
        self.config = config
        self.conveyor = conveyor
        self.cost = cost
        self.n_pes = cost.n_pes
        self.k = k
        self.charge_costs = charge_costs
        self._stats = conveyor.stats.pe[src]
        self._sort_passes = radix_passes_for_bits(2 * k, 8)
        # L3 state: pending chunks awaiting a full C3 buffer.
        self._l3_pending: list[np.ndarray] = []
        self._l3_fill = 0
        # L2 state, per destination: pending element arrays + fills.
        self._l2n: dict[int, list[np.ndarray]] = {}
        self._l2n_fill = np.zeros(self.n_pes, dtype=np.int64)
        self._l2h: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._l2h_fill = np.zeros(self.n_pes, dtype=np.int64)

    # -- public API -----------------------------------------------------

    def add_kmers(self, kmers: np.ndarray) -> None:
        """Feed a batch of parsed k-mers through the aggregation stack."""
        kmers = np.asarray(kmers, dtype=np.uint64)
        if kmers.size == 0:
            return
        if self.charge_costs:
            self.cost.charge_compute(
                self._stats, kmers.size * OPS_PER_ELEMENT_BUFFER
            )
        if not self.config.enable_l3:
            self._route_normal(kmers)
            return
        self._l3_pending.append(kmers)
        self._l3_fill += kmers.size
        while self._l3_fill >= self.config.c3:
            chunk = self._take_l3_chunk(self.config.c3)
            self._process_l3_chunk(chunk)

    def flush(self) -> None:
        """End of stream: drain L3 remainder, then all L2 buffers."""
        if self.config.enable_l3 and self._l3_fill:
            chunk = self._take_l3_chunk(self._l3_fill)
            self._process_l3_chunk(chunk)
        for dst in list(self._l2n.keys()):
            self._flush_l2n(dst)
        for dst in list(self._l2h.keys()):
            self._flush_l2h(dst)

    # -- L3 ---------------------------------------------------------------

    def _take_l3_chunk(self, size: int) -> np.ndarray:
        buf = np.concatenate(self._l3_pending) if len(self._l3_pending) > 1 else self._l3_pending[0]
        chunk, rest = buf[:size], buf[size:]
        self._l3_pending = [rest] if rest.size else []
        self._l3_fill = int(rest.size)
        return chunk

    def _process_l3_chunk(self, chunk: np.ndarray) -> None:
        """Sort + accumulate one L3 buffer; classify HEAVY vs NORMAL."""
        self._stats.l3_flushes += 1
        if self.charge_costs:
            # L3 sort cost.  The L3 buffer is an absolute design
            # constant (80 KB at the default C3), cache resident on any
            # real LLC: one read+write sweep plus fixed sort setup
            # (radix histogram zeroing + call overhead).  Only an
            # oversized C3 spills to DRAM and pays per-digit sweeps —
            # the "very high C3 values incur additional sorting
            # overheads" of Fig. 13b.
            chunk_bytes = chunk.size * self.config.elem_bytes
            if chunk_bytes > L3_RESIDENT_BYTES:
                sweeps = effective_msd_passes(int(chunk.size), self._sort_passes)
            else:
                sweeps = 1
            self.cost.charge_compute(
                self._stats, chunk.size * self._sort_passes + OPS_PER_L3_FLUSH
            )
            self.cost.charge_mem(self._stats, 2 * chunk_bytes * sweeps)
        s = np.sort(chunk)
        boundaries = np.flatnonzero(s[1:] != s[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [s.size]))
        uniq = s[starts]
        counts = (ends - starts).astype(np.int64)
        heavy_mask = counts > self.config.heavy_threshold
        if heavy_mask.any():
            self._route_heavy(uniq[heavy_mask], counts[heavy_mask])
        light_u = uniq[~heavy_mask]
        light_c = counts[~heavy_mask]
        if light_u.size:
            # Counts 1..threshold are re-expanded into occurrences,
            # exactly as Algorithm 4 re-appends a count-2 k-mer twice.
            self._route_normal(np.repeat(light_u, light_c))

    # -- routing ----------------------------------------------------------

    def _route_normal(self, kmers: np.ndarray) -> None:
        cfg = self.config
        for dst, chunk in by_owner(owner_pe(kmers, self.n_pes), self.n_pes, kmers):
            self._stats.normal_elements_sent += chunk.size
            if not cfg.enable_l2:
                # No L2: every element is its own packet (the header
                # overhead scenario of Section IV-C).
                self._emit(dst, "NORMAL", chunk, None,
                           n_packets=int(chunk.size),
                           payload_bytes=int(chunk.size) * cfg.elem_bytes)
                continue
            self._l2n.setdefault(dst, []).append(chunk)
            self._l2n_fill[dst] += chunk.size
            if self._l2n_fill[dst] >= cfg.c2:
                self._flush_l2n(dst, keep_partial=True)

    def _route_heavy(self, kmers: np.ndarray, counts: np.ndarray) -> None:
        cfg = self.config
        for dst, ch_k, ch_c in by_owner(
                owner_pe(kmers, self.n_pes), self.n_pes, kmers, counts):
            self._stats.heavy_pairs_sent += ch_k.size
            self._l2h.setdefault(dst, []).append((ch_k, ch_c))
            self._l2h_fill[dst] += ch_k.size
            if self._l2h_fill[dst] >= cfg.l2h_capacity_pairs:
                self._flush_l2h(dst, keep_partial=True)

    # -- L2 flushes ---------------------------------------------------------

    def _flush_l2n(self, dst: int, *, keep_partial: bool = False) -> None:
        fill = int(self._l2n_fill[dst])
        if fill == 0:
            self._l2n.pop(dst, None)
            return
        cfg = self.config
        chunks = self._l2n.pop(dst)
        data = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        if keep_partial:
            n_full = (fill // cfg.c2) * cfg.c2
            send, keep = data[:n_full], data[n_full:]
            n_packets = fill // cfg.c2
        else:
            send, keep = data, data[:0]
            n_packets = -(-fill // cfg.c2)  # ceil: final partial packet
        if keep.size:
            self._l2n[dst] = [keep]
        self._l2n_fill[dst] = int(keep.size)
        if send.size:
            self._stats.l2_flushes += n_packets
            self._emit(dst, "NORMAL", send, None,
                       n_packets=n_packets,
                       payload_bytes=int(send.size) * cfg.elem_bytes)

    def _flush_l2h(self, dst: int, *, keep_partial: bool = False) -> None:
        fill = int(self._l2h_fill[dst])
        if fill == 0:
            self._l2h.pop(dst, None)
            return
        cfg = self.config
        cap = cfg.l2h_capacity_pairs
        parts = self._l2h.pop(dst)
        ks = np.concatenate([p[0] for p in parts])
        cs = np.concatenate([p[1] for p in parts])
        if keep_partial:
            n_full = (fill // cap) * cap
            send_k, keep_k = ks[:n_full], ks[n_full:]
            send_c, keep_c = cs[:n_full], cs[n_full:]
            n_packets = fill // cap
        else:
            send_k, keep_k = ks, ks[:0]
            send_c, keep_c = cs, cs[:0]
            n_packets = -(-fill // cap)
        if keep_k.size:
            self._l2h[dst] = [(keep_k, keep_c)]
        self._l2h_fill[dst] = int(keep_k.size)
        if send_k.size:
            self._stats.l2_flushes += n_packets
            # A HEAVY pair is two 8-byte words on the wire.
            self._emit(dst, "HEAVY", send_k, send_c,
                       n_packets=n_packets,
                       payload_bytes=int(send_k.size) * 2 * cfg.elem_bytes)

    def _emit(
        self,
        dst: int,
        kind: str,
        kmers: np.ndarray,
        counts: np.ndarray | None,
        *,
        n_packets: int,
        payload_bytes: int,
    ) -> None:
        if self.charge_costs:
            self.cost.charge_compute(self._stats, n_packets * OPS_PER_PACKET)
        self.conveyor.inject(
            PacketGroup(
                src=self.src,
                dst=dst,
                kind=kind,
                kmers=kmers,
                counts=counts,
                n_packets=n_packets,
                payload_bytes=payload_bytes,
            )
        )


class ExactAggregator:
    """Per-element transcription of Algorithm 4 (tests / exact mode).

    Follows the pseudocode line by line: ``AddToL3Buffer`` fills a
    single list to exactly ``C3`` before sort+accumulate;
    ``AddToL2Buffer`` appends to per-destination lists, flushing at
    exactly ``C2`` elements (NORMAL) or ``C2/2`` pairs (HEAVY).
    """

    def __init__(
        self,
        src: int,
        config: AggregationConfig,
        conveyor: Conveyor,
        cost: CostModel,
        *,
        k: int = 31,
        charge_costs: bool = False,
    ) -> None:
        self.src = src
        self.config = config
        self.conveyor = conveyor
        self.cost = cost
        self.n_pes = cost.n_pes
        self.k = k
        self.charge_costs = charge_costs
        self._stats = conveyor.stats.pe[src]
        self._l3: list[int] = []
        self._l2n: list[list[int]] = [[] for _ in range(self.n_pes)]
        self._l2h: list[list[tuple[int, int]]] = [[] for _ in range(self.n_pes)]

    def add_kmer(self, kmer: int) -> None:
        """``AsyncAdd``'s send half for a single k-mer."""
        cfg = self.config
        if not cfg.enable_l3:
            self._add_to_l2(int(kmer), 1)
            return
        self._l3.append(int(kmer))
        if len(self._l3) == cfg.c3:
            self._process_l3()

    def _process_l3(self) -> None:
        self._stats.l3_flushes += 1
        self._l3.sort()
        # Accumulate the sorted buffer.
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
                pairs = self._l2h[dst]
                self._l2h[dst] = []
                self._emit_packet(
                    dst, "HEAVY", [p[0] for p in pairs], [p[1] for p in pairs]
                )
        else:
            # count <= threshold: append `count` occurrences.
            self._stats.normal_elements_sent += count
            for _ in range(count):
                self._l2n[dst].append(kmer)
                if len(self._l2n[dst]) == cfg.c2:
                    elems = self._l2n[dst]
                    self._l2n[dst] = []
                    self._emit_packet(dst, "NORMAL", elems, None)

    def flush(self) -> None:
        cfg = self.config
        if cfg.enable_l3 and self._l3:
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
        for dst in range(self.n_pes):
            if self._l2n[dst]:
                elems = self._l2n[dst]
                self._l2n[dst] = []
                self._emit_packet(dst, "NORMAL", elems, None)
            if self._l2h[dst]:
                pairs = self._l2h[dst]
                self._l2h[dst] = []
                self._emit_packet(
                    dst, "HEAVY", [p[0] for p in pairs], [p[1] for p in pairs]
                )

    def _emit_packet(
        self, dst: int, kind: str, kmers: list[int], counts: list[int] | None
    ) -> None:
        self._stats.l2_flushes += 1
        k_arr = np.asarray(kmers, dtype=np.uint64)
        c_arr = None if counts is None else np.asarray(counts, dtype=np.int64)
        per_elem = self.config.elem_bytes * (2 if kind == "HEAVY" else 1)
        if self.charge_costs:
            self.cost.charge_compute(self._stats, OPS_PER_PACKET)
        self.conveyor.inject(
            PacketGroup(
                src=self.src,
                dst=dst,
                kind=kind,
                kmers=k_arr,
                counts=c_arr,
                n_packets=1,
                payload_bytes=int(k_arr.size) * per_elem,
            )
        )
