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

:class:`BulkAggregator` runs both layers array-at-a-time.  The tests
hold a literal per-element transcription of Algorithm 4
(``AddToL3Buffer`` / ``AddToL2Buffer``) as its reference and assert
the same delivered multiset and the same packet/flush counts on
identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..runtime.conveyors import Conveyor, PacketGroup
from ..runtime.cost import (
    OPS_PER_ELEMENT_BUFFER,
    OPS_PER_ELEMENT_RECV,
    OPS_PER_PACKET,
    ClockLedger,
    CostModel,
)
from ..sort.radix import effective_msd_passes, radix_passes_for_bits
from .owner import owner_pe, owner_split

__all__ = [
    "AggregationConfig",
    "BulkAggregator",
    "receive_service_time",
    "receive_service_times",
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
    return receive_service_times(cost, group.src, group.dst, group.n_elements,
                                 group.n_packets, group.payload_bytes)


def receive_service_times(cost: CostModel, src, dst, n_elements, n_packets, payload_bytes):
    """:func:`receive_service_time` of one group (ints) or of many
    (arrays, element by element: the same operations in the same order,
    so the same bits)."""
    ops = n_elements * OPS_PER_ELEMENT_RECV + n_packets * OPS_PER_PACKET
    t = payload_bytes / cost.pe_mem_bw + ops / cost.pe_ops
    # The ingress term is added only for a remote group: t + 0.0 is t.
    remote = cost.node_of(src) != cost.node_of(dst)
    return t + remote * (payload_bytes / cost.pe_link_bw)


class _L2Buffers:
    """The L2 buffers of both kinds for every destination: row 0 holds
    HEAVY pairs (``C2/2`` a packet), row 1 NORMAL elements (``C2``).

    A batch lays each (kind, destination) stream out as its residual
    (column 0 of ``sizes``), then its share of each chunk.  The fill
    after column *c* is the cumsum ``S`` of the shares, nothing sent
    subtracted, so the packets chunk *c* flushes are the difference of
    ``S // capacity``, and each flushed group is a slice of the stream.
    ``stamp`` keeps the order of the per-destination dict the
    one-group-at-a-time code kept: a destination was (re)inserted when
    an append found it empty and when a partial flush left a remainder.
    """

    def __init__(self, n_pes: int, config: AggregationConfig) -> None:
        self.capacity = np.array([[config.l2h_capacity_pairs], [config.c2]])
        self.fill = np.zeros((2, n_pes), dtype=np.int64)
        self.stamp = np.zeros((2, n_pes), dtype=np.int64)
        # Residuals (< capacity each), destination-major.
        self.heavy = np.empty(0, dtype=np.uint64)
        self.counts = np.empty(0, dtype=np.int64)
        self.normal = np.empty(0, dtype=np.uint64)

    def cut(self, sizes, first_stamp, heavy, counts, normal):
        """Fill from one batch's streams and keep what is left over.

        *sizes* is ``(2, P, 1 + n_chunks)``.  Returns the packets per
        (kind, destination, chunk) and each one's group bounds.
        """
        cap = self.capacity[..., None]
        cum = sizes.cumsum(axis=2)
        sent = cum // cap * cap
        packets = (sent[..., 1:] - sent[..., :-1]) // cap
        length = cum[..., -1]
        starts = (length.cumsum(axis=1) - length)[..., None] + sent
        touched = (sizes[..., 1:] > 0) & ((cum[..., :-1] % cap == 0) | (packets > 0))
        hit = touched.any(axis=2)
        last = touched.shape[2] - 1 - touched[..., ::-1].argmax(axis=2)
        self.stamp[hit] = first_stamp + last[hit]
        self.fill = length % self.capacity
        keep = _ranges(starts[0, :, -1], self.fill[0])
        self.heavy, self.counts = heavy[keep], counts[keep]
        self.normal = normal[_ranges(starts[1, :, -1], self.fill[1])]
        return packets, starts[..., :-1], starts[..., 1:]

    def drain(self):
        """Empty every buffer: ``(kind, dst, lo, hi)`` of the non-empty
        ones, NORMAL first, each kind in its dict order, as slices of
        the residual streams, and those streams."""
        dsts = []
        for row in (1, 0):
            dst = self.fill[row].nonzero()[0]
            dsts.append(dst[self.stamp[row, dst].argsort(kind="stable")])
        kind = np.repeat([1, 0], [len(d) for d in dsts])
        dst = np.concatenate(dsts)
        hi = self.fill.cumsum(axis=1)
        lo = hi - self.fill
        streams = self.heavy, self.counts, self.normal
        self.fill = np.zeros_like(self.fill)
        self.heavy, self.counts, self.normal = self.heavy[:0], self.counts[:0], self.normal[:0]
        return kind, dst, lo[kind, dst], hi[kind, dst], streams


def _ranges(starts, lengths):
    """Concatenated ``range(start, start + length)``s."""
    ends = lengths.cumsum()
    return (starts - ends + lengths).repeat(lengths) + np.arange(ends[-1] if ends.size else 0)


class BulkAggregator:
    """Vectorised L3 + L2 pipeline for one source PE.

    One :meth:`add_kmers` call is one array pass over its complete C3
    chunks (sort, heavy runs, owners, one stable split by owner and
    chunk), one L2 fill by cumsum per kind, and one
    :meth:`~repro.runtime.conveyors.Conveyor.inject_many` whose ledger
    carries this layer's charges in their per-group order.
    """

    def __init__(
        self,
        src: int,
        config: AggregationConfig,
        conveyor: Conveyor,
        cost: CostModel,
        *,
        k: int = 31,
    ) -> None:
        self.src = src
        self.config = config
        self.conveyor = conveyor
        self.cost = cost
        self.n_pes = cost.n_pes
        self.k = k
        self._stats = conveyor.stats.pe[src]
        self._sort_passes = radix_passes_for_bits(2 * k, 8)
        # L3 state: pending k-mers short of a full C3 buffer.
        self._l3_pending: list[np.ndarray] = []
        self._l3_fill = 0
        # L2 state, per destination; chunks are numbered as they arrive.
        self._l2 = _L2Buffers(self.n_pes, config)
        self._chunks = 0

    # -- public API -----------------------------------------------------

    def add_kmers(self, kmers: np.ndarray) -> None:
        """Feed a batch of parsed k-mers through the aggregation stack."""
        kmers = np.asarray(kmers, dtype=np.uint64)
        if kmers.size == 0:
            return
        ledger = self.cost.ledger(self._stats)
        ledger.add_one(ledger.COMPUTE, ledger.key(0, ledger.CALLER),
                       kmers.size * OPS_PER_ELEMENT_BUFFER)
        if not self.config.enable_l3:
            none = np.empty(0, dtype=np.int64)
            self._inject(ledger, *self._route(ledger, kmers, none, none, 1, 0))
            return
        self._l3_pending.append(kmers)
        self._l3_fill += kmers.size
        c3 = self.config.c3
        n_chunks = self._l3_fill // c3
        if not n_chunks:
            ledger.apply()
            return
        buf = np.concatenate(self._l3_pending) if len(self._l3_pending) > 1 else kmers
        rest = buf[n_chunks * c3:]
        self._l3_pending = [rest] if rest.size else []
        self._l3_fill = int(rest.size)
        self._inject(ledger, *self._send_chunks(ledger, buf[:n_chunks * c3].reshape(n_chunks, c3)))

    def flush(self) -> None:
        """End of stream: drain L3 remainder, then all L2 buffers."""
        ledger = self.cost.ledger(self._stats)
        parts = []
        if self.config.enable_l3 and self._l3_fill:
            rest = np.concatenate(self._l3_pending)
            self._l3_pending, self._l3_fill = [], 0
            parts.append(self._send_chunks(ledger, rest.reshape(1, -1)))
        # NORMAL buffers, then HEAVY, each in its dict order; the final
        # flush sends the partial packet too.
        kind, dst, lo, hi, streams = self._l2.drain()
        n_packets = -(-(hi - lo) // self._l2.capacity[kind, 0])
        self._stats.l2_flushes += int(n_packets.sum())
        parts.append(self._groups(kind, dst, lo, hi, n_packets, streams))
        self._inject(ledger, *_concat(*parts))

    # -- L3 ---------------------------------------------------------------

    def _send_chunks(self, ledger: ClockLedger, chunks: np.ndarray):
        """Sort + accumulate L3 buffers (the rows); route their k-mers.

        A run longer than the heavy threshold ``t`` is HEAVY; its first
        elements are the ``i`` with ``s[i] == s[i + t]`` in one row.
        Those are few, so only their runs are measured: the rest of a
        row goes out element by element, a count-2 k-mer twice.
        """
        n_chunks, width = chunks.shape
        self._stats.l3_flushes += n_chunks
        s = np.sort(chunks, axis=1)
        t = self.config.heavy_threshold
        head = np.empty(0, dtype=np.int64)
        if width > t:
            head = np.flatnonzero(s[:, :-t] == s[:, t:])
            head += head // (width - t) * t  # flat index into s
        new_run = np.ones(head.size, dtype=bool)
        new_run[1:] = head[1:] - head[:-1] != 1
        new_run = new_run.nonzero()[0]
        lengths = np.concatenate((new_run[1:], [head.size])) - new_run + t
        return self._route(ledger, s.ravel(), head[new_run], lengths, n_chunks, width)

    # -- routing ----------------------------------------------------------

    def _route(self, ledger, kmers, h_starts, h_lengths, n_chunks, width):
        """Route one batch of sorted chunks (or, with ``width`` 0, the
        unsorted k-mers of the no-L3 path as one chunk) through L2;
        return the groups it sends and their packet counts.

        ``h_starts``/``h_lengths`` are the HEAVY runs, sent as pairs;
        every other element is NORMAL, sent as itself, which is how
        Algorithm 4 re-appends a k-mer counted 1..threshold times.  One
        stable split by (owner, chunk) lays out each kind's stream, a
        destination's L2 residual first as its chunk "-1".  Each chunk
        sends its HEAVY groups, then its NORMAL groups, each in
        ascending destination order.
        """
        cfg, p = self.config, self.n_pes
        cols = n_chunks + 1
        key = owner_pe(kmers, p).astype(np.uint32)
        key *= cols
        key.reshape(n_chunks, -1)[:] += np.arange(1, cols, dtype=np.uint32)[:, None]
        h_key = key[h_starts]
        key[_ranges(h_starts, h_lengths)] = p * cols  # HEAVY: past every bucket
        l2 = self._l2
        buckets = np.arange(p, dtype=np.uint32) * cols
        order, n_sizes = owner_split(
            np.concatenate((buckets.repeat(l2.fill[1]), key)), p * cols + 1)
        normal = np.concatenate((l2.normal, kmers))[order[:n_sizes[:-1].sum()]]
        h_order, h_sizes = owner_split(
            np.concatenate((buckets.repeat(l2.fill[0]), h_key)), p * cols)
        heavy = np.concatenate((l2.heavy, kmers[h_starts]))[h_order]
        h_counts = np.concatenate((l2.counts, h_lengths))[h_order]
        sizes = np.concatenate((h_sizes, n_sizes[:-1])).reshape(2, p, cols)
        self._stats.normal_elements_sent += normal.size - int(l2.fill[1].sum())
        self._stats.heavy_pairs_sent += h_starts.size
        stamp = self._chunks
        self._chunks += n_chunks
        streams = heavy, h_counts, normal
        if not cfg.enable_l2:
            # No L2: every element is its own packet (the header
            # overhead scenario of Section IV-C).
            dst = sizes[1, :, 1].nonzero()[0]
            hi = sizes[1, :, 1].cumsum()[dst]
            lo = hi - sizes[1, dst, 1]
            return self._groups(np.ones_like(dst), dst, lo, hi, hi - lo, streams)
        packets, lo, hi = l2.cut(sizes, stamp, *streams)
        # Emission order: chunk, then HEAVY before NORMAL, then destination.
        packets, lo, hi = (a.transpose(2, 0, 1).ravel() for a in (packets, lo, hi))
        sent = packets.nonzero()[0]
        self._stats.l2_flushes += int(packets.sum())
        if width:
            # L3 sort cost.  The L3 buffer is an absolute design
            # constant (80 KB at the default C3), cache resident on any
            # real LLC: one read+write sweep plus fixed sort setup
            # (radix histogram zeroing + call overhead).  Only an
            # oversized C3 spills to DRAM and pays per-digit sweeps —
            # the "very high C3 values incur additional sorting
            # overheads" of Fig. 13b.
            chunk_bytes = width * cfg.elem_bytes
            sweeps = 1
            if chunk_bytes > L3_RESIDENT_BYTES:
                sweeps = effective_msd_passes(width, self._sort_passes)
            # Chunk c's sort runs just before its first group goes out.
            at = (sent // (2 * p)).searchsorted(np.arange(n_chunks))
            ledger.add(np.array([ledger.COMPUTE, ledger.MEMORY] * n_chunks),
                       ledger.key(at, ledger.CALLER).repeat(2),
                       np.array([width * self._sort_passes + OPS_PER_L3_FLUSH,
                                 2 * chunk_bytes * sweeps] * n_chunks))
        return self._groups(sent // p % 2, sent % p, lo[sent], hi[sent], packets[sent], streams)

    def _groups(self, kind, dst, lo, hi, n_packets, streams):
        """Groups over ``[lo, hi)`` slices of their kind's stream (kind 0
        HEAVY pairs, 1 NORMAL elements), with their packet counts."""
        heavy, counts, normal = streams
        payload = (hi - lo) * (2 - kind) * self.config.elem_bytes
        # A HEAVY group's counts are a slice; a NORMAL group has none.
        groups = [
            PacketGroup(self.src, d, "HEAVY", heavy[a:b], counts[a:b], n, nbytes) if k == 0
            else PacketGroup(self.src, d, "NORMAL", normal[a:b], None, n, nbytes)
            for k, d, a, b, n, nbytes in zip(kind.tolist(), dst.tolist(), lo.tolist(),
                                             hi.tolist(), n_packets.tolist(), payload.tolist())
        ]
        return groups, n_packets

    def _inject(self, ledger, groups, n_packets) -> None:
        """Charge each group's packet handling, then hand the batch on."""
        ledger.add(ledger.COMPUTE, ledger.key(np.arange(len(groups)), ledger.CALLER),
                   n_packets * OPS_PER_PACKET)
        self.conveyor.inject_many(self.src, groups, ledger)


def _concat(*parts):
    """``(groups, n_packets)`` parts, one after the other."""
    groups, n_packets = zip(*parts)
    return list(chain.from_iterable(groups)), np.concatenate(n_packets)
