"""Pass-1 pins: the exact bytes a spill writer leaves on disk.

The bin files and :class:`OocStats` of a seeded k=31 run are pinned by
SHA-256 and value, under both flush policies, at a ceiling that forces
several flush waves: a change to how pass 1 buffers, packs or flushes
must leave every byte, flush and counter where it was.  The packing
kernel itself is checked against a per-record scalar reference.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ooc.spill import BinWriter, OocStats, largest_first, seeded_order
from repro.seq.alphabet import INVALID_CODE
from repro.seq.superkmers import pack_spans

K, W, N_BINS, CEILING = 31, 7, 8, 2000


def pinned_reads(seed: int = 2024) -> np.ndarray:
    """120 x 100 bp reads off a 3 kb genome (repeats), ~0.5% ambiguous."""
    rng = np.random.default_rng(seed)
    genome = rng.integers(0, 4, 3000).astype(np.uint8)
    starts = rng.integers(0, genome.size - 100, 120)
    reads = np.stack([genome[s:s + 100] for s in starts])
    reads[rng.random(reads.shape) < 0.005] = INVALID_CODE
    return reads


#: Recorded on the commit before pass 1 packed a sub-batch once.
PINS = {
    "largest_first": (
        {
            "bin-00000.skb":
                "9b81684c5099a76038169bb47651fd04306c694ec4de0ae1e84376ec385db944",
            "bin-00001.skb":
                "6a6ae0a351ed017412af7e1260fe298c5de749b330767dd3723078cb469151c5",
            "bin-00002.skb":
                "dafe79586a67ba87e12cd59fd33d3a13b39b2458158c68a6668b68b4a79b79e7",
            "bin-00003.skb":
                "b9847ae59204e7f271dd1ec84ed1e6c3b78419740e413821e8e4171a8a61dd4e",
            "bin-00004.skb":
                "e58e61cebad95a5ed763e319adb2591990fa7cd746369f104bf850f897ab09f4",
            "bin-00005.skb":
                "b72c6188f69a606098b5766799628627773bfb888ac110370a99d0b625084bad",
            "bin-00006.skb":
                "9c6f8c24569752c6b371bdcdfd13b0b9efb705c691348a6d3aaacb9e59315cd9",
            "bin-00007.skb":
                "6a9f542018854be3775215686c62d45d09506526267885029f81c3e627fad066",
        },
        {"n_reads": 120, "n_superkmers": 697, "n_kmers": 7368,
         "n_bins_used": 8, "n_flushes": 61, "n_ceiling_hits": 12,
         "bytes_spilled": 11086, "bytes_reread": 0,
         "peak_buffered_bytes": 4219},
    ),
    "seeded_order": (
        {
            "bin-00000.skb":
                "fd2b24d666b2bd232fa4c9313a353310469bd9fc63083ba0f645bfc9834bf154",
            "bin-00001.skb":
                "627c21a1a3409bb9047a4247fe1e9b113c8dbbf8ed435acfc3aa8ee1ab7415cc",
            "bin-00002.skb":
                "0cf4408c0678c3177883eff6682f7acba58cfc1b051f7a91ff72ae0b1b3461a3",
            "bin-00003.skb":
                "5b0adea010240831adb167329aa83f8cca3d9f82cb406ac6c6432f4aaa5a16ff",
            "bin-00004.skb":
                "449329edf4879031695beb035df38af25fc9d1106e1b306b7bd4f5907f69c2a1",
            "bin-00005.skb":
                "4f64a1d18ef11edd9b891b521b65d8162340eb37e1fbe8ac890ec547e08c9084",
            "bin-00006.skb":
                "fa87d68f5d0a538dabbf10e06f9682228d53df63756ec3691494697e2e689f87",
            "bin-00007.skb":
                "2c2259da7e765fe880dddeecfe60b76eae5afe533a45db7c8d72ff77918c9386",
        },
        {"n_reads": 120, "n_superkmers": 697, "n_kmers": 7368,
         "n_bins_used": 8, "n_flushes": 81, "n_ceiling_hits": 12,
         "bytes_spilled": 11326, "bytes_reread": 0,
         "peak_buffered_bytes": 4092},
    ),
}


@pytest.mark.parametrize("policy", sorted(PINS))
def test_bin_bytes_and_stats_are_pinned(tmp_path, policy):
    order = largest_first if policy == "largest_first" else seeded_order(5)
    stats = OocStats()
    with BinWriter(tmp_path, K, W, N_BINS, ceiling_bytes=CEILING,
                   flush_order=order, stats=stats) as bw:
        bw.add_reads(pinned_reads())
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in bw.close()}
    want_digests, want_stats = PINS[policy]
    assert stats.n_ceiling_hits >= 3
    assert digests == want_digests
    assert stats.to_doc() == want_stats


def reference_pack(codes, starts, lengths):
    """One record at a time: 4 bases/byte, high bits first, byte-padded."""
    out = bytearray()
    for s, n in zip(starts, lengths):
        span = [int(c) for c in codes[s:s + n]]
        if max(span) > 3:
            raise ValueError("super-k-mer codes must be 2-bit (no ambiguity)")
        span += [0] * (-n % 4)
        for i in range(0, len(span), 4):
            a, b, c, d = span[i:i + 4]
            out.append(a << 6 | b << 4 | c << 2 | d)
    return np.asarray(lengths, dtype=np.uint32), np.frombuffer(bytes(out),
                                                               dtype=np.uint8)


class TestPackSpans:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, 400).astype(np.uint8)
        n = 60
        # Overlapping spans of every residue mod 4, one-base spans and a
        # span that ends on the last code.
        lengths = rng.integers(1, 40, n)
        lengths[:8] = [1, 2, 3, 4, 5, 6, 7, 8]
        starts = rng.integers(0, codes.size - lengths + 1)
        starts[-1], lengths[-1] = codes.size - 13, 13
        got_l, got_b = pack_spans(codes, starts, lengths)
        want_l, want_b = reference_pack(codes, starts, lengths)
        assert got_l.dtype == np.uint32 and got_b.dtype == np.uint8
        assert np.array_equal(got_l, want_l)
        assert np.array_equal(got_b, want_b)

    def test_one_base_spans(self):
        codes = np.array([3, 1, 2, 0, 3], dtype=np.uint8)
        starts = np.arange(5)
        lengths, blob = pack_spans(codes, starts, np.ones(5, dtype=np.int64))
        assert lengths.tolist() == [1] * 5
        assert blob.tolist() == [0xC0, 0x40, 0x80, 0x00, 0xC0]

    def test_ambiguous_code_in_a_span_is_refused(self):
        codes = np.array([0, 1, 2, 3, INVALID_CODE, 1, 2], dtype=np.uint8)
        with pytest.raises(ValueError, match="2-bit"):
            pack_spans(codes, np.array([2]), np.array([4]))
        # The same code outside every span is not looked at.
        lengths, blob = pack_spans(codes, np.array([0, 5]), np.array([4, 2]))
        assert blob.tolist() == [0x1B, 0x60]

    def test_empty_and_zero_length(self):
        lengths, blob = pack_spans(np.zeros(4, dtype=np.uint8),
                                   np.empty(0, dtype=np.int64),
                                   np.empty(0, dtype=np.int64))
        assert lengths.size == 0 and blob.size == 0
        with pytest.raises(ValueError, match="empty"):
            pack_spans(np.zeros(4, dtype=np.uint8), np.array([0]), np.array([0]))
