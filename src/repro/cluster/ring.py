"""Consistent-hash ring: the cluster's key-placement function.

The counting layers assign every k-mer to exactly one owner via
``splitmix64(key) mod P`` (:func:`repro.core.owner.owner_pe`).  That is
the right placement for *counting* — every update for a key must meet
at one PE — but the wrong one for *serving*: one crashed owner loses a
1/P slice of the database, and changing P reshuffles every key.

A :class:`HashRing` keeps the same hash (splitmix64 positions on the
64-bit circle) but changes the mapping from positions to nodes:

* each node owns ``vnodes`` *tokens* — pseudo-random ring positions
  derived purely from ``(seed, node_id, vnode index)``, so placement is
  a pure function of the ring description (deterministic across
  processes, restarts, and Python hash randomisation);
* a key belongs to the first token clockwise from its hashed position,
  and is *replicated* on the next ``rf`` distinct nodes along the ring,
  so every key survives ``rf - 1`` node losses;
* adding or removing one node moves only the token intervals adjacent
  to that node's tokens (~1/N of the key space), which is what makes
  live rebalancing (:mod:`repro.cluster.rebalance`) cheap.

The ring compiles to a :class:`RoutingTable` — a sorted token array
plus a ``(n_tokens, rf)`` replica matrix — so a batch of keys routes
with a few vectorised gathers (a ring-slice table, then the rows), the
same discipline as :class:`~repro.serve.shards.ShardedStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.owner import splitmix64

__all__ = ["HashRing", "RoutingTable", "interval_mask"]

# Per-node salt decorrelating a node's token stream from its numeric id
# (node 0 and node 1 must not get adjacent tokens).
_NODE_SALT = np.uint64(0xD6E8FEB86659FD93)
# RoutingTable.row_index cuts the circle into 2**12 equal slices.
_SLICE_SHIFT = np.uint64(64 - 12)


def _node_tokens(node_id: int, vnodes: int, seed: int) -> np.ndarray:
    """The *vnodes* deterministic ring positions of one node."""
    with np.errstate(over="ignore"):
        base = np.uint64(splitmix64(int(
            (np.uint64(node_id) + np.uint64(1)) * _NODE_SALT + np.uint64(seed)
        )))
        return np.asarray(
            splitmix64(base + np.arange(1, vnodes + 1, dtype=np.uint64)),
            dtype=np.uint64,
        )


def interval_mask(positions: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Which *positions* fall in the ring interval ``(lo, hi]``.

    Intervals live on the 64-bit circle: when ``lo >= hi`` the interval
    wraps through zero (and ``lo == hi`` means the whole circle — the
    single-token ring's only interval).
    """
    positions = np.asarray(positions, dtype=np.uint64)
    lo64, hi64 = np.uint64(lo), np.uint64(hi)
    if lo64 < hi64:
        return (positions > lo64) & (positions <= hi64)
    return (positions > lo64) | (positions <= hi64)


@dataclass(frozen=True)
class RoutingTable:
    """Compiled ring: sorted tokens + per-token replica rows.

    A key with hashed position ``p`` maps to the first token ``>= p``
    (wrapping past the last token to the first), and is served by that
    row's ``rf`` distinct nodes.
    """

    tokens: np.ndarray  # uint64, strictly increasing
    rows: np.ndarray    # (n_tokens, rf) int64, distinct within a row

    def __post_init__(self) -> None:
        if self.tokens.ndim != 1 or self.rows.ndim != 2:
            raise ValueError("tokens must be 1-D and rows 2-D")
        if self.tokens.size != self.rows.shape[0]:
            raise ValueError("one replica row per token required")
        if self.tokens.size > 1 and not (self.tokens[:-1] < self.tokens[1:]).all():
            raise ValueError("tokens must be strictly increasing")
        # row_index's slice table: each slice's first token at or after
        # its start, and the most tokens in one slice (the steps past it).
        starts = np.arange(4096, dtype=np.uint64) << _SLICE_SHIFT
        object.__setattr__(self, "_first", np.searchsorted(self.tokens, starts))
        object.__setattr__(self, "_depth", int(np.bincount(
            (self.tokens >> _SLICE_SHIFT).view(np.intp), minlength=1).max()))

    @property
    def n_tokens(self) -> int:
        return int(self.tokens.size)

    @property
    def rf(self) -> int:
        return int(self.rows.shape[1])

    def row_index(self, positions: np.ndarray) -> np.ndarray:
        """Token-interval index of each hashed position (vectorised):
        its first token ``>= p`` (wrapping), stepped to from its slice's
        first token — a binary search over the tokens, at a few gathers."""
        positions = np.asarray(positions, dtype=np.uint64)
        idx = self._first.take((positions >> _SLICE_SHIFT).view(np.intp))
        for _ in range(self._depth):
            idx += self.tokens.take(idx, mode="clip") < positions
        idx[idx >= self.n_tokens] = 0  # past the last token: wrap
        return idx

    def replicas_at(self, positions: np.ndarray) -> np.ndarray:
        """``(n, rf)`` replica node ids for hashed positions."""
        return self.rows[self.row_index(positions)]

    def interval(self, index: int) -> tuple[int, int]:
        """The ``(lo, hi]`` ring interval of token row *index*."""
        hi = int(self.tokens[index])
        lo = int(self.tokens[index - 1]) if index > 0 else int(self.tokens[-1])
        return lo, hi


class HashRing:
    """Seeded consistent-hash ring with virtual nodes and replication.

    Placement depends only on ``(node_ids, rf, vnodes, seed)`` — two
    rings built from the same description in different processes give
    bit-identical routing, which is what lets stateless clients,
    routers, and rebalancers agree without coordination.
    """

    def __init__(self, node_ids: Iterable[int], *, rf: int = 2,
                 vnodes: int = 16, seed: int = 0):
        raw = [int(n) for n in node_ids]
        ids = sorted(set(raw))
        if len(ids) != len(raw):
            raise ValueError("node ids must be unique")
        if not ids:
            raise ValueError("ring needs at least one node")
        if any(n < 0 for n in ids):
            raise ValueError("node ids must be non-negative")
        if rf < 1:
            raise ValueError("replication factor must be >= 1")
        if rf > len(ids):
            raise ValueError(
                f"replication factor {rf} exceeds {len(ids)} nodes")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.node_ids: tuple[int, ...] = tuple(ids)
        self.rf = rf
        self.vnodes = vnodes
        self.seed = seed
        self._table: RoutingTable | None = None

    # -- derived rings -------------------------------------------------

    def with_node(self, node_id: int) -> "HashRing":
        """A new ring with *node_id* joined (same seed/vnodes/rf)."""
        if int(node_id) in self.node_ids:
            raise ValueError(f"node {node_id} already in the ring")
        return HashRing(self.node_ids + (int(node_id),), rf=self.rf,
                        vnodes=self.vnodes, seed=self.seed)

    def without_node(self, node_id: int) -> "HashRing":
        """A new ring with *node_id* departed (same seed/vnodes/rf)."""
        if int(node_id) not in self.node_ids:
            raise ValueError(f"node {node_id} not in the ring")
        remaining = tuple(n for n in self.node_ids if n != int(node_id))
        return HashRing(remaining, rf=self.rf, vnodes=self.vnodes,
                        seed=self.seed)

    # -- compilation ---------------------------------------------------

    def table(self) -> RoutingTable:
        """Compile (and cache) the ring's routing table."""
        if self._table is None:
            self._table = self._compile()
        return self._table

    def _compile(self) -> RoutingTable:
        tokens = np.concatenate([_node_tokens(n, self.vnodes, self.seed)
                                 for n in self.node_ids])
        owners = np.repeat(np.asarray(self.node_ids, dtype=np.int64),
                           self.vnodes)
        # Token collisions are a ~T^2/2^64 event; resolve them
        # deterministically (rehash the colliding later owner) so the
        # ring never depends on tie-breaking order.
        for _ in range(64):
            order = np.lexsort((owners, tokens))
            tokens, owners = tokens[order], owners[order]
            dup = np.flatnonzero(tokens[1:] == tokens[:-1]) + 1
            if dup.size == 0:
                break
            with np.errstate(over="ignore"):
                tokens[dup] = np.asarray(
                    splitmix64(tokens[dup] + np.uint64(1)), dtype=np.uint64)
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("could not resolve ring token collisions")

        n_tokens = tokens.size
        rows = np.empty((n_tokens, self.rf), dtype=np.int64)
        for i in range(n_tokens):
            picked: list[int] = []
            j = i
            while len(picked) < self.rf:
                owner = int(owners[j % n_tokens])
                if owner not in picked:
                    picked.append(owner)
                j += 1
            rows[i] = picked
        return RoutingTable(tokens, rows)

    # -- placement -----------------------------------------------------

    @staticmethod
    def positions(keys: np.ndarray) -> np.ndarray:
        """Hashed ring positions of raw keys (splitmix64)."""
        return np.asarray(splitmix64(np.asarray(keys, dtype=np.uint64)),
                          dtype=np.uint64)

    def replicas_batch(self, keys: np.ndarray) -> np.ndarray:
        """``(n, rf)`` replica node ids for a batch of raw keys."""
        return self.table().replicas_at(self.positions(keys))

    def replicas(self, key: int) -> tuple[int, ...]:
        """The *rf* distinct replica nodes of one key, primary first."""
        row = self.replicas_batch(np.array([key], dtype=np.uint64))[0]
        return tuple(int(n) for n in row)

    # -- introspection -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def describe(self) -> dict:
        """JSON-friendly ring summary (tokens per node, span share)."""
        table = self.table()
        spans = np.diff(table.tokens.astype(np.float64),
                        prepend=float(table.tokens[-1]) - 2.0 ** 64)
        share = {int(n): 0.0 for n in self.node_ids}
        for i in range(table.n_tokens):
            share[int(table.rows[i, 0])] += float(spans[i])
        total = sum(share.values())
        return {
            "nodes": list(self.node_ids),
            "rf": self.rf,
            "vnodes": self.vnodes,
            "seed": self.seed,
            "tokens": table.n_tokens,
            "primary_share": {n: s / total for n, s in share.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"HashRing(nodes={list(self.node_ids)}, rf={self.rf}, "
                f"vnodes={self.vnodes}, seed={self.seed})")
