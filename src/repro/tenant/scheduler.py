"""Deficit round-robin: weighted-fair chunk scheduling at busy shards.

A FIFO shard queue lets one flooding tenant put a wall of chunks in
front of everyone else's traffic — the serving-side version of the
hot-PE imbalance the paper's L3 protocol exists to break.  The fix is
the classic deficit round-robin (Shreedhar & Varghese): each backlogged
tenant keeps a *deficit counter*; on its turn it is granted
``quantum * weight`` key-credits, and its queued chunks are served
while the deficit covers them.  Over any saturated window each tenant
receives service proportional to its weight, within an additive error
of one quantum plus one maximum chunk — the bound the `fair-share` DST
invariant checks, while `no-starvation` checks that a backlogged
tenant's head chunk is served within ``ceil(chunk / (quantum *
weight))`` of its turns.

The query engine keeps one :class:`DRRQueue` per shard when the store
has a service cost and tenants are registered; each flush a shard puts
in service takes its chunks in DRR order.  Anything with ``.keys``
(sized) and ``.tenant`` attributes schedules; a ``tenant`` of ``None``
rides in a shared best-effort lane at the default weight.
:func:`drr_audit` is the one saturated-window measurement of that
fairness; the tenant bench reports it and DST fuzzes it.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from types import SimpleNamespace

import numpy as np

__all__ = ["QUANTUM_KEYS", "DRRQueue", "drr_audit"]

#: Lane used for untagged chunks (requests without a tenant).
_ANON = None

#: Key-credits per unit weight per turn at the engine's shard queues: a
#: quarter of a 256-key flush, so one flush interleaves several tenants.
QUANTUM_KEYS = 64


class DRRQueue:
    """Deficit-round-robin queue over tagged chunks.

    * ``weights`` — tenant name -> relative weight (missing tenants,
      including the anonymous ``None`` lane, weigh 1);
    * ``quantum`` — key-credits granted per unit weight per turn; the
      knob trading scheduling overhead (small quantum = more turns)
      against burst fairness (large quantum = coarser interleaving).

    Self-auditing: the queue tracks how many grant turns each tenant
    waited for the chunk it eventually got.  DRR theory bounds that at
    ``ceil(size / (quantum * weight))``; :attr:`starvation_violations`
    counts services that exceeded it (always 0 unless the scheduler is
    broken — the hook the DST `no-starvation` invariant pulls on).
    """

    def __init__(self, weights: dict[str, float] | None = None, *,
                 quantum: int = QUANTUM_KEYS):
        if quantum < 1:
            raise ValueError("quantum must be >= 1 key")
        self.quantum = int(quantum)
        self.weights = dict(weights or {})
        if any(w <= 0 for w in self.weights.values()):
            raise ValueError("tenant weights must be > 0")
        self._queues: OrderedDict[object, deque] = OrderedDict()
        self._active: deque = deque()       # backlogged tenants, turn order
        self._deficit: dict[object, float] = {}
        self._waits: dict[object, int] = {}  # grant turns since last service
        self._fresh = True                   # head of _active owed a grant?
        self._n_chunks = 0
        #: Keys served per tenant (the fair-share measurement).
        self.served_keys: dict[object, int] = {}
        #: Chunks served per tenant.
        self.served_chunks: dict[object, int] = {}
        #: Services that waited more grant turns than DRR allows.
        self.starvation_violations = 0

    # -- queue surface -------------------------------------------------

    def qsize(self) -> int:
        return self._n_chunks

    def put_nowait(self, chunk) -> None:
        tenant = getattr(chunk, "tenant", _ANON)
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = deque()
        if not q:
            self._active.append(tenant)
            self._deficit.setdefault(tenant, 0.0)
            self._waits.setdefault(tenant, 0)
            if len(self._active) == 1:
                self._fresh = True
        q.append(chunk)
        self._n_chunks += 1

    def get_nowait(self):
        chunk = self._pop()
        if chunk is None:
            raise IndexError("get_nowait from an empty DRRQueue")
        return chunk

    # -- the scheduler -------------------------------------------------

    def weight_of(self, tenant) -> float:
        return self.weights.get(tenant, 1.0)

    def grant_bound(self, size: int, tenant) -> int:
        """Max grant turns DRR needs to serve a *size*-key head chunk."""
        return max(1, math.ceil(size / (self.quantum * self.weight_of(tenant))))

    def _pop(self):
        """Serve the next chunk under DRR order, or None when idle."""
        if self._n_chunks == 0:
            return None
        while True:
            tenant = self._active[0]
            if self._fresh:
                # Turn start: one quantum of key-credit, scaled by weight.
                self._deficit[tenant] += self.quantum * self.weight_of(tenant)
                self._waits[tenant] += 1
                self._fresh = False
            q = self._queues[tenant]
            head = q[0]
            need = int(head.keys.size)
            if self._deficit[tenant] >= need:
                q.popleft()
                self._n_chunks -= 1
                self._deficit[tenant] -= need
                if self._waits[tenant] > self.grant_bound(need, tenant) + 1:
                    self.starvation_violations += 1
                self._waits[tenant] = 0
                self.served_keys[tenant] = (
                    self.served_keys.get(tenant, 0) + need)
                self.served_chunks[tenant] = (
                    self.served_chunks.get(tenant, 0) + 1)
                if not q:
                    # Classic DRR: an emptied flow forfeits its deficit
                    # (credit must not survive idle periods).
                    self._active.popleft()
                    self._deficit[tenant] = 0.0
                    self._fresh = True
                return head
            # Head too big for the remaining credit: next tenant's turn.
            self._active.rotate(-1)
            self._fresh = True

    # -- introspection -------------------------------------------------

    def backlog(self) -> dict:
        """Tenant -> queued chunk count (for metrics/debugging)."""
        return {t: len(q) for t, q in self._queues.items() if q}

    def stats(self) -> dict:
        return {
            "quantum": self.quantum,
            "served_keys": {str(t): n for t, n in self.served_keys.items()},
            "served_chunks": {str(t): n for t, n in self.served_chunks.items()},
            "starvation_violations": self.starvation_violations,
            "backlog": {str(t): n for t, n in self.backlog().items()},
        }


def drr_audit(weights: dict, quantum: int, chunk_sizes: dict,
              target: int) -> dict:
    """Serve each tenant's backlog (*chunk_sizes*: tenant -> chunk key
    counts, long enough to outlast the window) until the lightest
    tenant has *target* keys; report each tenant's served keys and
    share, the largest share error against the weights, and the
    queue's starvation violations.
    """
    queue = DRRQueue(weights, quantum=quantum)
    for tenant, sizes in chunk_sizes.items():
        for n in sizes:
            queue.put_nowait(SimpleNamespace(
                keys=np.empty(n, dtype=np.uint64), tenant=tenant))
    lightest = min(weights, key=weights.get)
    while queue.served_keys.get(lightest, 0) < target:
        queue.get_nowait()
    served = {t: int(queue.served_keys.get(t, 0)) for t in weights}
    total_served = sum(served.values())
    total_weight = sum(weights.values())
    shares = {t: served[t] / total_served for t in weights}
    return {
        "served_keys": served,
        "served_share": shares,
        "max_share_error": max(abs(shares[t] - weights[t] / total_weight)
                               for t in weights),
        "starvation_violations": queue.starvation_violations,
    }
