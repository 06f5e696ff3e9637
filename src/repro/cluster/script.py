"""Scripted membership events for deterministic cluster simulation.

The cluster bench hard-codes one churn story (kill a node, join a
fresh one, evict the corpse).  Schedule fuzzing (:mod:`repro.dst`)
needs the whole family: *any* legal interleaving of kills, restarts,
joins and leaves with the query stream, drawn deterministically from a
seed and replayable from a JSON document.  This module is that grammar:

* :class:`MembershipEvent` — one event, pinned to the query batch
  index *before* which it fires;
* :func:`sample_script` — draw a random legal script from an RNG
  stream (never drops the live-replica count below ``rf``, never
  re-kills a dead node, joins get fresh node ids);
* :func:`run_membership_script` — build a cluster, drive a key stream
  through the router in batches, firing each event at its batch index;
  returns the concatenated answers plus the final router for invariant
  checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.result import KmerCounts
from ..serve.clock import run_virtual
from ..serve.workload import key_groups
from .node import ClusterNode, RangeStore, build_cluster
from .rebalance import rebalance
from .router import ClusterRouter

__all__ = ["MembershipEvent", "sample_script", "script_to_doc",
           "script_from_doc", "run_membership_script"]

_KINDS = ("kill", "restart", "join", "leave")

#: Keys per chunk a join or leave migrates before yielding.
_CHUNK_KEYS = 2048


@dataclass(frozen=True, slots=True)
class MembershipEvent:
    """One membership change, fired before query batch ``at``."""

    kind: str  # "kill" | "restart" | "join" | "leave"
    node: int
    at: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.node < 0 or self.at < 0:
            raise ValueError("node and at must be non-negative")


def script_to_doc(script: tuple[MembershipEvent, ...]) -> list[dict]:
    """JSON-friendly script encoding (repro bundles)."""
    return [{"kind": e.kind, "node": e.node, "at": e.at} for e in script]


def script_from_doc(doc: list[dict]) -> tuple[MembershipEvent, ...]:
    """Rebuild a script from :func:`script_to_doc` output."""
    return tuple(
        MembershipEvent(kind=str(d["kind"]), node=int(d["node"]),
                        at=int(d["at"]))
        for d in doc
    )


def sample_script(
    rng: np.random.Generator,
    *,
    n_nodes: int,
    rf: int,
    n_batches: int,
) -> tuple[MembershipEvent, ...]:
    """Draw a random legal membership script.

    The grammar keeps every key servable throughout: at most one node
    is ever down or departing at a time, and a ``leave`` only targets a
    node whose data the survivors still replicate (the killed node, or
    — when nothing was killed — a healthy donor with ``rf >= 2``).
    Joins always get a fresh id (``n_nodes``, ``n_nodes + 1``, ...).
    """
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    steps: list[tuple[str, int]] = []
    victim: int | None = None
    if n_nodes > rf and rng.random() < 0.6:
        victim = int(rng.integers(0, n_nodes))
        steps.append(("kill", victim))
        if rng.random() < 0.3:
            steps.append(("restart", victim))
            victim = None
    if rng.random() < 0.5:
        steps.append(("join", n_nodes))
        if victim is not None and rng.random() < 0.7:
            steps.append(("leave", victim))
            victim = None
        elif victim is None and rf >= 2 and rng.random() < 0.3:
            steps.append(("leave", int(rng.integers(0, n_nodes))))
    # Grammar order is causal (a victim must be killed before it can
    # leave), so draw the batch indices and hand them out *sorted* —
    # events keep their declaration order on the timeline.
    times = sorted(int(t) for t in rng.integers(0, n_batches, size=len(steps)))
    return tuple(MembershipEvent(kind, node, at)
                 for (kind, node), at in zip(steps, times))


async def _fire(router: ClusterRouter, event: MembershipEvent) -> None:
    if event.kind == "kill":
        router.nodes[event.node].kill()
    elif event.kind == "restart":
        router.nodes[event.node].restart()
    elif event.kind == "join":
        new_ring = router.ring.with_node(event.node)
        router.add_node(ClusterNode(event.node, RangeStore.empty()))
        await rebalance(router, new_ring, chunk_keys=_CHUNK_KEYS)
    elif event.kind == "leave":
        new_ring = router.ring.without_node(event.node)
        await rebalance(router, new_ring, chunk_keys=_CHUNK_KEYS)
        router.remove_node(event.node)


def run_membership_script(
    counts: KmerCounts,
    keys: np.ndarray,
    script: tuple[MembershipEvent, ...],
    *,
    n_nodes: int,
    rf: int = 2,
    vnodes: int = 8,
    seed: int = 0,
    group_size: int = 64,
    groups: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, ClusterRouter]:
    """Serve *keys* in batches while executing *script* between them.

    Returns ``(answers, router)``: the concatenated per-key answers in
    stream order, and the post-script router (its ring and node states
    are what invariant checkers inspect).  The run is on virtual time
    (:func:`~repro.serve.clock.run_virtual`), hedging included, so it
    is a pure function of its arguments.

    *groups* overrides the fixed ``group_size`` chunking with explicit
    batches (e.g. :func:`repro.serve.workload.arrival_groups` of a
    bursty stream, so membership events interleave with realistic
    batch-size swings); the concatenation of *groups* must equal
    *keys*.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    ring, nodes = build_cluster(counts, n_nodes, rf=rf, vnodes=vnodes, seed=seed)
    router = ClusterRouter(ring, nodes)
    if groups is not None:
        batches = [np.asarray(g, dtype=np.uint64) for g in groups]
        if sum(int(b.size) for b in batches) != int(keys.size):
            raise ValueError("groups do not cover the key stream")
    else:
        batches = key_groups(keys, group_size)

    async def drive() -> np.ndarray:
        pending = list(script)
        answers = []
        for i, batch in enumerate(batches):
            while pending and pending[0].at <= i:
                await _fire(router, pending.pop(0))
            answers.append(await router.query_many(batch))
        while pending:  # events scheduled past the last batch
            await _fire(router, pending.pop(0))
        if not answers:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(answers)

    return run_virtual(drive()), router
