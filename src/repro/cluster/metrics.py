"""Cluster-level observability: per-node metrics plus router counters.

Every :class:`~repro.cluster.node.ClusterNode` keeps its own
:class:`~repro.serve.metrics.ServeMetrics` (latency histogram, query
counters); :class:`ClusterMetrics` adds the router-side story — the
latency *clients* actually see (including retries, hedges, and
failovers) and the counters that explain it.  The cluster-wide view is
a loop of :meth:`ServeMetrics.merge <repro.serve.metrics.ServeMetrics.merge>`
over the nodes — every counter a node carries, the rollup carries —
the same way a metrics pipeline folds per-host histograms into a
service dashboard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..serve.metrics import ServeMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import ClusterNode

__all__ = ["ClusterMetrics", "rollup_nodes"]


def rollup_nodes(nodes: Mapping[int, "ClusterNode"]) -> ServeMetrics:
    """Fold every node's metrics into one cluster-wide ServeMetrics."""
    total = ServeMetrics()
    for node in nodes.values():
        total.merge(node.metrics)
    return total


@dataclass
class ClusterMetrics:
    """Counters for one router's lifetime plus rollup helpers."""

    #: Client-visible metrics: one latency sample per routed batch,
    #: weighted by its key count (includes retry/hedge/failover time).
    router: ServeMetrics = field(default_factory=ServeMetrics)
    hedges_fired: int = 0   # client requests backed up after the hedge delay
    hedges_won: int = 0     # of those, answered by the hedge first
    retries: int = 0        # re-routes after a NodeDown or no-live-replica round
    failovers: int = 0      # batches that exhausted every replica (RangeUnavailable)
    rebalances: int = 0     # completed join/leave rebalance passes
    moved_keys: int = 0     # key copies streamed during rebalancing

    @property
    def hedge_win_rate(self) -> float:
        return self.hedges_won / self.hedges_fired if self.hedges_fired else 0.0

    def snapshot(self, nodes: Mapping[int, "ClusterNode"] | None = None) -> dict:
        """JSON-serialisable cluster summary.

        With *nodes* given, includes per-node snapshots and the merged
        cluster rollup (:func:`rollup_nodes`).
        """
        doc = {
            "router": self.router.snapshot(),
            "hedging": {
                "fired": self.hedges_fired,
                "won": self.hedges_won,
                "win_rate": self.hedge_win_rate,
            },
            "retries": self.retries,
            "failovers": self.failovers,
            "rebalances": self.rebalances,
            "moved_keys": self.moved_keys,
        }
        if nodes is not None:
            doc["nodes"] = {
                str(nid): {
                    **node.describe(),
                    "metrics": node.metrics.snapshot(),
                }
                for nid, node in sorted(nodes.items())
            }
            doc["rollup"] = rollup_nodes(nodes).snapshot()
        return doc
