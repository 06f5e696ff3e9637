"""repro.cluster — replicated, self-healing serving cluster.

The serving layer (:mod:`repro.serve`) answers queries from one copy
of the counted table; this package makes that copy *redundant* and the
service *self-healing*:

* :mod:`~repro.cluster.ring` — consistent-hash ring with virtual
  nodes over the same splitmix64 key space the counting layer's
  ``owner_pe`` uses, placing every key on ``rf`` distinct replicas;
* :mod:`~repro.cluster.node` — cluster members with health states
  (up / degraded / down);
* :mod:`~repro.cluster.router` — client-facing routing with retry,
  backoff, and hedged requests (tail-latency insurance);
* :mod:`~repro.cluster.rebalance` — live node join/leave streaming
  key ranges in bounded chunks while the cluster keeps serving exact
  answers;
* :mod:`~repro.cluster.metrics` / :mod:`~repro.cluster.bench` —
  observability rollups and the ``cluster-bench`` xp target's campaign.
"""

from .bench import run_cluster_bench
from .metrics import ClusterMetrics, rollup_nodes
from .node import ClusterNode, NodeDown, NodeState, RangeStore, build_cluster
from .rebalance import (
    Move,
    RebalanceError,
    RebalancePlan,
    RebalanceReport,
    plan_rebalance,
    rebalance,
)
from .ring import HashRing, RoutingTable, interval_mask
from .script import MembershipEvent, run_membership_script, sample_script
from .router import ClusterRouter, RangeUnavailable

__all__ = [
    "HashRing",
    "RoutingTable",
    "interval_mask",
    "NodeState",
    "NodeDown",
    "RangeStore",
    "ClusterNode",
    "build_cluster",
    "RangeUnavailable",
    "ClusterRouter",
    "ClusterMetrics",
    "rollup_nodes",
    "Move",
    "RebalancePlan",
    "RebalanceError",
    "RebalanceReport",
    "plan_rebalance",
    "rebalance",
    "run_cluster_bench",
    "MembershipEvent",
    "sample_script",
    "run_membership_script",
]
