"""The tenant-bench experiment: antagonist vs. victim isolation.

One deterministic, seeded experiment, run by the ``tenant-bench`` xp
target (``dakc xp run benchmarks/xp/tenant.json`` → ledger
``tenant-bench``):

1. count a dataset into a database and shard it;
2. drive a well-behaved *victim* tenant open-loop (small paced query
   groups) three times over the same key stream:

   * **solo** — victim alone: the baseline p99;
   * **isolated** — an *antagonist* tenant floods the engine from
     closed-loop worker tasks, with the multi-tenancy controls ON
     (token-bucket quota + priority shedding at admission, DRR
     weighted-fair batching at the shard queues);
   * **unprotected** — the same flood with the controls OFF (no
     quota, FIFO queues): the antagonist's chunk walls land in front
     of every victim request;

3. report the victim's p99 degradation in both contested runs.  The
   acceptance claim is ``isolated`` within 10% of ``solo`` while
   ``unprotected`` degrades by an order more — and the victim's
   answers stay bit-identical to the scalar oracle throughout.

Isolation is a queueing claim, so every scenario runs on the virtual
clock of :func:`~repro.serve.clock.run_virtual`: the only time that
passes is the simulated store service cost (``flush_service_time`` /
``flush_service_per_key``), the victim's pacing and the flooders'
back-off sleeps, and each p99 is an exact function
of the seed.  Two more sections: :func:`~repro.tenant.scheduler.drr_audit`
measures DRR shares over one saturated window, and the
:class:`~repro.tenant.autoscaler.Autoscaler` drives live cluster
topology changes — a synthetic hot spell splits the ring, a cold spell
merges it back, and every count answers exactly before, during, and
after the moves.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace

import numpy as np

from ..core.result import KmerCounts, probe_sorted
from ..serve.clock import run_virtual
from ..serve.shards import ShardedStore
from ..serve.workload import drive_load, key_groups, zipf_workload
from .autoscaler import Autoscaler, AutoscalerConfig
from .registry import QuotaExceeded, TenantRegistry, TenantSpec
from .scheduler import QUANTUM_KEYS, drr_audit

__all__ = ["TenantBenchResult", "run_tenant_bench", "autoscale_demo",
           "bench_engine_config"]

VICTIM = "victim"
ANTAGONIST = "antagonist"
#: DRR weights: the victim is owed 4x the antagonist's share.
WEIGHTS = {VICTIM: 4.0, ANTAGONIST: 1.0}


@dataclass(frozen=True)
class TenantBenchResult:
    """Outcome of one solo/isolated/unprotected comparison."""

    solo: dict
    isolated: dict
    unprotected: dict
    answers_match: bool
    fairness: dict
    autoscale: dict

    @property
    def isolated_degradation(self) -> float:
        """Victim p99 inflation with the antagonist and isolation ON."""
        return self.isolated["p99_ms"] / self.solo["p99_ms"] - 1.0

    @property
    def unprotected_degradation(self) -> float:
        """Victim p99 inflation with the antagonist and isolation OFF."""
        return self.unprotected["p99_ms"] / self.solo["p99_ms"] - 1.0


def _registry(isolation: bool, *, antag_rate: float, antag_burst: int,
              victim_slo_ms: float) -> TenantRegistry:
    """Tenant table for one scenario.

    With isolation ON the antagonist is rate-limited and deprioritised;
    OFF it runs unlimited at the victim's own class — the registry
    still exists (so the code path is identical) but grants everything.
    """
    if isolation:
        antag = TenantSpec(ANTAGONIST, weight=WEIGHTS[ANTAGONIST],
                           rate=antag_rate, burst=antag_burst, priority=1)
    else:
        antag = TenantSpec(ANTAGONIST, weight=WEIGHTS[ANTAGONIST])
    victim = TenantSpec(VICTIM, weight=WEIGHTS[VICTIM], slo_ms=victim_slo_ms)
    return TenantRegistry([victim, antag])


async def _flood(engine, batches: list[np.ndarray], stop: asyncio.Event,
                 offset: int) -> int:
    """One closed-loop antagonist worker; returns batches answered."""
    from ..serve.engine import Overloaded  # lazy: serve <-> tenant cycle

    served = 0
    i = offset
    while not stop.is_set():
        batch = batches[i % len(batches)]
        i += 1
        try:
            await engine.query_many(batch, tenant=ANTAGONIST)
            served += 1
        except QuotaExceeded as exc:
            await asyncio.sleep(min(max(exc.retry_after, 1e-3), 0.05))
        except Overloaded as exc:
            await asyncio.sleep(min(max(exc.retry_after, 1e-3), 0.02))
    return served


def _scenario(store, victim_groups: list[np.ndarray],
              antag_batches: list[np.ndarray], *, isolation: bool,
              flooders: int, interval: float, antag_rate: float,
              antag_burst: int, victim_slo_ms: float, config) -> dict:
    """Run one contention scenario; returns the victim's view of it."""
    from ..serve.engine import QueryEngine  # lazy: serve <-> tenant cycle

    registry = _registry(isolation, antag_rate=antag_rate,
                         antag_burst=antag_burst, victim_slo_ms=victim_slo_ms)
    if not isolation:
        # "Unprotected" means every mechanism off: unlimited quota above
        # AND plain FIFO shard queues here, else DRR's weighted grants
        # would still shield the victim from the flood.
        config = replace(config, fair_scheduling=False)

    async def drive():
        async with QueryEngine(store, config, tenants=registry) as engine:
            stop = asyncio.Event()
            floods = [asyncio.create_task(_flood(engine, antag_batches, stop, j))
                      for j in range(flooders)]
            # Open-loop victim: one group every *interval*, all timed.
            lat = np.zeros(len(victim_groups))
            answers, _ = await drive_load(
                engine, victim_groups, concurrency=len(victim_groups),
                interval=interval, tenant=VICTIM, latencies=lat)
            stop.set()
            antag_served = sum(await asyncio.gather(*floods))
            engine.tenant_metrics.set_elapsed(len(victim_groups) * interval)
            return lat, answers, antag_served, engine

    lat, answers, antag_served, engine = run_virtual(drive())
    # Victim groups are equal-sized, so rejected keys count whole groups.
    rejected = (engine.tenant_metrics.get(VICTIM).rejected
                // victim_groups[0].size)
    return {
        "isolation": isolation,
        "flooders": flooders,
        "p50_ms": float(np.percentile(lat, 50) * 1e3),
        "p99_ms": float(np.percentile(lat, 99) * 1e3),
        "max_ms": float(lat.max() * 1e3),
        "victim_rejected_groups": rejected,
        "antagonist_batches_served": antag_served,
        "tenants": engine.tenant_metrics.snapshot(),
        "_answers": answers,  # popped once compared to the oracle
    }


def bench_engine_config():
    """The engine the experiment is sized for (see :func:`run_tenant_bench`)."""
    from ..serve.engine import EngineConfig  # lazy: serve <-> tenant cycle

    return EngineConfig(flush_service_time=30e-3, flush_service_per_key=1e-5)


def run_tenant_bench(
    counts: KmerCounts,
    *,
    n_victim_groups: int = 400,
    victim_group: int = 32,
    victim_interval: float = 15e-3,
    antag_batch: int = 256,
    flooders: int = 16,
    antag_rate: float = 32.0,
    n_shards: int = 2,
    zipf_s: float = 1.1,
    seed: int = 0,
    victim_slo_ms: float = 100.0,
    config=None,
    autoscale_nodes: int = 3,
) -> TenantBenchResult:
    """Antagonist-vs-victim isolation experiment; see the module doc.

    Default sizing rationale: the antagonist's token bucket (32 keys/s
    against 256-key batches) admits its initial burst and then starves
    it for the rest of the window — the quota doing its job — while
    the unprotected run (quota unlimited, FIFO queues) lets the same
    16 closed-loop flooders stack multi-flush walls of 30 ms each in
    front of every victim group.
    """
    config = config or bench_engine_config()
    store = ShardedStore.from_counts(counts, n_shards)

    victim_stream = zipf_workload(
        counts, n_victim_groups * victim_group, s=zipf_s, seed=seed,
        miss_fraction=0.02)
    victim_groups = key_groups(victim_stream.keys, victim_group)
    antag_stream = zipf_workload(
        counts, 16 * antag_batch, s=zipf_s, seed=seed + 1)
    antag_batches = key_groups(antag_stream.keys, antag_batch)

    oracle = probe_sorted(counts.kmers, counts.counts, victim_stream.keys)

    common = dict(interval=victim_interval, antag_rate=antag_rate,
                  antag_burst=antag_batch, victim_slo_ms=victim_slo_ms,
                  config=config)
    solo = _scenario(store, victim_groups, antag_batches,
                     isolation=True, flooders=0, **common)
    isolated = _scenario(store, victim_groups, antag_batches,
                         isolation=True, flooders=flooders, **common)
    unprotected = _scenario(store, victim_groups, antag_batches,
                            isolation=False, flooders=flooders, **common)

    # Bit-exactness: every non-rejected scenario must equal the oracle.
    match = all(
        np.array_equal(scn.pop("_answers"), oracle)
        for scn in (solo, isolated, unprotected)
        if scn["victim_rejected_groups"] == 0
    )

    autoscale = autoscale_demo(counts, n_nodes=autoscale_nodes, seed=seed)
    # Backlog each tenant in 16-key chunks with twice the keys it can
    # be served while the lightest one receives its 4000.
    fairness = drr_audit(
        WEIGHTS, QUANTUM_KEYS,
        {t: [16] * (int(4000 * w * 2) // 16) for t, w in WEIGHTS.items()},
        4000)

    return TenantBenchResult(
        solo=solo, isolated=isolated, unprotected=unprotected,
        answers_match=match, fairness=fairness, autoscale=autoscale,
    )


def autoscale_demo(counts: KmerCounts, *, n_nodes: int = 3, seed: int = 0) -> dict:
    """Hot spell -> split, cold spell -> merge; exact answers throughout.

    Loads are synthetic (the decision machine only sees node -> qps
    maps), but the topology changes are real: each decision drives
    :func:`repro.cluster.rebalance.rebalance` on a live router, and the
    full spectrum is re-queried for bit-exactness after every move.
    """
    from ..cluster.node import ClusterNode, RangeStore, build_cluster
    from ..cluster.router import ClusterRouter

    ring, nodes = build_cluster(counts, n_nodes, rf=2, seed=seed)
    router = ClusterRouter(ring, nodes)
    cfg = AutoscalerConfig(hot_load=1000.0, cold_load=100.0, patience=2,
                           cooldown=0, min_nodes=2, max_nodes=n_nodes + 2)
    scaler = Autoscaler(cfg)

    async def drive() -> dict:
        async def exact() -> bool:
            out = await router.query_many(counts.kmers)
            return bool(np.array_equal(out, counts.counts))

        doc: dict = {"config": cfg.to_doc(), "n_nodes_start": len(router.nodes)}
        doc["exact_before"] = await exact()

        hot = {nid: 5 * cfg.hot_load for nid in router.nodes}
        cold = {nid: cfg.cold_load / 10 for nid in router.nodes}
        make_node = lambda nid: ClusterNode(nid, RangeStore.empty())  # noqa: E731

        decisions = []
        for _ in range(cfg.patience):
            decision, report = await scaler.step(
                router, {nid: 5 * cfg.hot_load for nid in router.nodes},
                make_node=make_node)
        decisions.append({"action": decision.action, "node": decision.node,
                          "reason": decision.reason,
                          "moved_keys": report.moved_keys if report else 0})
        doc["n_nodes_after_split"] = len(router.nodes)
        doc["exact_after_split"] = await exact()

        for _ in range(cfg.patience):
            decision, report = await scaler.step(
                router, {nid: cfg.cold_load / 10 for nid in router.nodes},
                make_node=make_node)
        decisions.append({"action": decision.action, "node": decision.node,
                          "reason": decision.reason,
                          "moved_keys": report.moved_keys if report else 0})
        doc["n_nodes_after_merge"] = len(router.nodes)
        doc["exact_after_merge"] = await exact()
        doc["decisions"] = decisions
        doc["hot_sample_qps"] = hot
        doc["cold_sample_qps"] = cold
        return doc

    return run_virtual(drive())
