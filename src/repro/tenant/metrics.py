"""Per-tenant serving metrics: latency, hit rate, rejections, SLOs.

One :class:`~repro.serve.metrics.ServeMetrics` per tenant; every
histogram has the module's one geometry, so :meth:`ServeMetrics.merge
<repro.serve.metrics.ServeMetrics.merge>` folds them exactly (the
engine's global histogram is always the bucket-wise sum of the
per-tenant ones — a property the test suite pins).  On top of the
stock serving counters each tenant gets an *SLO attainment* gauge: the
fraction of its latency samples at or under the spec's ``slo_ms``
target, read straight off the histogram via
:meth:`~repro.serve.metrics.LatencyHistogram.fraction_below`.
"""

from __future__ import annotations

from ..serve.metrics import ServeMetrics
from .registry import TenantRegistry

__all__ = ["TenantMetricsSet"]


class TenantMetricsSet:
    """Lazy tenant -> :class:`ServeMetrics` table with SLO grading."""

    def __init__(self, registry: TenantRegistry | None = None):
        self.registry = registry
        self._metrics: dict[str, ServeMetrics] = {}

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._metrics

    def __iter__(self):
        return iter(self._metrics)

    def get(self, tenant: str) -> ServeMetrics:
        """The tenant's metrics, created on first sight."""
        m = self._metrics.get(tenant)
        if m is None:
            m = ServeMetrics()
            self._metrics[tenant] = m
        return m

    def set_elapsed(self, elapsed: float) -> None:
        """Stamp one run's wall-clock span on every tenant."""
        for m in self._metrics.values():
            m.elapsed = elapsed

    def slo_attainment(self, tenant: str) -> float | None:
        """Fraction of the tenant's samples within its SLO (None = no SLO)."""
        if self.registry is None or tenant not in self.registry:
            return None
        slo_ms = self.registry.spec(tenant).slo_ms
        if slo_ms is None:
            return None
        return self.get(tenant).latency.fraction_below(slo_ms * 1e-3)

    def merged(self) -> ServeMetrics:
        """Bucket-exact fold of every tenant's metrics into one."""
        total = ServeMetrics()
        for m in self._metrics.values():
            total.merge(m)
        return total

    def snapshot(self) -> dict:
        """Tenant -> metrics snapshot, plus the SLO gauge when graded."""
        out = {}
        for tenant, m in self._metrics.items():
            doc = m.snapshot()
            attainment = self.slo_attainment(tenant)
            if attainment is not None:
                doc["slo"] = {
                    "target_ms": self.registry.spec(tenant).slo_ms,
                    "attainment": attainment,
                }
            out[tenant] = doc
        return out
