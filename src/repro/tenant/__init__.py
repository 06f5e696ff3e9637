"""repro.tenant — multi-tenant QoS over the serving read path.

One shared k-mer count database, many tenants with different weights,
quotas, priorities, and SLOs.  The layer adds four mechanisms to
:mod:`repro.serve`:

* :mod:`repro.tenant.registry` — per-tenant token-bucket rate limits,
  burst credits, and priority classes; admission rejects over-quota
  work with a typed :class:`QuotaExceeded` (carrying a retry-after
  hint) *before* it consumes queue depth;
* :mod:`repro.tenant.scheduler` — deficit-round-robin weighted-fair
  queues at busy shards, so each flush mixes tenants in proportion to
  weight instead of FIFO arrival order;
* :mod:`repro.tenant.metrics` — per-tenant latency histograms, hit
  rates, rejection causes, and SLO-attainment gauges that merge
  bucket-exactly into the engine totals;
* :mod:`repro.tenant.autoscaler` — a load-driven state machine that
  splits hot rings and merges cold ones through live
  :mod:`repro.cluster` rebalancing, bit-exact during the moves.

:mod:`repro.tenant.bench` runs the antagonist-vs-victim isolation
experiment behind the ``tenant-bench`` xp target.
Every scheduling knob is carried by :class:`repro.dst.schedule.Schedule`, and
the DST harness fuzzes the `no-starvation` and `fair-share`
invariants over it.  See ``docs/TENANCY.md``.
"""

from .registry import QuotaExceeded, TenantRegistry, TenantSpec, UnknownTenant
from .scheduler import DRRQueue

# repro.serve and repro.tenant import each other (the engine embeds the
# tenant layer; tenant metrics extend serve metrics).  Forcing the full
# serve package here — after the cycle-free registry/scheduler modules,
# before the serve-dependent ones — makes either import order work.
from .. import serve as _serve  # noqa: F401  (import-order anchor)

from .autoscaler import Autoscaler, AutoscalerConfig, Decision  # noqa: E402
from .bench import TenantBenchResult, autoscale_demo, run_tenant_bench  # noqa: E402
from .metrics import TenantMetricsSet  # noqa: E402

__all__ = [
    "TenantSpec",
    "TenantRegistry",
    "QuotaExceeded",
    "UnknownTenant",
    "DRRQueue",
    "TenantMetricsSet",
    "Autoscaler",
    "AutoscalerConfig",
    "Decision",
    "TenantBenchResult",
    "run_tenant_bench",
    "autoscale_demo",
]
