"""Tenant identity, quotas, and admission: who may send how much.

"Millions of users" means the serving stack faces *tenants*, not one
anonymous stream: each named client carries a weight (its fair share
of a busy shard's flushes), a token-bucket rate limit with burst
credits (how many keys per second it may admit, and how far it may
briefly overshoot), a priority class (how early it is shed when the
engine saturates), and an optional latency SLO that the per-tenant
metrics grade.  The :class:`TenantRegistry` is the one table the
query engine consults on every request; over-quota work is rejected
with a typed :class:`QuotaExceeded` carrying a *retry-after* hint —
before the request consumes any queue depth, so an abusive tenant
cannot convert its rejected traffic into latency for everyone else.

A :class:`TokenBucket` takes its clock reading as an argument, so it
is a pure function of ``(spec, traffic, times)`` that :mod:`repro.dst`
steps directly; :meth:`TenantRegistry.admit` passes it the running
loop's clock (:func:`repro.serve.clock.now`), which under
:func:`~repro.serve.clock.run_virtual` is virtual time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["QuotaExceeded", "UnknownTenant", "TenantSpec", "TokenBucket",
           "TenantRegistry"]


class QuotaExceeded(RuntimeError):
    """A tenant's token bucket cannot cover the request right now.

    Carries the tenant name, the request size, and ``retry_after`` —
    the seconds until the bucket will have refilled enough to admit a
    request of this size (the hint a well-behaved client sleeps on).
    """

    def __init__(self, tenant: str, requested: int, retry_after: float):
        super().__init__(
            f"tenant {tenant!r} over quota: {requested} keys requested, "
            f"retry after {retry_after:.4f}s")
        self.tenant = tenant
        self.requested = requested
        self.retry_after = retry_after


class UnknownTenant(KeyError):
    """A request named a tenant the registry has never heard of."""

    def __init__(self, tenant: str):
        super().__init__(tenant)
        self.tenant = tenant

    def __str__(self) -> str:
        return f"unknown tenant {self.tenant!r} (register a TenantSpec first)"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's service contract.

    * ``weight`` — relative share of a busy shard's flushes under
      contention (the DRR scheduler serves ~``weight / sum(weights)``
      of the saturated throughput to this tenant);
    * ``rate`` / ``burst`` — token-bucket quota in keys/second and
      bucket capacity in keys (``None`` rate = unlimited; ``burst``
      defaults to one second of rate);
    * ``priority`` — shedding class: class *p* sees an effective
      admission bound of ``max_inflight >> p``, so best-effort traffic
      is rejected while the engine still has headroom for class 0;
    * ``slo_ms`` — per-query latency target graded by the SLO
      attainment gauge in :class:`~repro.tenant.metrics.TenantMetricsSet`.
    """

    name: str
    weight: float = 1.0
    rate: float | None = None
    burst: float | None = None
    priority: int = 0
    slo_ms: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise ValueError("tenant weight must be a positive finite float")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be > 0 keys/s (None = unlimited)")
        if self.burst is not None and self.burst <= 0:
            raise ValueError("burst must be > 0 keys (None = 1s of rate)")
        if self.priority < 0:
            raise ValueError("priority class must be >= 0")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError("slo_ms must be > 0")

    @property
    def bucket_capacity(self) -> float | None:
        """Effective burst credit in keys (None = unlimited tenant)."""
        if self.rate is None:
            return None
        return self.burst if self.burst is not None else self.rate

    def to_doc(self) -> dict:
        return {"name": self.name, "weight": self.weight, "rate": self.rate,
                "burst": self.burst, "priority": self.priority,
                "slo_ms": self.slo_ms}

    @classmethod
    def from_doc(cls, doc: dict) -> "TenantSpec":
        return cls(
            name=str(doc["name"]),
            weight=float(doc.get("weight", 1.0)),
            rate=None if doc.get("rate") is None else float(doc["rate"]),
            burst=None if doc.get("burst") is None else float(doc["burst"]),
            priority=int(doc.get("priority", 0)),
            slo_ms=None if doc.get("slo_ms") is None else float(doc["slo_ms"]),
        )


class TokenBucket:
    """Classic token bucket with an explicit clock.

    Holds up to *burst* tokens, refilling at *rate* tokens/second.
    ``try_take(n, now)`` either debits *n* tokens or reports the
    seconds until they will exist — callers surface that as the
    retry-after hint.  The caller passes the time, so the bucket is
    deterministic under any clock.
    """

    __slots__ = ("rate", "burst", "tokens", "_t")

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be > 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)  # a fresh tenant starts with full credit
        self._t: float | None = None

    def _refill(self, now: float) -> None:
        if self._t is None:
            self._t = now
            return
        if now > self._t:
            self.tokens = min(self.burst, self.tokens + (now - self._t) * self.rate)
            self._t = now

    def available(self, now: float) -> float:
        """Tokens on hand at *now* (after refill)."""
        self._refill(now)
        return self.tokens

    def try_take(self, n: float, now: float) -> float | None:
        """Debit *n* tokens; returns None on success, else retry-after.

        The hint is exact for the refill model: after that many
        seconds the bucket holds at least ``min(n, burst)`` tokens.
        Requests larger than the bucket itself can never succeed in
        one take; they get the time to a *full* bucket (clients should
        split such requests).
        """
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return None
        deficit = min(n, self.burst) - self.tokens
        return max(deficit, 0.0) / self.rate

    def refund(self, n: float) -> None:
        """Return tokens debited for work that was never enqueued."""
        self.tokens = min(self.burst, self.tokens + n)


class TenantRegistry:
    """The admission table: specs plus live token buckets.

    The query engine calls :meth:`admit` on every request; the DRR
    scheduler reads :meth:`weights`.  Registration order is preserved
    (it seeds the scheduler's initial round-robin order).
    """

    def __init__(self, specs: "list[TenantSpec] | tuple[TenantSpec, ...]" = ()):
        self._specs: dict[str, TenantSpec] = {}
        self._buckets: dict[str, TokenBucket] = {}
        for spec in specs:
            self.register(spec)

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs)

    def register(self, spec: TenantSpec) -> TenantSpec:
        """Add (or replace) one tenant's contract; resets its bucket."""
        self._specs[spec.name] = spec
        if spec.rate is not None:
            self._buckets[spec.name] = TokenBucket(spec.rate, spec.bucket_capacity)
        else:
            self._buckets.pop(spec.name, None)
        return spec

    def spec(self, tenant: str) -> TenantSpec:
        try:
            return self._specs[tenant]
        except KeyError:
            raise UnknownTenant(tenant) from None

    def bucket(self, tenant: str) -> TokenBucket | None:
        """The tenant's live bucket (None for unlimited tenants)."""
        self.spec(tenant)
        return self._buckets.get(tenant)

    def weights(self) -> dict[str, float]:
        """Tenant -> DRR weight, in registration order."""
        return {name: spec.weight for name, spec in self._specs.items()}

    def admit(self, tenant: str, n: int) -> TenantSpec:
        """Charge *n* keys to the tenant's quota at the loop's time, or raise.

        Raises :class:`UnknownTenant` for unregistered names and
        :class:`QuotaExceeded` (with the retry-after hint) when the
        bucket cannot cover the request.  Returns the spec so callers
        get priority/weight without a second lookup.
        """
        from ..serve.clock import now  # lazy: serve -> engine -> tenant -> here

        spec = self.spec(tenant)
        bucket = self._buckets.get(tenant)
        if bucket is not None:
            hint = bucket.try_take(float(n), now())
            if hint is not None:
                raise QuotaExceeded(tenant, int(n), hint)
        return spec

    def refund(self, tenant: str, n: int) -> None:
        """Return quota debited for a request rejected downstream."""
        bucket = self._buckets.get(tenant)
        if bucket is not None:
            bucket.refund(float(n))

    def to_doc(self) -> dict:
        return {"tenants": [s.to_doc() for s in self._specs.values()]}

    @classmethod
    def from_doc(cls, doc: dict) -> "TenantRegistry":
        return cls([TenantSpec.from_doc(d) for d in doc.get("tenants", [])])
