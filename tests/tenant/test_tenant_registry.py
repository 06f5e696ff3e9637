"""Tests for tenant specs, token buckets, and the admission registry."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.clock import run_virtual
from repro.tenant.registry import (
    QuotaExceeded,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    UnknownTenant,
)


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec("alice")
        assert spec.weight == 1.0
        assert spec.rate is None and spec.bucket_capacity is None
        assert spec.priority == 0 and spec.slo_ms is None

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "t", "weight": 0.0},
        {"name": "t", "weight": float("inf")},
        {"name": "t", "rate": -1.0},
        {"name": "t", "rate": 10.0, "burst": 0.0},
        {"name": "t", "priority": -1},
        {"name": "t", "slo_ms": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec(**kwargs)

    def test_burst_defaults_to_one_second_of_rate(self):
        assert TenantSpec("t", rate=50.0).bucket_capacity == 50.0
        assert TenantSpec("t", rate=50.0, burst=200.0).bucket_capacity == 200.0

    def test_doc_roundtrip(self):
        spec = TenantSpec("t", weight=2.5, rate=100.0, burst=400.0,
                          priority=2, slo_ms=25.0)
        assert TenantSpec.from_doc(spec.to_doc()) == spec
        unlimited = TenantSpec("u")
        assert TenantSpec.from_doc(unlimited.to_doc()) == unlimited


class TestTokenBucket:
    def test_starts_full_and_debits(self):
        b = TokenBucket(rate=10.0, burst=100.0)
        assert b.try_take(60.0, now=0.0) is None
        assert b.available(0.0) == pytest.approx(40.0)

    def test_retry_hint_is_exact_for_the_refill_model(self):
        b = TokenBucket(rate=10.0, burst=100.0)
        assert b.try_take(100.0, now=0.0) is None
        hint = b.try_take(30.0, now=0.0)
        assert hint == pytest.approx(3.0)  # 30 tokens at 10/s
        # Exactly at now + hint the take succeeds.
        assert b.try_take(30.0, now=hint) is None

    def test_oversized_request_hints_time_to_full_bucket(self):
        b = TokenBucket(rate=10.0, burst=50.0)
        b.try_take(50.0, now=0.0)
        hint = b.try_take(80.0, now=0.0)  # can never fit in one take
        assert hint == pytest.approx(5.0)  # time to a *full* bucket

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate=10.0, burst=40.0)
        b.try_take(40.0, now=0.0)
        assert b.available(1000.0) == pytest.approx(40.0)

    def test_refund_caps_at_burst(self):
        b = TokenBucket(rate=10.0, burst=40.0)
        b.try_take(10.0, now=0.0)
        b.refund(30.0)
        assert b.tokens == pytest.approx(40.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestTenantRegistry:
    def make(self):
        return TenantRegistry([
            TenantSpec("gold", weight=4.0, slo_ms=50.0),
            TenantSpec("bronze", weight=1.0, rate=100.0, burst=200.0,
                       priority=1),
        ])

    def test_contains_len_iter_preserve_order(self):
        reg = self.make()
        assert "gold" in reg and "bronze" in reg and "iron" not in reg
        assert len(reg) == 2
        assert list(reg) == ["gold", "bronze"]
        assert list(reg.weights().items()) == [("gold", 4.0), ("bronze", 1.0)]

    def test_unknown_tenant(self):
        reg = self.make()
        with pytest.raises(UnknownTenant):
            reg.spec("iron")
        with pytest.raises(UnknownTenant):
            reg.admit("iron", 1)

    def test_unlimited_tenant_has_no_bucket(self):
        reg = self.make()
        assert reg.bucket("gold") is None
        assert reg.bucket("bronze") is not None
        # Unlimited admission never raises, whatever the size.
        for _ in range(10):
            assert reg.admit("gold", 10**6).name == "gold"

    def test_admit_charges_and_raises_with_hint(self):
        reg = self.make()

        async def go():
            assert reg.admit("bronze", 200).priority == 1
            with pytest.raises(QuotaExceeded) as exc:
                reg.admit("bronze", 50)
            assert exc.value.tenant == "bronze"
            assert exc.value.requested == 50
            assert exc.value.retry_after == pytest.approx(0.5)  # 50 at 100/s
            # After the hinted interval the same request is admitted.
            await asyncio.sleep(exc.value.retry_after)
            assert reg.admit("bronze", 50) is not None

        run_virtual(go())

    def test_refund_restores_quota(self):
        reg = self.make()

        async def go():
            reg.admit("bronze", 200)
            reg.refund("bronze", 200)
            assert reg.admit("bronze", 200) is not None
            reg.refund("gold", 10)  # no-op for unlimited tenants

        run_virtual(go())

    def test_reregister_resets_bucket(self):
        reg = self.make()

        async def go():
            reg.admit("bronze", 200)
            reg.register(TenantSpec("bronze", rate=100.0, burst=200.0))
            assert reg.admit("bronze", 200) is not None

        run_virtual(go())

    def test_doc_roundtrip(self):
        reg = self.make()
        clone = TenantRegistry.from_doc(reg.to_doc())
        assert list(clone) == list(reg)
        assert clone.spec("gold") == reg.spec("gold")
        assert clone.spec("bronze") == reg.spec("bronze")
