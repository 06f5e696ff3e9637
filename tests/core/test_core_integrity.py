"""Fault injection: the delivery conservation check must catch message
loss and duplication anywhere in the aggregation/conveyor stack."""

from __future__ import annotations

import pytest

from repro.core.dakc import DakcConfig, DeliveryIntegrityError, dakc_count
from repro.runtime.conveyors import Conveyor
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop

from dakc_reference import dakc_count_reference


def cost_model():
    return CostModel(laptop(nodes=2, cores=3))


class LossyConveyor(Conveyor):
    """Drops every Nth injected group (simulated message loss)."""

    drop_every = 7
    _seen = 0

    def inject_many(self, src, groups, ledger=None):
        kept = []
        for group in groups:
            LossyConveyor._seen += 1
            if LossyConveyor._seen % self.drop_every:
                kept.append(group)  # else: message silently lost
        super().inject_many(src, kept, ledger)


class DuplicatingConveyor(Conveyor):
    """Delivers one extra copy of every 11th group."""

    dup_every = 11
    _seen = 0

    def inject_many(self, src, groups, ledger=None):
        sent = []
        for group in groups:
            DuplicatingConveyor._seen += 1
            sent.append(group)
            if DuplicatingConveyor._seen % self.dup_every == 0:
                sent.append(group)
        super().inject_many(src, sent, ledger)


class TestConservation:
    def test_clean_run_passes(self, small_reads):
        kc, stats = dakc_count(small_reads, 21, cost_model())
        assert kc.total == stats.total_kmers

    @pytest.mark.parametrize("faulty", [LossyConveyor, DuplicatingConveyor])
    def test_fault_detected(self, small_reads, faulty, monkeypatch):
        faulty._seen = 0
        monkeypatch.setattr("repro.core.dakc.Conveyor", faulty)
        with pytest.raises(DeliveryIntegrityError, match="conservation"):
            dakc_count(small_reads, 21, cost_model())

    def test_fault_undetected_when_disabled(self, small_reads, monkeypatch):
        """With the check patched out, loss silently corrupts counts — the
        reason every run checks."""
        LossyConveyor._seen = 0
        monkeypatch.setattr("repro.core.dakc.Conveyor", LossyConveyor)
        monkeypatch.setattr("repro.core.dakc._verify_conservation", lambda stats, conv: None)
        kc, stats = dakc_count(small_reads, 21, cost_model())
        assert kc.total < stats.total_kmers  # corrupted, undetected

    def test_exact_mode_also_checked(self, tiny_reads, monkeypatch):
        LossyConveyor._seen = 0
        monkeypatch.setattr("repro.core.dakc.Conveyor", LossyConveyor)
        with pytest.raises(DeliveryIntegrityError):
            dakc_count_reference(tiny_reads, 9, cost_model(), DakcConfig())
