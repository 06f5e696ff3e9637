"""The product's settable values.

A value that no caller sets to a second value is a module constant, not
a field: adding a setting back means editing the field lists below.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.baselines
import repro.cluster
import repro.core.minipart
import repro.lsm
from repro.lsm import LsmConfig
from repro.serve import EngineConfig


@pytest.mark.parametrize("package,name", [
    (repro.cluster, "RouterConfig"),
    (repro.lsm, "CompactionConfig"),
    (repro.baselines, "Kmc3Config"),
    (repro.core.minipart, "MinimizerPartitionConfig"),
])
def test_deleted_config_classes_are_not_exported(package, name):
    assert name not in package.__all__
    assert not hasattr(package, name)


@pytest.mark.parametrize("config,fields", [
    (EngineConfig, ["fair_scheduling", "flush_service_time",
                    "flush_service_per_key"]),
    (LsmConfig, ["memtable_bytes", "max_runs", "fan_in", "canonical",
                 "wal_sync", "auto_compact"]),
])
def test_config_fields_are_exactly_the_settings_in_use(config, fields):
    assert [f.name for f in dataclasses.fields(config)] == fields
