"""Shared helpers for the trace tests."""

from __future__ import annotations

import numpy as np
import pytest


def _same_records(a, b) -> bool:
    """Column-wise equality of two traces' records (provenance ignored)."""
    return all(np.array_equal(getattr(a, col), getattr(b, col))
               for col in ("ts", "streams", "keys", "tiers"))


@pytest.fixture
def same_records():
    return _same_records
