"""Model constants: Tables III and IV of the paper.

Table IV's Phoenix machine parameters live on
:func:`repro.runtime.machine.phoenix_intel`; this module re-exports
them in the paper's notation and carries the Table III aggregation
defaults, so every benchmark and test references one authoritative
source.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.machine import phoenix_intel

__all__ = [
    "DEFAULT_C1",
    "DEFAULT_C2",
    "DEFAULT_C3",
    "HEAVY_THRESHOLD",
    "Table4Params",
    "table4_params",
    "table4_rows",
]

#: Table III defaults: L1 runtime staging (packets).
DEFAULT_C1: int = 1024
#: Table III defaults: L2 packet size (k-mers per packet).
DEFAULT_C2: int = 32
#: Table III defaults: L3 heavy-hitter buffer (k-mers).
DEFAULT_C3: int = 10_000
#: Algorithm 4's HEAVY rule: count > 2 goes on the HEAVY path.
HEAVY_THRESHOLD: int = 2


@dataclass(frozen=True, slots=True)
class Table4Params:
    """Table IV in the paper's notation."""

    c_node: float  # Peak INT64 (ops/s)
    beta_mem: float  # Memory bandwidth (bytes/s)
    z: int  # Fast memory (bytes)
    l: int  # Cacheline size (bytes)
    beta_link: float  # Link bandwidth (bytes/s)


def table4_params() -> Table4Params:
    """Table IV parameters of a Phoenix Intel node."""
    m = phoenix_intel(1)
    return Table4Params(
        c_node=m.c_node,
        beta_mem=m.beta_mem,
        z=m.cache_bytes,
        l=m.line_bytes,
        beta_link=m.beta_link,
    )


def table4_rows() -> list[dict[str, str]]:
    """Printable rows of Table IV."""
    p = table4_params()
    return [
        {"Parameter": "Peak INT64", "Symbol": "C_node", "Value": f"{p.c_node / 1e9:.1f} GOp/s"},
        {"Parameter": "Memory Bandwidth", "Symbol": "beta_mem", "Value": f"{p.beta_mem / 1e9:.1f} GB/s"},
        {"Parameter": "Fast Memory", "Symbol": "Z", "Value": f"{p.z / 1024 / 1024:.0f} MB"},
        {"Parameter": "Cacheline size", "Symbol": "L", "Value": f"{p.l} B"},
        {"Parameter": "Link Bandwidth", "Symbol": "beta_link", "Value": f"{p.beta_link / 1e9:.1f} GB/s"},
    ]
