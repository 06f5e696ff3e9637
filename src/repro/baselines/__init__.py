"""Baseline counters the paper compares against (Section VI-A).

* :mod:`repro.baselines.kmc3` — KMC3-style shared-memory counter;
* :mod:`repro.baselines.pakman` — PakMan (quicksort) and PakMan*
  (radix) blocking-BSP kernels;
* :mod:`repro.baselines.hysortk` — HySortK-style non-blocking hybrid
  BSP counter.
"""

from .hysortk import hysortk_cost_model, hysortk_count
from .kmc3 import kmc3_count
from .pakman import pakman_count, pakman_star_count

__all__ = [
    "kmc3_count",
    "pakman_count",
    "pakman_star_count",
    "hysortk_count",
    "hysortk_cost_model",
]
