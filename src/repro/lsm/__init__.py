"""repro.lsm — log-structured, updatable k-mer count store.

The counting layers produce frozen databases and :mod:`repro.serve`
answers queries over them; this package closes the loop for a *live*
system: new reads keep arriving, and the store absorbs them durably
while continuing to serve exact counts — no full recount, no downtime.

* :mod:`repro.lsm.wal` — checksummed write-ahead log of encoded read
  batches with torn-tail repair and replay-on-open;
* :mod:`repro.lsm.memtable` — in-memory sorted count delta under a
  byte budget (built on ``sort.accumulate`` products);
* :mod:`repro.lsm.run` — immutable sorted runs on disk: raw key and
  count sections behind a framed header with min/max fences and a
  sparse index block, for point lookups without loading the run;
* :mod:`repro.lsm.compaction` — size-tiered, bounded-memory streaming
  k-way merge with atomic publication;
* :mod:`repro.lsm.store` — the :class:`LsmStore` façade
  (``ingest`` / ``get`` / ``snapshot`` / ``compact``) and the
  :class:`LsmReadView` that plugs into :mod:`repro.serve`'s
  ``QueryEngine`` for serve-while-ingesting;
* :mod:`repro.lsm.crash` — deterministic crash-point injection used by
  the recovery tests.

See ``docs/LSM.md`` for the design, the crash-consistency argument,
and the memory-budget knobs.
"""

from .compaction import merge_runs, pick_compaction
from .crash import CRASH_POINTS, CrashPoints, SimulatedCrash
from .memtable import Memtable
from .run import Run, write_run
from .store import LsmConfig, LsmReadView, LsmStats, LsmStore
from .wal import WriteAheadLog, as_read_list

__all__ = [
    "LsmStore",
    "LsmConfig",
    "LsmStats",
    "LsmReadView",
    "Memtable",
    "Run",
    "write_run",
    "WriteAheadLog",
    "as_read_list",
    "pick_compaction",
    "merge_runs",
    "CrashPoints",
    "SimulatedCrash",
    "CRASH_POINTS",
]
