"""Size-tiered compaction: streaming k-way merge of sorted runs.

Every flush adds a run, and every run a point read must probe is read
amplification; compaction is the counter-force.  The policy is
size-tiered (KMC-bin flavoured): when the store holds more than
``max_runs`` runs, the ``fan_in`` *smallest* are merged into one —
small runs are cheap to rewrite and merging peers of similar size
keeps total write amplification logarithmic.

The merge itself (:func:`merge_runs`) never materialises more than a
bounded working set:

1. each input run is cursored in :data:`CHUNK_KEYS`-element slices
   (:meth:`~repro.lsm.run.Run.read_slice` views of the mapped
   sections: nothing is read or copied until the merge below);
2. per iteration the *boundary* is the smallest last key offered across
   runs — every key ``<= boundary`` is provably present in the offered
   slices (keys within a run are sorted and unique), so those prefixes
   merge in one pass and are emitted final: concatenated, ordered by one
   stable ``argsort`` (timsort over at most ``fan_in`` sorted runs) and
   summed per key by one ``np.add.reduceat``;
3. merged chunks append to raw spill files, which are then memmapped
   and streamed into the final run file by
   :func:`~repro.lsm.run.write_run` (NumPy copies memmaps in bounded
   buffers).

Peak memory is O(``fan_in`` x :data:`CHUNK_KEYS`) elements regardless of
run sizes.  The output run is published with the same atomic
``.tmp`` + ``os.replace`` dance as a flush, so a crash mid-compaction
leaves the old runs authoritative and at worst an orphan file for the
store's reopen sweep.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .run import Run, write_run

__all__ = ["CHUNK_KEYS", "pick_compaction", "merge_runs"]

#: Keys each input run offers per merge step: the merge's working set is
#: this many keys per run (1 MiB of keys and counts), whatever the run sizes.
CHUNK_KEYS = 1 << 16


def pick_compaction(runs: list[Run], max_runs: int, fan_in: int) -> list[int] | None:
    """Indices of the *fan_in* smallest runs to merge next, or ``None``
    while the store holds no more than *max_runs* runs."""
    if len(runs) <= max_runs:
        return None
    order = sorted(range(len(runs)), key=lambda i: runs[i].n_keys)
    return sorted(order[: min(fan_in, len(runs))])


def _merge_pieces(keys: list[np.ndarray], vals: list[np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted, unique-keyed pieces in one sort, counts summed."""
    all_keys = np.concatenate(keys).astype(np.uint64, copy=False)
    order = np.argsort(all_keys, kind="stable")
    all_keys = all_keys[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(all_keys[1:] != all_keys[:-1]) + 1))
    return (all_keys[starts],
            np.add.reduceat(np.concatenate(vals)[order], starts).astype(np.int64))


def merge_runs(runs: list[Run], out_path: str | os.PathLike, k: int) -> None:
    """Merge *runs* into one new run at *out_path* (counts summed)."""
    if not runs:
        raise ValueError("nothing to merge")
    if any(r.k != k for r in runs):
        raise ValueError("runs disagree on k")
    out_path = Path(out_path)
    spill_keys = out_path.with_name(out_path.name + ".keys.spill")
    spill_vals = out_path.with_name(out_path.name + ".vals.spill")

    cursors = [0] * len(runs)
    n_out = 0
    try:
        with open(spill_keys, "wb") as fk, open(spill_vals, "wb") as fv:
            while True:
                # Every unfinished run offers its next CHUNK_KEYS pairs.
                heads = [(i, *r.read_slice(cursors[i], cursors[i] + CHUNK_KEYS))
                         for i, r in enumerate(runs) if cursors[i] < r.n_keys]
                if not heads:
                    break
                # The prefixes up to the smallest last key offered
                # jointly hold *all* keys <= that boundary.
                boundary = min(head[1][-1] for head in heads)
                piece_keys, piece_vals = [], []
                for i, bk, bv in heads:
                    cut = int(np.searchsorted(bk, boundary, side="right"))
                    cursors[i] += cut
                    if cut:
                        piece_keys.append(bk[:cut])
                        piece_vals.append(bv[:cut])
                mk, mv = _merge_pieces(piece_keys, piece_vals)
                fk.write(mk.tobytes())
                fv.write(mv.tobytes())
                n_out += int(mk.size)

        if n_out:
            keys = np.memmap(spill_keys, dtype=np.uint64, mode="r", shape=(n_out,))
            vals = np.memmap(spill_vals, dtype=np.int64, mode="r", shape=(n_out,))
        else:
            keys = np.empty(0, dtype=np.uint64)
            vals = np.empty(0, dtype=np.int64)
        write_run(out_path, k, keys, vals)
        del keys, vals
    finally:
        for spill in (spill_keys, spill_vals):
            if spill.exists():
                os.remove(spill)
