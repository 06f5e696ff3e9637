"""Per-PE memory accounting and OOM modelling.

Two distinct jobs live here:

1. **Measured accounting** (:class:`MemoryTracker`): the simulated
   runtime registers every live aggregation buffer and data array with
   a category tag; high-water marks per PE feed Fig. 2 (per-core memory
   overhead of the 1D/2D/3D protocols).

2. **Closed-form models** (:func:`aggregation_memory_per_pe`,
   :func:`algorithm_footprint_bytes`): Table III's formulas and the
   per-algorithm working-set estimates used to decide *full-scale* OOM
   outcomes (Fig. 8: PakMan* dies on Synthetic 32 at 16 and 32 nodes;
   HySortK cannot run it at any node count).  OOM decisions must be
   made at paper scale even though we execute scaled-down replicas, so
   they are computed from the dataset descriptors, not from live
   allocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "OutOfMemoryError",
    "MemoryTracker",
    "L0_BUFFER_BYTES",
    "aggregation_memory_per_pe",
    "table3_rows",
]


class OutOfMemoryError(RuntimeError):
    """Raised when an algorithm's modelled footprint exceeds node DRAM."""

    def __init__(self, message: str, *, required: int, available: int) -> None:
        super().__init__(message)
        self.required = required
        self.available = available


#: Bytes of one L0 (Conveyors) buffer: Table III gives 40K x P^x per
#: PE, i.e. each of the P^x per-PE buffers holds 40 KiB.
L0_BUFFER_BYTES: int = 40 * 1024

#: Bytes per element in the L1 runtime buffer (packet slot); Table III:
#: C1 = 1024 elements -> 264 KB per PE, so ~258 B per slot (a packet of
#: up to C2 = 32 8-byte k-mers plus header/bookkeeping).
L1_SLOT_BYTES: int = 264

#: Bytes per element of an L2 buffer: Table III lists 264 x P bytes/PE
#: for C2 = 32 element buffers plus headroom -> 8.25 B/elem; we charge
#: 8 B of payload and amortised header.
L2_ELEM_BYTES: int = 8

#: Bytes per element of the single L3 buffer (80 KB / 10K elements).
L3_ELEM_BYTES: int = 8

#: Table III's buffer sizes in elements: L1 slots, L2 and L3 elements.
C1, C2, C3 = 1024, 32, 10_000


def aggregation_memory_per_pe(protocol: str, p: int) -> dict[str, int]:
    """Table III closed forms: bytes per PE for each aggregation layer.

    ``x`` is 1 for 1D, 1/2 for 2D, 1/3 for 3D; the L0 layer keeps
    ``P^x`` buffers of 40 KiB per PE.
    """
    proto = protocol.upper()
    exponents = {"1D": 1.0, "2D": 0.5, "3D": 1.0 / 3.0}
    if proto not in exponents:
        raise ValueError(f"unknown protocol {protocol!r}")
    x = exponents[proto]
    l0 = int(L0_BUFFER_BYTES * (p**x))
    l1 = L1_SLOT_BYTES * C1
    # One L2N + L2H pair per destination PE; amortised header included.
    l2 = 264 * p  # 264 B per destination at C2=32
    l3 = L3_ELEM_BYTES * C3
    return {"L0": l0, "L1": l1, "L2": l2, "L3": l3, "total": l0 + l1 + l2 + l3}


def table3_rows(p: int) -> list[dict]:
    """Rows of Table III for a machine of *p* PEs."""
    rows = []
    per_pe_1d = aggregation_memory_per_pe("1D", p)
    rows.append(
        {"Scope": "Runtime", "Layer": "L0", "Buffers/PE": "P^x",
         "Element/Buffer": "NA", "Memory/PE (1D)": per_pe_1d["L0"]}
    )
    rows.append(
        {"Scope": "Runtime", "Layer": "L1", "Buffers/PE": "1",
         "Element/Buffer": f"C1={C1}", "Memory/PE (1D)": per_pe_1d["L1"]}
    )
    rows.append(
        {"Scope": "Application", "Layer": "L2", "Buffers/PE": "P",
         "Element/Buffer": f"C2={C2}", "Memory/PE (1D)": per_pe_1d["L2"]}
    )
    rows.append(
        {"Scope": "Application", "Layer": "L3", "Buffers/PE": "1",
         "Element/Buffer": f"C3={C3}", "Memory/PE (1D)": per_pe_1d["L3"]}
    )
    return rows


@dataclass
class MemoryTracker:
    """Live allocation accounting for one simulated run.

    Allocations are keyed ``(pe, category)``; the tracker maintains the
    current and peak total per PE.  The runtime registers aggregation
    buffers, receive buffers and local k-mer arrays here.

    An optional ``budget_bytes`` arms live OOM detection: any
    allocation pushing a PE past the budget raises
    :class:`OutOfMemoryError` at the exact allocation site — the
    in-simulation counterpart of the full-scale footprint gates (used
    by tests to fault-inject memory exhaustion).
    """

    n_pes: int
    budget_bytes: int | None = None
    current: dict[tuple[int, str], int] = field(default_factory=dict)
    _per_pe: list[int] = field(default_factory=list)
    _peak: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self._per_pe:
            self._per_pe = [0] * self.n_pes
            self._peak = [0] * self.n_pes
        if self.budget_bytes is not None and self.budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive when given")

    def allocate(self, pe: int, category: str, nbytes: int) -> None:
        """Grow category *category* on PE *pe* by *nbytes*."""
        if nbytes < 0:
            raise ValueError("allocate takes non-negative sizes; use free")
        key = (pe, category)
        if (
            self.budget_bytes is not None
            and self._per_pe[pe] + nbytes > self.budget_bytes
        ):
            raise OutOfMemoryError(
                f"PE {pe} exceeded its {self.budget_bytes} B budget "
                f"allocating {nbytes} B for {category!r}",
                required=self._per_pe[pe] + nbytes,
                available=self.budget_bytes,
            )
        self.current[key] = self.current.get(key, 0) + nbytes
        self._per_pe[pe] += nbytes
        if self._per_pe[pe] > self._peak[pe]:
            self._peak[pe] = self._per_pe[pe]

    def free(self, pe: int, category: str, nbytes: int | None = None) -> None:
        """Release *nbytes* (or the whole category) on PE *pe*."""
        key = (pe, category)
        held = self.current.get(key, 0)
        amount = held if nbytes is None else nbytes
        if amount > held:
            raise ValueError(
                f"freeing {amount} B from {category!r} on PE {pe} "
                f"but only {held} B are held"
            )
        self.current[key] = held - amount
        self._per_pe[pe] -= amount

    def set_category(self, pe: int, category: str, nbytes: int) -> None:
        """Set a category to an absolute size (resize semantics)."""
        key = (pe, category)
        held = self.current.get(key, 0)
        if nbytes >= held:
            self.allocate(pe, category, nbytes - held)
        else:
            self.free(pe, category, held - nbytes)

    def set_category_path(self, pe: int, category: str, sizes) -> None:
        """:meth:`set_category` to each of *sizes* in turn, in one step.

        The peak is the running maximum of the trajectory, and a budget
        overrun raises the same :class:`OutOfMemoryError` at the same
        size as the one-at-a-time calls would.
        """
        key = (pe, category)
        other = self._per_pe[pe] - self.current.get(key, 0)
        top = other + max(sizes)
        if self.budget_bytes is not None and top > self.budget_bytes:
            for n in sizes:  # an overrun: the calls in turn raise where they would
                self.set_category(pe, category, n)
        if top > self._peak[pe]:
            self._peak[pe] = top
        self.current[key] = sizes[-1]
        self._per_pe[pe] = other + sizes[-1]

    def usage(self, pe: int) -> int:
        return self._per_pe[pe]

    def peak(self, pe: int) -> int:
        return self._peak[pe]

    def peak_any_pe(self) -> int:
        return max(self._peak, default=0)
