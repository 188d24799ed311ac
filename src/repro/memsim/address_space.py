"""Virtual address space and allocator for the simulated node.

All simulated memory -- host heap, device memory (``cudaMalloc``) and
managed/unified memory (``cudaMallocManaged``) -- lives in one flat 64-bit
virtual address space so that an address alone identifies an allocation,
exactly as XPlacer's shadow-memory table assumes.  Each kind is carved out
of its own region, which makes addresses self-describing in diagnostics
and guarantees the regions never collide.

Allocations may be *materialized* (backed by a real numpy buffer, used by
functional workload runs and the mini-CUDA interpreter) or *footprint-only*
(no backing; only page-state and timing are simulated, used for large
performance sweeps).
"""

from __future__ import annotations

import bisect
import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MemoryKind", "Allocation", "AddressSpace", "PAGE_SIZE"]

#: Simulated page size in bytes (CUDA UM migrates in units of at least 4 KiB).
PAGE_SIZE = 4096

#: Region bases, 1 TiB apart. Host pointers start low, like a real heap.
_REGION_BASE = {
    "host": 0x0000_1000_0000,
    "device": 0x0100_0000_0000,
    "managed": 0x0200_0000_0000,
}
_REGION_SPAN = 0x0100_0000_0000


class MemoryKind(enum.Enum):
    """Which allocator produced an allocation."""

    HOST = "host"          # malloc/new: CPU-only memory
    DEVICE = "device"      # cudaMalloc: GPU-only memory
    MANAGED = "managed"    # cudaMallocManaged: unified memory


@dataclass
class Allocation:
    """One live (or freed-but-remembered) allocation.

    :param base: first byte's virtual address.
    :param size: size in bytes.
    :param kind: host / device / managed.
    :param label: name for diagnostics (set by ``XplAllocData`` expansion
        or the allocating workload).
    :param data: optional backing buffer (``size`` bytes) when materialized.
    :param freed: set when the allocation has been released; the metadata
        survives until the next diagnostic (paper: the ``cudaFree`` wrapper
        "delays freeing the shadow memory until the next diagnostic").
    :param site: source site (``file:line (func)``) of the allocating call,
        captured by the runtime when causal tracking is on; empty otherwise.
    """

    base: int
    size: int
    kind: MemoryKind
    label: str = ""
    data: np.ndarray | None = None
    freed: bool = False
    serial: int = field(default=0)
    site: str = ""

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.base + self.size

    @property
    def num_pages(self) -> int:
        """Pages spanned (allocations are page-aligned for device/managed)."""
        return max(1, -(-self.size // PAGE_SIZE))

    @property
    def materialized(self) -> bool:
        """Whether a real backing buffer exists."""
        return self.data is not None

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` falls inside this allocation."""
        return self.base <= addr < self.end

    def offset_of(self, addr: int) -> int:
        """Byte offset of ``addr`` within the allocation."""
        if not self.contains(addr):
            raise ValueError(f"address {addr:#x} outside allocation {self.label or self.base:#x}")
        return addr - self.base

    def page_range(self, addr: int, nbytes: int) -> tuple[int, int]:
        """Half-open page-index range covering ``[addr, addr+nbytes)``."""
        off = self.offset_of(addr)
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if off + nbytes > self.size:
            raise ValueError("range extends past end of allocation")
        return off // PAGE_SIZE, (off + nbytes - 1) // PAGE_SIZE + 1

    def view(self, dtype: np.dtype | str, offset: int = 0, count: int | None = None) -> np.ndarray:
        """Typed numpy view into the backing buffer (materialized only)."""
        if self.data is None:
            raise RuntimeError(
                f"allocation {self.label or hex(self.base)} is footprint-only; "
                "no data view available"
            )
        dt = np.dtype(dtype)
        buf = self.data[offset:]
        if count is not None:
            buf = buf[: count * dt.itemsize]
        return buf.view(dt)


class AddressSpace:
    """Flat address space with per-kind bump allocators and address lookup.

    Lookup by address is the hot path (every traced access resolves its
    allocation), so live allocations are kept in a sorted list of base
    addresses and searched with :func:`bisect.bisect_right`.
    """

    def __init__(self) -> None:
        self._cursor = dict(_REGION_BASE)
        self._bases: list[int] = []           # sorted bases of live allocations
        self._allocs: list[Allocation] = []   # parallel to _bases
        self._serial = itertools.count(1)
        self.all_allocations: list[Allocation] = []  # includes freed, in order
        self._hit: Allocation | None = None   # last find() result (hot loops
        #                                       resolve the same block)

    def __len__(self) -> int:
        return len(self._allocs)

    def allocate(
        self,
        size: int,
        kind: MemoryKind,
        *,
        label: str = "",
        materialize: bool = True,
    ) -> Allocation:
        """Create a new allocation of ``size`` bytes.

        Device and managed allocations are page-aligned and padded to whole
        pages in the address map (their ``size`` stays exact), mirroring
        the page-granular behaviour of the CUDA allocators.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        region = "host" if kind is MemoryKind.HOST else kind.value
        base = self._cursor[region]
        span = size
        if kind is not MemoryKind.HOST:
            span = -(-size // PAGE_SIZE) * PAGE_SIZE
        else:
            span = -(-size // 16) * 16  # 16-byte aligned host heap
        if base + span > _REGION_BASE[region] + _REGION_SPAN:
            raise MemoryError(f"simulated {region} region exhausted")
        self._cursor[region] = base + span
        data = np.zeros(size, dtype=np.uint8) if materialize else None
        alloc = Allocation(
            base=base, size=size, kind=kind, label=label, data=data,
            serial=next(self._serial),
        )
        idx = bisect.bisect_right(self._bases, base)
        self._bases.insert(idx, base)
        self._allocs.insert(idx, alloc)
        self.all_allocations.append(alloc)
        return alloc

    def free(self, base: int) -> Allocation:
        """Release the allocation starting at ``base``.

        The :class:`Allocation` object is returned with ``freed`` set; the
        caller (the UM driver / XPlacer runtime) decides how long to keep
        its metadata around.
        """
        idx = bisect.bisect_right(self._bases, base) - 1
        if idx < 0 or self._bases[idx] != base:
            raise ValueError(f"free of unknown base address {base:#x}")
        alloc = self._allocs.pop(idx)
        self._bases.pop(idx)
        alloc.freed = True
        alloc.data = None
        if self._hit is alloc:
            self._hit = None
        return alloc

    def find(self, addr: int) -> Allocation | None:
        """Live allocation containing ``addr``, or ``None``.

        Untracked addresses are not an error: XPlacer ignores accesses to
        memory it has not seen allocated.
        """
        hit = self._hit
        if hit is not None and hit.base <= addr < hit.base + hit.size:
            return hit
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx < 0:
            return None
        alloc = self._allocs[idx]
        if alloc.base <= addr < alloc.base + alloc.size:
            self._hit = alloc
            return alloc
        return None
