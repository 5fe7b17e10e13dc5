"""Simulated memory spaces: global, shared (per CTA), local (per thread).

Global memory is a flat byte arena with a bump allocator (256-byte
aligned like ``cudaMalloc``), an allocation table for bounds checking,
and typed vector load/store used by the warp interpreter (all 32 lanes
gathered/scattered in one numpy call).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MemoryError_
from repro.gpu.coalescing import WarpAccess
from repro.ir.types import Type

#: Device addresses start here so that 0/NULL and small ints fault.
GLOBAL_BASE = 0x1000


class Allocation:
    """One live allocation in an arena."""

    __slots__ = ("base", "nbytes", "tag", "freed")

    def __init__(self, base: int, nbytes: int, tag: str):
        self.base = base
        self.nbytes = nbytes
        self.tag = tag
        self.freed = False

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Allocation {self.tag} [{self.base:#x}, {self.end:#x})>"


class _Arena:
    """Warp-wide typed access to a flat byte arena (``self._buf``).

    Elements are naturally aligned (allocator + GEP guarantee it), so an
    element's index is its byte address over the item size. Each arena
    defines ``_fault_check(active, itemsize)``, which raises its fault
    for a vector of active-lane addresses, and ``_check_access(acc,
    itemsize)``, which decides from a classified access's lowest and
    highest address and calls ``_fault_check`` only for a fault, so the
    error text is the same either way.
    """

    _buf: np.ndarray

    def gather(self, addrs: np.ndarray, mask: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Load one element of ``dtype`` per active lane; inactive lanes get 0.

        For a lane vector that was not classified (an atomic's one
        lane), numpy takes the fault range.
        """
        nactive = np.count_nonzero(mask)
        if not nactive:
            return np.zeros(len(addrs), dtype=dtype)
        full = nactive == len(addrs)
        active = addrs if full else addrs[mask]
        self._fault_check(active, dtype.itemsize)
        return self._read(dtype, mask, active, full)

    def scatter(self, addrs: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        """Store one element per active lane (last lane wins on conflicts)."""
        nactive = np.count_nonzero(mask)
        if nactive:
            full = nactive == len(addrs)
            active = addrs if full else addrs[mask]
            self._fault_check(active, values.dtype.itemsize)
            self._write(mask, active, values, full)

    def load(self, acc: WarpAccess, dtype: np.dtype) -> np.ndarray:
        """:meth:`gather` of a classified warp access."""
        self._check_access(acc, dtype.itemsize)
        return self._read(dtype, acc.mask, acc.active, acc.full)

    def store(self, acc: WarpAccess, values: np.ndarray) -> None:
        """:meth:`scatter` of a classified warp access."""
        self._check_access(acc, values.dtype.itemsize)
        self._write(acc.mask, acc.active, values, acc.full)

    def _read(self, dtype, mask, active, full: bool) -> np.ndarray:
        itemsize = dtype.itemsize
        got = self._buf.view(dtype)[
            active if itemsize == 1 else active // itemsize
        ]
        if full:
            return got
        result = np.zeros(len(mask), dtype=dtype)
        result[mask] = got
        return result

    def _write(self, mask, active, values, full: bool) -> None:
        itemsize = values.dtype.itemsize
        self._buf.view(values.dtype)[
            active if itemsize == 1 else active // itemsize
        ] = values if full else values[mask]


class GlobalMemory(_Arena):
    """The device's global memory arena."""

    def __init__(self, capacity: int = 64 * 1024 * 1024):
        self._buf = np.zeros(capacity, dtype=np.uint8)
        self._next = GLOBAL_BASE
        self._allocations: List[Allocation] = []
        self.check_bounds = True

    @property
    def capacity(self) -> int:
        return len(self._buf)

    def allocate(self, nbytes: int, tag: str = "", align: int = 256) -> Allocation:
        if nbytes <= 0:
            raise MemoryError_(f"cannot allocate {nbytes} bytes")
        base = (self._next + align - 1) // align * align
        if base + nbytes > self.capacity:
            raise MemoryError_(
                f"device out of memory allocating {nbytes} bytes"
            )
        self._next = base + nbytes
        alloc = Allocation(base, nbytes, tag)
        self._allocations.append(alloc)
        return alloc

    def free(self, alloc: Allocation) -> None:
        if alloc.freed:
            raise MemoryError_(f"double free of {alloc!r}")
        alloc.freed = True

    def find_allocation(self, addr: int) -> Optional[Allocation]:
        for alloc in self._allocations:
            if not alloc.freed and alloc.base <= addr < alloc.end:
                return alloc
        return None

    # -- host-side typed access (cudaMemcpy) ---------------------------------
    def write_bytes(self, addr: int, data: np.ndarray) -> None:
        raw = np.ascontiguousarray(data).view(np.uint8).ravel()
        self._check_range(addr, len(raw))
        self._buf[addr: addr + len(raw)] = raw

    def read_bytes(self, addr: int, nbytes: int) -> np.ndarray:
        self._check_range(addr, nbytes)
        return self._buf[addr: addr + nbytes].copy()

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < GLOBAL_BASE or addr + nbytes > self.capacity:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside device memory"
            )

    # -- warp-wide typed access ------------------------------------------------
    def _check_access(self, acc: WarpAccess, itemsize: int) -> None:
        hi = acc.hi + itemsize
        if (acc.lo < GLOBAL_BASE or hi > self.capacity
                or (hi > self._next and self.check_bounds
                    and self._allocations)):
            self._fault_check(acc.active, itemsize)

    def _fault_check(self, addrs: np.ndarray, itemsize: int) -> None:
        lo = int(addrs.min())
        hi = int(addrs.max()) + itemsize
        if lo < GLOBAL_BASE or hi > self.capacity:
            bad = addrs[(addrs < GLOBAL_BASE) | (addrs + itemsize > self.capacity)]
            raise MemoryError_(
                f"global memory fault at address {int(bad[0]):#x}"
            )
        if self.check_bounds and self._allocations:
            # Cheap check: the whole access range must fall inside the
            # allocated prefix of the arena.
            if hi > self._next:
                raise MemoryError_(
                    f"global memory access at {hi - itemsize:#x} beyond the "
                    f"last allocation (heap ends at {self._next:#x})"
                )


class SharedMemory(_Arena):
    """One CTA's shared-memory arena (scratchpad)."""

    def __init__(self, nbytes: int):
        self._buf = np.zeros(max(nbytes, 1), dtype=np.uint8)

    @property
    def nbytes(self) -> int:
        return len(self._buf)

    def _check_access(self, acc: WarpAccess, itemsize: int) -> None:
        if acc.lo < 0 or acc.hi + itemsize > len(self._buf):
            self._fault_check(acc.active, itemsize)

    def _fault_check(self, addrs: np.ndarray, itemsize: int) -> None:
        if int(addrs.min()) < 0 or int(addrs.max()) + itemsize > len(self._buf):
            raise MemoryError_(
                f"shared memory fault (arena is {len(self._buf)} bytes, "
                f"access at {int(addrs.max()):#x})"
            )


class LocalMemory:
    """Per-thread local storage for one warp: a (32, arena_size) arena.

    Alloca'd stack slots live here; a per-warp frame pointer advances on
    call and rewinds on return. Addresses are frame-relative byte
    offsets, identical across lanes (each lane has its own copy of the
    arena row).
    """

    def __init__(self, warp_size: int, arena_size: int = 1 << 16):
        # The arena is allocated lazily: most kernels keep every value in
        # registers and never touch local memory, and zeroing a
        # (32, 64KiB) array per resident warp dominates launch setup.
        self._lazy_buf: Optional[np.ndarray] = None
        self._warp_size = warp_size
        self.arena_size = arena_size
        self._lane_index = np.arange(warp_size)

    @property
    def _buf(self) -> np.ndarray:
        buf = self._lazy_buf
        if buf is None:
            buf = np.zeros((self._warp_size, self.arena_size), dtype=np.uint8)
            self._lazy_buf = buf
        return buf

    def gather(self, addrs: np.ndarray, mask: np.ndarray, dtype: np.dtype) -> np.ndarray:
        itemsize = dtype.itemsize
        result = np.zeros(len(addrs), dtype=dtype)
        if not mask.any():
            return result
        active = addrs[mask]
        self._fault_check(active, itemsize)
        lanes = self._lane_index[mask]
        if itemsize == 1:
            result[mask] = self._buf[lanes, active].view(dtype)
        else:
            view = self._buf.view(dtype)
            result[mask] = view[lanes, active // itemsize]
        return result

    def scatter(self, addrs: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        if not mask.any():
            return
        itemsize = values.dtype.itemsize
        active = addrs[mask]
        self._fault_check(active, itemsize)
        lanes = self._lane_index[mask]
        if itemsize == 1:
            self._buf[lanes, active] = values[mask].view(np.uint8)
        else:
            self._buf.view(values.dtype)[lanes, active // itemsize] = values[mask]

    def _fault_check(self, addrs: np.ndarray, itemsize: int) -> None:
        if int(addrs.min()) < 0 or int(addrs.max()) + itemsize > self.arena_size:
            raise MemoryError_("local memory (stack) overflow in a kernel thread")
