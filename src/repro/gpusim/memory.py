"""Simulated device memories.

Two memory spaces matter to GPU-ArraySort:

* **Global memory** — the multi-GB device DRAM.  We model it as a byte-
  addressed arena with a bump-pointer allocator, free-list reuse, byte
  accounting (this drives the Table 1 capacity experiment), and typed
  array views handed back to kernels.
* **Shared memory** — the 48 KB per-block scratchpad.  Each simulated block
  gets a private :class:`SharedMemory` sized by the launch config; the
  executor recreates it per block, matching CUDA lifetime rules.

Allocations return :class:`DeviceArray`, a thin typed window over the arena.
Kernels address device arrays by element index; the coalescing analyzer
converts element indices into byte addresses using the array's base offset,
so warp access patterns map onto realistic 128-byte transaction tiles.
"""

from __future__ import annotations

import dataclasses
import mmap
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from .device import DeviceSpec
from .errors import (
    AllocationError,
    DeviceOutOfMemoryError,
    MemoryAccessError,
    SharedMemoryExceededError,
)

__all__ = ["DeviceArray", "GlobalMemory", "SharedMemory", "MemoryStats"]

#: Allocation granularity of the global allocator, bytes.  The CUDA
#: allocator aligns to at least 256 bytes; matching it keeps our footprint
#: accounting honest for many small allocations.
ALLOC_ALIGN = 256


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


@dataclasses.dataclass
class MemoryStats:
    """Running counters for a :class:`GlobalMemory` arena."""

    total_bytes: int
    allocated_bytes: int = 0
    peak_bytes: int = 0
    allocation_count: int = 0
    free_count: int = 0
    failed_allocations: int = 0

    @property
    def free_bytes(self) -> int:
        return self.total_bytes - self.allocated_bytes


class DeviceArray:
    """A typed 1-D window into a simulated memory arena.

    Supports the small surface kernels need — indexed load/store and bulk
    host<->device copies — while tracking its base byte offset so access
    patterns can be analyzed at the transaction level.
    """

    def __init__(
        self,
        backing: np.ndarray,
        byte_offset: int,
        length: int,
        dtype: np.dtype,
        space: str,
        name: str = "",
    ) -> None:
        self._dtype = np.dtype(dtype)
        self._byte_offset = int(byte_offset)
        self._length = int(length)
        self._space = space
        self._name = name or f"{space}@{byte_offset}"
        nbytes = self._length * self._dtype.itemsize
        self._view = backing[byte_offset : byte_offset + nbytes].view(self._dtype)
        self._freed = False

    # -- metadata ---------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def itemsize(self) -> int:
        return self._dtype.itemsize

    def __len__(self) -> int:
        return self._length

    @property
    def nbytes(self) -> int:
        return self._length * self._dtype.itemsize

    @property
    def byte_offset(self) -> int:
        """Base byte address of element 0 inside the arena."""
        return self._byte_offset

    @property
    def space(self) -> str:
        """``"global"`` or ``"shared"``."""
        return self._space

    @property
    def name(self) -> str:
        return self._name

    def address_of(self, index: int) -> int:
        """Byte address of ``self[index]`` inside the arena."""
        return self._byte_offset + index * self._dtype.itemsize

    # -- access -----------------------------------------------------------
    def _check(self, index: int) -> int:
        if self._freed:
            raise MemoryAccessError(f"use-after-free on {self._name}")
        idx = int(index)
        if idx < 0 or idx >= self._length:
            raise MemoryAccessError(
                f"index {idx} out of bounds for {self._name} of length {self._length}"
            )
        return idx

    def load(self, index: int):
        """Read one element (kernel-facing; bounds-checked)."""
        return self._view[self._check(index)]

    def store(self, index: int, value) -> None:
        """Write one element (kernel-facing; bounds-checked)."""
        self._view[self._check(index)] = value

    # -- host-side bulk operations -----------------------------------------
    def copy_from_host(self, host: np.ndarray) -> None:
        """Simulated ``cudaMemcpy`` host-to-device."""
        if self._freed:
            raise MemoryAccessError(f"use-after-free on {self._name}")
        host = np.asarray(host, dtype=self._dtype).ravel()
        if host.size != self._length:
            raise MemoryAccessError(
                f"H2D size mismatch: host has {host.size} elements, "
                f"device array {self._name} has {self._length}"
            )
        self._view[:] = host

    def copy_to_host(self) -> np.ndarray:
        """Simulated ``cudaMemcpy`` device-to-host (returns a fresh array)."""
        if self._freed:
            raise MemoryAccessError(f"use-after-free on {self._name}")
        return self._view.copy()

    def as_ndarray(self) -> np.ndarray:
        """Zero-copy view for vectorized engine internals and assertions.

        This is a simulation backdoor: real device memory is not
        host-addressable.  Only host-side orchestration code may use it.
        """
        if self._freed:
            raise MemoryAccessError(f"use-after-free on {self._name}")
        return self._view

    def fill(self, value) -> None:
        """Simulated ``cudaMemset``-style fill."""
        if self._freed:
            raise MemoryAccessError(f"use-after-free on {self._name}")
        self._view[:] = value

    def _mark_freed(self) -> None:
        self._freed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceArray({self._name}, len={self._length}, "
            f"dtype={self._dtype.name}, space={self._space})"
        )


def _zeroed_backing(nbytes: int) -> np.ndarray:
    """A zero-filled byte arena whose pages are committed only when touched.

    A modeled device's global memory can exceed the host's RAM (the
    K40c's 8.2 GiB usable against a smaller host).  An anonymous private
    ``MAP_NORESERVE`` mapping reserves address space only, so a
    simulated device costs the host what its kernels actually touch.
    Where the mapping is unavailable, this falls back to ``np.zeros``.
    """
    # Python < 3.13 exposes no MAP_NORESERVE; 0x4000 is Linux's value.
    noreserve = getattr(
        mmap, "MAP_NORESERVE", 0x4000 if sys.platform.startswith("linux") else 0
    )
    try:
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | noreserve
        return np.frombuffer(mmap.mmap(-1, nbytes, flags=flags), dtype=np.uint8)
    except (AttributeError, OSError, OverflowError, ValueError):
        return np.zeros(nbytes, dtype=np.uint8)


class GlobalMemory:
    """The device's global-memory arena with a first-fit allocator.

    The allocator is deliberately simple (sorted free list, first fit,
    coalescing on free) — enough to model fragmentation-free batch
    workloads while making double frees and leaks detectable in tests.
    """

    def __init__(self, device: DeviceSpec, capacity_bytes: Optional[int] = None) -> None:
        self.device = device
        total = int(capacity_bytes if capacity_bytes is not None else device.usable_global_mem_bytes)
        if total <= 0:
            raise AllocationError("global memory capacity must be positive")
        self._backing = _zeroed_backing(total)
        self.stats = MemoryStats(total_bytes=total)
        #: (offset, size) spans currently free, sorted by offset.
        self._free_spans: List[Tuple[int, int]] = [(0, total)]
        #: offset -> (size, DeviceArray) for live allocations.
        self._live: Dict[int, Tuple[int, DeviceArray]] = {}

    # -- allocation --------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.stats.total_bytes

    @property
    def free_bytes(self) -> int:
        return self.stats.free_bytes

    def alloc(self, length: int, dtype, name: str = "") -> DeviceArray:
        """Allocate a typed array of ``length`` elements.

        Raises :class:`DeviceOutOfMemoryError` when no free span fits,
        which is the mechanism behind the Table 1 capacity measurements.
        """
        if length < 0:
            raise AllocationError(f"negative allocation length {length}")
        dt = np.dtype(dtype)
        nbytes = _align_up(max(length * dt.itemsize, 1), ALLOC_ALIGN)
        for i, (offset, size) in enumerate(self._free_spans):
            if size >= nbytes:
                remainder = size - nbytes
                if remainder:
                    self._free_spans[i] = (offset + nbytes, remainder)
                else:
                    del self._free_spans[i]
                arr = DeviceArray(self._backing, offset, length, dt, "global", name)
                self._live[offset] = (nbytes, arr)
                self.stats.allocated_bytes += nbytes
                self.stats.peak_bytes = max(self.stats.peak_bytes, self.stats.allocated_bytes)
                self.stats.allocation_count += 1
                return arr
        self.stats.failed_allocations += 1
        raise DeviceOutOfMemoryError(nbytes, self.free_bytes, self.capacity_bytes)

    def alloc_like(self, host: np.ndarray, name: str = "") -> DeviceArray:
        """Allocate and copy a host array to the device in one step."""
        host = np.asarray(host)
        arr = self.alloc(host.size, host.dtype, name=name)
        arr.copy_from_host(host.ravel())
        return arr

    def free(self, array: DeviceArray) -> None:
        """Release an allocation, coalescing adjacent free spans."""
        offset = array.byte_offset
        entry = self._live.pop(offset, None)
        if entry is None:
            raise AllocationError(
                f"free of unknown or already-freed allocation at offset {offset}"
            )
        nbytes, arr = entry
        arr._mark_freed()
        self.stats.allocated_bytes -= nbytes
        self.stats.free_count += 1
        self._free_spans.append((offset, nbytes))
        self._free_spans.sort()
        merged: List[Tuple[int, int]] = []
        for span in self._free_spans:
            if merged and merged[-1][0] + merged[-1][1] == span[0]:
                merged[-1] = (merged[-1][0], merged[-1][1] + span[1])
            else:
                merged.append(list(span))  # type: ignore[arg-type]
        self._free_spans = [tuple(s) for s in merged]

    def live_allocations(self) -> int:
        """Number of allocations not yet freed (leak checking in tests)."""
        return len(self._live)

    def reset(self) -> None:
        """Free everything; arena contents become undefined (like a fresh context)."""
        for _, arr in list(self._live.values()):
            arr._mark_freed()
        self._live.clear()
        self.stats.allocated_bytes = 0
        self._free_spans = [(0, self.capacity_bytes)]


class SharedMemory:
    """Per-block scratchpad memory with a bump allocator.

    A fresh instance is created for every simulated block, mirroring the
    block-lifetime semantics of ``__shared__`` storage.  Allocation beyond
    the device's per-block limit raises
    :class:`SharedMemoryExceededError` (a compile-time error in real CUDA).
    """

    def __init__(self, device: DeviceSpec, limit_bytes: Optional[int] = None) -> None:
        self.limit = int(limit_bytes if limit_bytes is not None else device.shared_mem_per_block)
        if self.limit <= 0 or self.limit > device.shared_mem_per_block:
            raise SharedMemoryExceededError(self.limit, device.shared_mem_per_block)
        self._backing = np.zeros(self.limit, dtype=np.uint8)
        self._cursor = 0
        self.alloc_count = 0

    @property
    def used_bytes(self) -> int:
        return self._cursor

    @property
    def free_bytes(self) -> int:
        return self.limit - self._cursor

    def alloc(self, length: int, dtype, name: str = "") -> DeviceArray:
        """Allocate a typed array in shared memory (4-byte aligned)."""
        if length < 0:
            raise AllocationError(f"negative allocation length {length}")
        dt = np.dtype(dtype)
        start = _align_up(self._cursor, max(dt.itemsize, 4))
        nbytes = length * dt.itemsize
        if start + nbytes > self.limit:
            raise SharedMemoryExceededError(start + nbytes, self.limit)
        self._cursor = start + nbytes
        self.alloc_count += 1
        return DeviceArray(self._backing, start, length, dt, "shared", name)
