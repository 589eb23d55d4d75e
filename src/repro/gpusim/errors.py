"""Error hierarchy for the GPU simulator.

The simulator is deliberately strict: the real CUDA runtime fails loudly on
out-of-memory and silently corrupts on out-of-bounds.  We make *both* loud,
because a reproduction substrate that silently corrupts would hide exactly
the class of bugs (bucket overlap, bad write-back offsets) that the paper's
in-place design has to get right.
"""

from __future__ import annotations


class GpuSimError(Exception):
    """Base class for all simulator errors."""


class DeviceOutOfMemoryError(GpuSimError):
    """Raised when a global-memory allocation exceeds remaining capacity.

    Mirrors ``cudaErrorMemoryAllocation``.  Carries the request and the
    remaining capacity so capacity experiments (Table 1) can introspect how
    far an allocation overshot.
    """

    def __init__(self, requested: int, free: int, total: int) -> None:
        self.requested = int(requested)
        self.free = int(free)
        self.total = int(total)
        super().__init__(
            f"device out of memory: requested {requested} bytes, "
            f"free {free} of {total} bytes"
        )


class SharedMemoryExceededError(GpuSimError):
    """Raised when a block requests more shared memory than the device has."""

    def __init__(self, requested: int, limit: int) -> None:
        self.requested = int(requested)
        self.limit = int(limit)
        super().__init__(
            f"shared memory request of {requested} bytes exceeds the "
            f"per-block limit of {limit} bytes"
        )


class InvalidLaunchError(GpuSimError):
    """Raised for launch configurations the device cannot schedule.

    Mirrors ``cudaErrorInvalidConfiguration`` (e.g. more threads per block
    than the hardware maximum, zero-sized grids).
    """


class MemoryAccessError(GpuSimError):
    """Raised on out-of-bounds or misaligned accesses to simulated memory."""


class AllocationError(GpuSimError):
    """Raised for malformed allocation requests (negative size, bad dtype)."""


class KernelFault(GpuSimError):
    """Wraps an exception raised inside user kernel code with its context."""

    def __init__(self, message: str, block: tuple, thread: tuple) -> None:
        self.block = block
        self.thread = thread
        super().__init__(f"kernel fault in block {block}, thread {thread}: {message}")
