"""``repro.gpusim`` — a SIMT GPU simulator substrate.

This package stands in for the NVIDIA Tesla K40c + CUDA runtime the paper
evaluates on.  It provides:

* :class:`~repro.gpusim.device.DeviceSpec` hardware models (K40c, C2050, a
  micro test device),
* global and per-block shared memory with allocation tracking and OOM
  semantics (:mod:`repro.gpusim.memory`),
* a lock-step warp interpreter for generator-style kernels
  (:mod:`repro.gpusim.executor`, :mod:`repro.gpusim.warp`),
* coalescing, bank-conflict, divergence, occupancy, and cycle-cost models
  (:mod:`repro.gpusim.coalescing`, :mod:`repro.gpusim.timing`,
  :mod:`repro.gpusim.occupancy`),
* profiler-style launch reports (:mod:`repro.gpusim.profiler`).

See DESIGN.md section 2 for why this substitution preserves the paper's
claims.
"""

from .coalescing import classify_pattern, coalesce_transactions
from .device import DEVICE_CATALOG, K40C, MICRO, C2050, DeviceSpec, get_device
from .errors import (
    AllocationError,
    DeviceOutOfMemoryError,
    GpuSimError,
    InvalidLaunchError,
    KernelFault,
    MemoryAccessError,
    SharedMemoryExceededError,
)
from .executor import GpuDevice
from .faults import FaultPlan, FaultStats
from .grid import Dim3, LaunchConfig
from .memcheck import MemcheckReport, RaceFinding, check_races
from .memory import DeviceArray, GlobalMemory, MemoryStats, SharedMemory
from .occupancy import Occupancy, compute_occupancy
from .profiler import LaunchReport, PipelineReport
from .streams import (
    EngineKind,
    SimEvent,
    SimOp,
    SimTimeline,
    Stream,
    build_double_buffered_schedule,
)
from .thread import ThreadContext
from .timing import CostModel, LaunchTiming
from .tracing import AccessRecord, Tracer

__all__ = [
    "AllocationError",
    "CostModel",
    "DEVICE_CATALOG",
    "DeviceArray",
    "DeviceOutOfMemoryError",
    "DeviceSpec",
    "Dim3",
    "FaultPlan",
    "FaultStats",
    "GlobalMemory",
    "GpuDevice",
    "GpuSimError",
    "InvalidLaunchError",
    "K40C",
    "KernelFault",
    "LaunchConfig",
    "LaunchReport",
    "LaunchTiming",
    "MICRO",
    "C2050",
    "MemoryAccessError",
    "MemoryStats",
    "Occupancy",
    "PipelineReport",
    "EngineKind",
    "SimEvent",
    "SimOp",
    "SimTimeline",
    "Stream",
    "SharedMemory",
    "build_double_buffered_schedule",
    "SharedMemoryExceededError",
    "ThreadContext",
    "AccessRecord",
    "MemcheckReport",
    "RaceFinding",
    "Tracer",
    "check_races",
    "classify_pattern",
    "coalesce_transactions",
    "compute_occupancy",
    "get_device",
]
