"""Out-of-core batch sorting (the paper's Section 9 future work).

The paper promises "an out-of-core GPU based array sort algorithm which
will be able to sort huge datasets ... without any concern of GPU global
memory", whose design "hides data transfer latencies in runtime".  This
module implements that extension:

* :class:`OutOfCoreSorter` splits a host-resident batch into chunks sized
  by the memory model (each chunk's footprint, including splitter/size
  metadata, must fit the device, halved when double-buffering so two
  chunks can be resident at once);
* transfers are modeled with a PCIe bandwidth term; with
  ``overlap=True`` a dual-buffer schedule overlaps chunk *i*'s compute
  with chunk *i+1*'s upload and chunk *i-1*'s download, so total modeled
  time approaches ``max(compute, transfer)`` instead of their sum;
* the actual sorting of each chunk goes through any
  :class:`~repro.core.array_sort.GpuArraySort` engine.

The timeline math is a textbook software pipeline: stage latencies
``up_i, comp_i, down_i`` with the resource constraints "one H2D engine,
one compute engine, one D2H engine" (Kepler has dual copy engines, so
up/down do not contend with each other).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from ..gpusim.device import DeviceSpec, K40C
from .array_sort import GpuArraySort
from .config import DEFAULT_CONFIG, SortConfig

__all__ = ["OutOfCoreSorter", "OutOfCoreResult", "ChunkPlan", "plan_chunks", "pipeline_timeline"]

#: Effective host<->device bandwidth in GB/s.  PCIe 3.0 x16 peaks at
#: ~15.8 GB/s; pinned-memory transfers sustain ~12, pageable ~6.  We use
#: the pinned figure, as any serious out-of-core pipeline pins its
#: staging buffers.
PCIE_GBPS = 12.0


@dataclasses.dataclass(frozen=True)
class ChunkPlan:
    """How a host batch is split across device-sized chunks."""

    num_arrays: int
    array_size: int
    arrays_per_chunk: int
    num_chunks: int
    chunk_bytes: int
    device_capacity_bytes: int
    double_buffered: bool

    def chunk_slices(self) -> List[slice]:
        """Row slices of the host batch, one per chunk."""
        out = []
        for start in range(0, self.num_arrays, self.arrays_per_chunk):
            out.append(slice(start, min(start + self.arrays_per_chunk, self.num_arrays)))
        return out


def plan_chunks(
    num_arrays: int,
    array_size: int,
    *,
    device: DeviceSpec = K40C,
    config: SortConfig = DEFAULT_CONFIG,
    double_buffered: bool = True,
) -> ChunkPlan:
    """Compute the largest per-chunk array count that fits the device.

    With double buffering, two chunks must be resident simultaneously, so
    each gets half the usable capacity.  Raises ``ValueError`` if even a
    single array does not fit (the paper's algorithm requires one array
    in shared memory, many on the device).
    """
    from ..analysis.memory_model import arraysort_bytes_per_array

    if num_arrays < 0 or array_size < 1:
        raise ValueError("need num_arrays >= 0 and array_size >= 1")
    per_array = arraysort_bytes_per_array(array_size, config)
    budget = device.usable_global_mem_bytes // (2 if double_buffered else 1)
    arrays_per_chunk = budget // per_array
    if arrays_per_chunk < 1:
        raise ValueError(
            f"one array of {array_size} elements ({per_array} bytes) does not "
            f"fit the per-chunk budget of {budget} bytes"
        )
    arrays_per_chunk = min(arrays_per_chunk, max(num_arrays, 1))
    num_chunks = -(-num_arrays // arrays_per_chunk) if num_arrays else 0
    return ChunkPlan(
        num_arrays=num_arrays,
        array_size=array_size,
        arrays_per_chunk=int(arrays_per_chunk),
        num_chunks=int(num_chunks),
        chunk_bytes=int(arrays_per_chunk) * per_array,
        device_capacity_bytes=device.usable_global_mem_bytes,
        double_buffered=double_buffered,
    )


def pipeline_timeline(
    upload_ms: List[float],
    compute_ms: List[float],
    download_ms: List[float],
    *,
    overlap: bool = True,
) -> float:
    """Total modeled milliseconds for a chunked upload/compute/download run.

    Without overlap, stages serialize: ``sum(up + comp + down)``.  With
    overlap, each engine (H2D, compute, D2H) processes chunks in order;
    chunk ``i`` computes only after its upload, downloads only after its
    compute, and each engine is busy with at most one chunk at a time.
    This is the classic pipeline recurrence, and with balanced stages
    approaches ``max(sum(up), sum(comp), sum(down))``.
    """
    k = len(compute_ms)
    if not (len(upload_ms) == len(download_ms) == k):
        raise ValueError("stage lists must have equal length")
    if k == 0:
        return 0.0
    if not overlap:
        return sum(upload_ms) + sum(compute_ms) + sum(download_ms)
    up_free = comp_free = down_free = 0.0
    finish = 0.0
    for i in range(k):
        up_done = max(up_free, 0.0) + upload_ms[i]
        up_free = up_done
        comp_done = max(comp_free, up_done) + compute_ms[i]
        comp_free = comp_done
        down_done = max(down_free, comp_done) + download_ms[i]
        down_free = down_done
        finish = down_done
    return finish


@dataclasses.dataclass
class OutOfCoreResult:
    """Outcome of an out-of-core run."""

    batch: np.ndarray
    plan: ChunkPlan
    modeled_ms: float
    modeled_ms_no_overlap: float
    per_chunk: Dict[str, List[float]]

    @property
    def overlap_speedup(self) -> float:
        """How much latency hiding bought (paper Section 9's goal)."""
        if self.modeled_ms == 0:
            return 1.0
        return self.modeled_ms_no_overlap / self.modeled_ms

    def build_timeline(self):
        """Construct the full stream/event schedule for this run.

        Returns a :class:`repro.gpusim.streams.SimTimeline` with the
        dual-buffer schedule already run — per-op start/finish instants
        and per-engine utilization are inspectable.  Its makespan equals
        ``modeled_ms`` (the closed-form recurrence), which tests verify.
        """
        from ..gpusim.streams import SimTimeline, build_double_buffered_schedule

        timeline = SimTimeline()
        build_double_buffered_schedule(
            timeline,
            self.per_chunk["upload_ms"],
            self.per_chunk["compute_ms"],
            self.per_chunk["download_ms"],
        )
        return timeline


class OutOfCoreSorter:
    """Sorts host batches larger than device memory, chunk by chunk.

    ``engine`` selects the per-chunk sorter engine; ``overlap`` toggles the
    dual-buffer transfer/compute overlap in the *modeled* timeline (the
    host-side computation is identical either way).
    """

    def __init__(
        self,
        config: SortConfig = DEFAULT_CONFIG,
        *,
        device: DeviceSpec = K40C,
        engine: str = "vectorized",
        overlap: bool = True,
        pcie_gbps: float = PCIE_GBPS,
    ) -> None:
        if pcie_gbps <= 0:
            raise ValueError("pcie_gbps must be positive")
        self.config = config
        self.device = device
        self.engine = engine
        self.overlap = overlap
        self.pcie_gbps = pcie_gbps

    def _transfer_ms(self, nbytes: int) -> float:
        return nbytes / (self.pcie_gbps * 1e9) * 1e3

    def sort(self, batch: np.ndarray, *, inplace: bool = False) -> OutOfCoreResult:
        """Sort an arbitrarily large (host-resident) batch."""
        from ..analysis.perfmodel import model_arraysort_ms

        batch = np.asarray(batch)
        if batch.ndim != 2:
            raise ValueError(f"expected (N, n) batch, got shape {batch.shape}")
        work = batch if inplace else batch.copy()
        N, n = work.shape
        plan = plan_chunks(
            N, n, device=self.device, config=self.config,
            double_buffered=self.overlap,
        )

        sorter = GpuArraySort(self.config, engine=self.engine)
        uploads: List[float] = []
        computes: List[float] = []
        downloads: List[float] = []
        itemsize = work.dtype.itemsize
        for sl in plan.chunk_slices():
            chunk = work[sl]
            sorter.sort(chunk, inplace=True)
            nbytes = chunk.shape[0] * n * itemsize
            uploads.append(self._transfer_ms(nbytes))
            downloads.append(self._transfer_ms(nbytes))
            computes.append(
                model_arraysort_ms(self.device, chunk.shape[0], n, self.config)
            )

        total = pipeline_timeline(uploads, computes, downloads, overlap=self.overlap)
        total_serial = pipeline_timeline(uploads, computes, downloads, overlap=False)
        return OutOfCoreResult(
            batch=work,
            plan=plan,
            modeled_ms=total,
            modeled_ms_no_overlap=total_serial,
            per_chunk={
                "upload_ms": uploads,
                "compute_ms": computes,
                "download_ms": downloads,
            },
        )
