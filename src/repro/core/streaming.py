"""Streaming batch sorter: arrays arriving faster than you can blink.

The paper's conclusion (Section 8): "modern scientific equipment is
capable of generating GBs of data per second" — spectra arrive as an
unbounded *stream*, not a preassembled matrix.  :class:`StreamingSorter`
adapts the batch algorithm to that shape:

* arrays are ``push()``-ed one at a time (or in slabs) as acquired;
* a staging buffer accumulates until a batch of ``batch_arrays`` is full, then
  one three-phase sort runs and the sorted batch is emitted to the
  consumer callback (or an internal queue);
* ``flush()`` drains the partial tail batch at end of acquisition, and
  ``close()`` ends the session explicitly (both idempotent);
* throughput accounting (arrays/s in, batches out, modeled device
  milliseconds per batch via the perf model) exposes whether the sorter
  keeps up with the instrument — the "GPU boost" integration the paper
  pitches for existing software.

Resilience plumbing for long-running acquisition sessions:

* every emitted batch carries a **monotonic batch id** (recorded on
  ``emitted_batch_ids`` in emission order);
* emission is **at-least-once**: if the sorter or the consumer callback
  raises, the staging buffer and the pending batch id are retained, and
  the next ``push``/``flush`` retries the same batch under the same id —
  a consumer that dedups by id sees effectively-once delivery;
* ``checkpoint()``/``restore()`` snapshot the producer-side state
  (staging buffer, fill level, batch-id counters, stats) so a crashed
  session can resume without losing buffered arrays;
* when the injected ``sorter`` is a
  :class:`repro.resilience.ResilientSorter`, rows it quarantines are
  diverted to ``dead_letters`` (a
  :class:`repro.resilience.DeadLetterQueue`) instead of aborting the
  session — they never appear in an emitted batch.

Pure composition: no new algorithm, just the arrival-side plumbing a
production adopter writes first.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional

import numpy as np

from ..gpusim.device import DeviceSpec, K40C
from .array_sort import GpuArraySort
from .config import DEFAULT_CONFIG, SortConfig

__all__ = ["StreamingSorter", "StreamStats", "StreamCheckpoint"]


@dataclasses.dataclass
class StreamStats:
    """Running counters of a streaming session."""

    arrays_in: int = 0
    batches_out: int = 0
    arrays_out: int = 0
    arrays_quarantined: int = 0
    #: Dead letters aged out by the queue's capacity bound (payloads
    #: dropped oldest-first; the quarantine *counters* above still hold).
    dead_letters_dropped: int = 0
    wall_seconds_sorting: float = 0.0
    modeled_device_ms: float = 0.0

    @property
    def arrays_pending(self) -> int:
        return self.arrays_in - self.arrays_out - self.arrays_quarantined

    @property
    def modeled_throughput_arrays_per_s(self) -> float:
        """Arrays/second the modeled device would sustain."""
        if self.modeled_device_ms == 0:
            return 0.0
        return self.arrays_out / (self.modeled_device_ms / 1e3)


@dataclasses.dataclass
class StreamCheckpoint:
    """Producer-side snapshot of a :class:`StreamingSorter` session.

    Holds copies of the staging buffer's filled prefix, the batch-id
    counters, and the stats — everything needed to resume ingestion
    after a crash.  Consumer-side state (``results``, ``dead_letters``)
    is deliberately excluded: re-emission after a restore is the
    at-least-once path, and the consumer dedups by batch id.
    """

    array_size: int
    staging: np.ndarray
    fill: int
    next_batch_id: int
    pending_batch_id: Optional[int]
    closed: bool
    stats: StreamStats


class StreamingSorter:
    """Accumulate arriving arrays into batches; sort and emit each batch.

    Parameters
    ----------
    array_size:
        Element count of every arriving array (fixed per session, like a
        configured acquisition method).
    batch_arrays:
        Arrays per sorted batch (required): the staging buffer holds
        this many arrays.  Size it to a host memory budget with
        :func:`repro.outofcore.plan_budget`.
    on_batch:
        Callback receiving each sorted ``(B, n)`` matrix.  When omitted,
        sorted batches are collected on ``results``.  Ids of emitted
        batches land on ``emitted_batch_ids`` in the same order.
    sorter:
        Sorter to run on each full batch — any object whose ``sort(batch)``
        returns a result with a ``batch`` attribute.  Defaults to
        :class:`GpuArraySort`; pass a
        :class:`repro.resilience.ResilientSorter` to get retry/fallback
        behavior and quarantine-to-dead-letter instead of session aborts.
    planner / workspace:
        Engine planning and scratch-arena pooling for the default sorter
        (see :class:`GpuArraySort`); ignored when an explicit ``sorter``
        is injected (configure that sorter directly instead).  With an arena,
        steady-state emission is allocation-free: ``on_batch`` consumers
        receive a zero-copy view **valid until the next emission** (copy
        to retain), while batches collected on ``results`` are copied
        out of the arena so the list stays stable.  A ``radix`` plan
        (``planner="auto"``) on a batch under 32 MiB never stages through
        the arena: each emission is a fresh array, kept on ``results``
        without a copy.
    dead_letter_capacity:
        Bound on the lazily created dead-letter queue.  ``-1`` (default)
        applies :data:`repro.resilience.quarantine.DEFAULT_DEAD_LETTER_CAPACITY`;
        ``None`` means unbounded (pre-bound behaviour); any positive int
        is an explicit cap.  Beyond the cap the *oldest* letters are
        dropped and counted on ``stats.dead_letters_dropped`` — an
        unattended session under a hostile fault pattern holds memory
        steady instead of growing its quarantine without bound.
    """

    def __init__(
        self,
        array_size: int,
        *,
        batch_arrays: int,
        config: SortConfig = DEFAULT_CONFIG,
        device: DeviceSpec = K40C,
        on_batch: Optional[Callable[[np.ndarray], None]] = None,
        dtype=None,
        sorter=None,
        planner=None,
        workspace=None,
        dead_letter_capacity: Optional[int] = -1,
    ) -> None:
        if array_size < 1:
            raise ValueError("array_size must be >= 1")
        self.array_size = int(array_size)
        self.config = config
        self.device = device
        self.dtype = np.dtype(dtype if dtype is not None else config.dtype)
        if batch_arrays < 1:
            raise ValueError("batch_arrays must be >= 1")
        self.batch_arrays = int(batch_arrays)
        self.on_batch = on_batch
        self.results: List[np.ndarray] = []
        self.emitted_batch_ids: List[int] = []
        if dead_letter_capacity is not None and dead_letter_capacity == 0:
            raise ValueError(
                "dead_letter_capacity must be -1 (default bound), None "
                "(unbounded), or >= 1"
            )
        self.dead_letter_capacity = dead_letter_capacity
        self.stats = StreamStats()
        self.dead_letters = None  # lazily a repro.resilience.DeadLetterQueue
        if sorter is not None:
            self._sorter = sorter
        else:
            self._sorter = GpuArraySort(
                config, planner=planner, workspace=workspace
            )
        self._staging = np.empty((self.batch_arrays, self.array_size), self.dtype)
        self._fill = 0
        self._next_batch_id = 0
        self._pending_batch_id: Optional[int] = None
        self._closed = False

    # -- lifecycle --------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once the session has been flushed/closed."""
        return self._closed

    def close(self) -> int:
        """Drain any buffered arrays and end the session.

        Idempotent: calling it again (or after a successful ``flush()``)
        returns 0.  Returns the number of batches emitted by the drain.
        """
        return self.flush()

    def __enter__(self) -> "StreamingSorter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Don't mask an in-flight exception with a drain attempt.
        if exc_type is None:
            self.close()

    # -- producing side ---------------------------------------------------
    def push(self, array: np.ndarray) -> int:
        """Add one arriving array; returns batches emitted as a result."""
        if self._closed:
            raise RuntimeError("streaming session already flushed/closed")
        return self.push_slab(np.asarray(array).reshape(1, -1))

    def push_slab(self, slab: np.ndarray) -> int:
        """Add many arrays at once (an acquisition buffer flush)."""
        if self._closed:
            raise RuntimeError("streaming session already flushed/closed")
        slab = np.asarray(slab)
        if slab.ndim == 1:
            slab = slab.reshape(1, -1)
        if slab.ndim != 2 or slab.shape[1] != self.array_size:
            raise ValueError(
                f"expected arrays of size {self.array_size}, got {slab.shape}"
            )
        emitted = 0
        offset = 0
        while True:
            if self._fill == self.batch_arrays:
                # Also retries a batch whose previous emission failed
                # (at-least-once: same staging content, same batch id).
                self._emit_staged(self.batch_arrays)
                emitted += 1
            if offset >= slab.shape[0]:
                break
            take = min(self.batch_arrays - self._fill, slab.shape[0] - offset)
            self._staging[self._fill : self._fill + take] = slab[
                offset : offset + take
            ]
            self._fill += take
            offset += take
            self.stats.arrays_in += take
        return emitted

    def flush(self) -> int:
        """Sort and emit the buffered tail batch; ends the session.

        Idempotent: once a flush succeeds (or the session is closed),
        further calls return 0.  If the emission fails, the session
        stays open and buffered, so a later ``flush()`` retries it.
        """
        if self._closed:
            return 0
        emitted = 0
        if self._fill:
            self._emit_staged(self._fill)
            emitted = 1
        self._closed = True
        return emitted

    # -- checkpoint / restore ---------------------------------------------
    def checkpoint(self) -> StreamCheckpoint:
        """Snapshot producer-side state for crash recovery."""
        return StreamCheckpoint(
            array_size=self.array_size,
            staging=self._staging[: self._fill].copy(),
            fill=self._fill,
            next_batch_id=self._next_batch_id,
            pending_batch_id=self._pending_batch_id,
            closed=self._closed,
            stats=dataclasses.replace(self.stats),
        )

    def restore(self, cp: StreamCheckpoint) -> None:
        """Restore producer-side state from :meth:`checkpoint`.

        The sorter must have the same ``array_size`` and at least the
        checkpoint's fill level of staging capacity.  Batches emitted
        between the checkpoint and the restore will be emitted again
        with the same batch ids — the at-least-once contract.
        """
        if cp.array_size != self.array_size:
            raise ValueError(
                f"checkpoint is for array_size {cp.array_size}, "
                f"this session uses {self.array_size}"
            )
        if cp.fill > self.batch_arrays:
            raise ValueError(
                f"checkpoint holds {cp.fill} staged arrays, this session "
                f"stages at most {self.batch_arrays}"
            )
        self._staging[: cp.fill] = cp.staging
        self._fill = cp.fill
        self._next_batch_id = cp.next_batch_id
        self._pending_batch_id = cp.pending_batch_id
        self._closed = cp.closed
        self.stats = dataclasses.replace(cp.stats)

    # -- internals -----------------------------------------------------------
    def _emit_staged(self, count: int) -> None:
        from ..analysis.perfmodel import model_arraysort_ms

        if self._pending_batch_id is None:
            self._pending_batch_id = self._next_batch_id
            self._next_batch_id += 1
        batch_id = self._pending_batch_id
        batch = self._staging[:count]

        t0 = time.perf_counter()
        result = self._sorter.sort(batch)  # copies: staging is reused
        wall = time.perf_counter() - t0

        out = result.batch  # statan: scratch-view
        # Arena-backed results are scratch: the storage is reused by the
        # sorter's next batch.  A zero-copy view may still go to the
        # on_batch consumer (valid until the next emission — the classic
        # streaming contract), but anything retained on `results` must
        # be copied out of the arena.
        is_scratch = bool(getattr(result, "scratch", False))
        quarantined = np.asarray(
            getattr(result, "quarantined", ()), dtype=np.int64
        )
        if quarantined.size:
            keep = np.ones(count, dtype=bool)
            keep[quarantined] = False
            out = out[keep]  # fancy indexing: already a fresh copy
            is_scratch = False

        # Deliver first: if the consumer raises, no counters move and the
        # staging buffer stays pending, so the retry re-emits this id.
        if self.on_batch is not None:
            self.on_batch(out)
        else:
            self.results.append(out.copy() if is_scratch else out)

        if quarantined.size:
            reasons = getattr(result, "quarantine_reasons", None) or {}
            if self.dead_letters is None:
                from ..resilience.quarantine import (
                    DEFAULT_DEAD_LETTER_CAPACITY,
                    DeadLetterQueue,
                )

                capacity = self.dead_letter_capacity
                if capacity == -1:
                    capacity = DEFAULT_DEAD_LETTER_CAPACITY
                self.dead_letters = DeadLetterQueue(capacity)
            for row in quarantined:
                self.dead_letters.add(
                    batch_id=batch_id,
                    row_index=int(row),
                    payload=self._staging[int(row)].copy(),
                    reason=reasons.get(int(row), "validation-failed"),
                )
            self.stats.arrays_quarantined += int(quarantined.size)
            self.stats.dead_letters_dropped = self.dead_letters.dropped

        self.stats.wall_seconds_sorting += wall
        self.stats.modeled_device_ms += model_arraysort_ms(
            self.device, count, self.array_size, self.config
        )
        self.stats.batches_out += 1
        self.stats.arrays_out += count - int(quarantined.size)
        self.emitted_batch_ids.append(batch_id)
        self._pending_batch_id = None
        self._fill = 0
