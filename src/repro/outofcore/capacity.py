"""Capacity driver: memory-budgeted chunked sorting with resumable spill.

:class:`CapacitySorter` is the out-of-core tier's front end.  It takes a
declared memory budget, derives a chunk schedule from the working-set
model (:mod:`repro.outofcore.budget`), and streams chunks through the
existing hot path — a per-chunk :class:`~repro.core.GpuArraySort` with
its :class:`~repro.core.workspace.ScratchArena` and (by default) the
adaptive :class:`~repro.planner.ExecutionPlanner` — so the capacity tier
inherits every engine the planner knows instead of re-implementing one.

Two sinks:

* :meth:`CapacitySorter.sort` — array sink: sorts an addressable batch
  (often an ``np.memmap``) chunk-by-chunk with bounded working memory;
  no disk state, not resumable.
* :meth:`CapacitySorter.run` — spill sink: ingestion goes through a
  :class:`~repro.core.streaming.StreamingSorter` whose emitted batches
  are committed to a :class:`~repro.outofcore.spill.SpillStore`; after
  every committed chunk the streamer's
  :meth:`~repro.core.streaming.StreamingSorter.checkpoint` is persisted
  next to the manifest, so a ``SIGKILL`` mid-run loses at most the
  chunk in flight.  ``resume=True`` restores the checkpoint (or
  reconstructs one from the manifest alone), skips every committed
  chunk, and continues — no committed chunk is ever re-emitted.

Degradation ladder — a multi-hour run must not die to ``MemoryError``:

1. **shrink** — on allocation failure the chunk row count halves (and
   the streaming pipeline is rebuilt at the smaller size; the rows of
   the failed chunk are re-read from the durable input);
2. **serial fallback** — at the one-row floor the driver abandons the
   engine entirely and sorts small row blocks with in-place
   ``ndarray.sort``, the minimum-footprint path that still makes
   forward progress.

Every decision is counted on :class:`CapacityStats` (``chunks_committed``,
``chunks_resumed``, ``spill_bytes_written``, ``shrink_events``,
``serial_fallback_chunks``), which the service metrics surface exports
(see :func:`repro.service.metrics.collect_metrics`).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..core.streaming import StreamCheckpoint, StreamingSorter, StreamStats
from .budget import BudgetPlan, parse_memory_size, plan_budget
from .spill import BatchFile, SpillStore

__all__ = ["CapacityResult", "CapacitySorter", "CapacityStats"]

#: Chunk-row floor below which shrinking gives up and the serial
#: fallback takes over.
MIN_CHUNK_ROWS = 1

#: Row-block size of the serial fallback (small enough that its working
#: set is negligible, large enough to amortize per-call overhead).
_FALLBACK_BLOCK_ROWS = 256


@dataclasses.dataclass
class CapacityStats:
    """Counters of one capacity run (exported via service metrics)."""

    chunks_planned: int = 0
    chunks_committed: int = 0
    #: Chunks adopted from a previous run's manifest instead of re-sorted.
    chunks_resumed: int = 0
    #: Chunks re-committed under an existing index (at-least-once retry).
    chunks_recommitted: int = 0
    rows_sorted: int = 0
    spill_bytes_written: int = 0
    #: Times the chunk size was halved after a MemoryError.
    shrink_events: int = 0
    #: Chunks sorted by the row-serial minimum-footprint fallback.
    serial_fallback_chunks: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Union[int, float]]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class CapacityResult:
    """Outcome of a capacity sort.

    ``batch`` is set on the array-sink path (:meth:`CapacitySorter.sort`);
    ``store`` on the spill path (:meth:`CapacitySorter.run`).  Either
    way, :meth:`iter_chunks` walks the sorted output in row order with
    bounded memory, and :meth:`gather` materializes it (small runs and
    tests only).
    """

    plan: BudgetPlan
    stats: CapacityStats
    batch: Optional[np.ndarray] = None
    store: Optional[SpillStore] = None

    @property
    def rows(self) -> int:
        if self.batch is not None:
            return int(self.batch.shape[0])
        return self.store.rows_committed if self.store is not None else 0

    def iter_chunks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(start_row, rows)`` blocks of sorted output in order."""
        if self.store is not None:
            yield from self.store.iter_chunks()
        elif self.batch is not None:
            step = max(1, self.plan.chunk_rows)
            for start in range(0, self.batch.shape[0], step):
                yield start, self.batch[start : start + step]

    def gather(self) -> np.ndarray:
        """Materialize the sorted batch in RAM (small outputs only)."""
        if self.batch is not None:
            return np.asarray(self.batch)
        out = np.empty((self.rows, self.plan.row_len), dtype=self.plan.dtype)
        for start, chunk in self.iter_chunks():
            out[start : start + chunk.shape[0]] = chunk
        return out


@dataclasses.dataclass
class _RunState:
    """Mutable bookkeeping shared between ``run()`` and its commit callback."""

    total_rows: int = 0
    next_index: int = 0
    rows_done: int = 0
    committed_this_run: int = 0
    rows_this_run: int = 0
    bytes_written: int = 0


class CapacitySorter:
    """Sort batches larger than the declared memory budget.

    Parameters
    ----------
    memory_budget:
        Working-memory ceiling — bytes, or a size string (``"512M"``,
        ``"8G"``).  Bounds the sorter's *own* footprint (staging, arena,
        engine scratch); caller-owned input/output arrays or files are
        outside it.
    config:
        Per-chunk :class:`~repro.core.SortConfig` (bucket size, sampling
        rate, NaN policy) handed to the inner sorter.
    planner:
        Planner spec for the inner sorter (``"auto"`` default — the
        ``radix`` row sort for every dtype it supports).  ``None``
        runs the plain fused path with a scratch arena.
    verify:
        Per-chunk verify-after-sort on the inner sorter (sortedness +
        permutation against a chunk-sized reference — bounded memory
        even for huge runs).
    engine_model:
        Which engine's working-set variant the budget planner assumes
        (``"auto"`` budgets for the worst engine any planner may pick).
    max_chunk_rows:
        Optional cap on chunk rows regardless of budget (0 = uncapped) —
        forces multi-chunk schedules in tests and benchmarks.
    sorter_factory:
        Test seam: ``sorter_factory(chunk_rows)`` builds the per-chunk
        sorter (anything whose ``sort(batch)`` returns a result with a
        ``batch`` attribute); defaults to the planner/arena-backed
        :class:`~repro.core.GpuArraySort`.
    progress:
        Optional callback invoked after every committed chunk with a
        dict (``index``, ``rows``, ``rows_done``, ``total_rows``) — the
        CLI's progress line, and the kill-resume bench's timing hook.
    """

    def __init__(
        self,
        memory_budget,
        *,
        config: SortConfig = DEFAULT_CONFIG,
        planner: Optional[object] = "auto",
        verify: bool = False,
        engine_model: str = "auto",
        max_chunk_rows: int = 0,
        sorter_factory: Optional[Callable[[int], object]] = None,
        progress: Optional[Callable[[Dict[str, int]], None]] = None,
    ) -> None:
        self.budget_bytes = parse_memory_size(memory_budget)
        self.config = config
        self.planner = planner
        self.verify = verify
        self.engine_model = engine_model
        self.max_chunk_rows = int(max_chunk_rows)
        self._sorter_factory = sorter_factory
        self.progress = progress
        self.stats = CapacityStats()

    # -- planning ---------------------------------------------------------
    def plan(self, num_rows: int, row_len: int, dtype) -> BudgetPlan:
        """The static chunk schedule for a ``(num_rows, row_len)`` batch."""
        return plan_budget(
            num_rows, row_len, dtype, self.budget_bytes,
            config=self.config, engine=self.engine_model,
            max_chunk_rows=self.max_chunk_rows,
        )

    def _make_sorter(self, chunk_rows: int) -> object:
        if self._sorter_factory is not None:
            return self._sorter_factory(chunk_rows)
        from ..core.array_sort import GpuArraySort  # local import: no cycle

        return GpuArraySort(
            self.config,
            planner=self.planner,
            verify=self.verify,
            workspace=True if self.planner is None else None,
        )

    # -- array sink -------------------------------------------------------
    def sort(
        self,
        batch: np.ndarray,
        *,
        inplace: bool = False,
        descending: bool = False,
    ) -> CapacityResult:
        """Sort an addressable batch chunk-by-chunk under the budget.

        The input may be an ``np.memmap`` — each chunk is copied into
        the output (or sorted in place), so working memory stays bounded
        by one chunk's working set.  With ``inplace=False`` the output
        array is a fresh allocation the *caller* owns (outside the
        budget); pass ``inplace=True`` on a writable memmap, or use
        :meth:`run`, when even one full copy must not exist in RAM.
        """
        from ..core.array_sort import validate_batch

        batch = validate_batch(batch)
        stats = self.stats = CapacityStats()
        t0 = time.perf_counter()
        plan = self.plan(batch.shape[0], batch.shape[1], batch.dtype)
        stats.chunks_planned = plan.num_chunks
        out = batch if inplace else np.empty_like(batch)
        total = batch.shape[0]
        if total == 0:
            stats.wall_seconds = time.perf_counter() - t0
            return CapacityResult(plan=plan, stats=stats, batch=out)

        chunk_rows = plan.chunk_rows
        sorter: Optional[object] = self._make_sorter(chunk_rows)
        cursor = 0
        index = 0
        while cursor < total:
            take = min(chunk_rows, total - cursor)
            window = out[cursor : cursor + take]
            if not inplace:
                np.copyto(window, batch[cursor : cursor + take])
            if sorter is None:
                self._serial_block_sort(window, descending)
                stats.serial_fallback_chunks += 1
            else:
                try:
                    self._sort_chunk_inplace(sorter, window, descending)
                except MemoryError:
                    chunk_rows, sorter = self._shrink(chunk_rows)
                    continue  # re-cut this region at the smaller size
            stats.chunks_committed += 1
            stats.rows_sorted += take
            cursor += take
            self._report_progress(index, take, cursor, total)
            index += 1
        stats.wall_seconds = time.perf_counter() - t0
        return CapacityResult(plan=plan, stats=stats, batch=out)

    def _sort_chunk_inplace(self, sorter: object, window: np.ndarray,
                            descending: bool) -> None:
        try:
            result = sorter.sort(window, inplace=True, descending=descending)
        except TypeError:
            # Injected sorters (test seam) may only accept the batch.
            result = sorter.sort(window)
            produced = result.batch  # statan: scratch-view
            np.copyto(window, produced[:, ::-1] if descending else produced)
            return
        produced = result.batch  # statan: scratch-view
        if produced is not window:
            np.copyto(window, produced)

    def _shrink(self, chunk_rows: int) -> Tuple[int, Optional[object]]:
        """Halve the chunk; at the floor, signal serial fallback (``None``)."""
        if chunk_rows <= MIN_CHUNK_ROWS:
            return chunk_rows, None
        smaller = max(MIN_CHUNK_ROWS, chunk_rows // 2)
        self.stats.shrink_events += 1
        return smaller, self._make_sorter(smaller)

    @staticmethod
    def _serial_block_sort(window: np.ndarray, descending: bool) -> None:
        """Minimum-footprint fallback: in-place row sort, tiny blocks."""
        for start in range(0, window.shape[0], _FALLBACK_BLOCK_ROWS):
            block = window[start : start + _FALLBACK_BLOCK_ROWS]
            block.sort(axis=1)
            if descending:
                block[:] = block[:, ::-1]

    def _report_progress(self, index: int, rows: int, rows_done: int,
                         total_rows: int) -> None:
        if self.progress is not None:
            self.progress({
                "index": index,
                "rows": rows,
                "rows_done": rows_done,
                "total_rows": total_rows,
            })

    # -- spill sink (resumable) ------------------------------------------
    def run(
        self,
        source: Union[np.ndarray, BatchFile],
        *,
        spill_dir,
        resume: bool = False,
        reclaim: bool = False,
    ) -> CapacityResult:
        """Sort ``source`` into a spill directory; resumable after a kill.

        ``source`` is an addressable batch or a
        :class:`~repro.outofcore.spill.BatchFile` (windowed file reads —
        the true out-of-core input path).  Sorted chunks are committed
        to a :class:`~repro.outofcore.spill.SpillStore`; the streaming
        checkpoint is persisted after every commit.  With
        ``resume=True`` a directory holding a previous run's manifest is
        adopted: committed chunks are skipped (counted as
        ``chunks_resumed``), the checkpoint restores the ingest cursor,
        and the run continues to completion.  Ascending order only (the
        spill format records no order flag).
        """
        total, row_len, dtype = _source_dims(source)
        stats = self.stats = CapacityStats()
        t0 = time.perf_counter()
        plan = self.plan(total, row_len, dtype)
        stats.chunks_planned = plan.num_chunks
        store = SpillStore(
            spill_dir, array_size=row_len, dtype=dtype,
            resume=resume, reclaim=reclaim,
            meta={
                "total_rows": total,
                "budget_bytes": self.budget_bytes,
                "chunk_rows": plan.chunk_rows,
            },
        )
        stats.chunks_resumed = len(store.committed)
        if store.complete and store.rows_committed >= total:
            # A finished run resumed again: nothing left to do.
            stats.wall_seconds = time.perf_counter() - t0
            return CapacityResult(plan=plan, stats=stats, store=store)

        chunk_rows = plan.chunk_rows
        state = _RunState(total_rows=total)
        streamer = self._build_streamer(row_len, dtype, chunk_rows, store, state)
        cursor = 0
        if store.committed or resume:
            cursor = self._restore_streamer(streamer, store, state)

        read_buf = np.empty((chunk_rows, row_len), dtype=dtype)
        fallback = False
        while cursor < total:
            take = min(chunk_rows, total - cursor)
            block = _read_rows(source, cursor, cursor + take, read_buf)
            if fallback:
                self._fallback_commit(store, state, block)
                cursor += take
                continue
            try:
                streamer.push_slab(block)
            except MemoryError:
                chunk_rows, fallback = self._degrade_streaming(chunk_rows)
                # Rows staged in the abandoned streamer are re-read from
                # the durable source: rewind to the committed frontier.
                if not fallback:
                    streamer = self._build_streamer(
                        row_len, dtype, chunk_rows, store, state
                    )
                    self._restore_streamer(streamer, store, state,
                                           use_checkpoint=False)
                    read_buf = np.empty((chunk_rows, row_len), dtype=dtype)
                cursor = state.rows_done
                continue
            cursor += take
            self._persist_checkpoint(store, streamer)
        if not fallback:
            try:
                streamer.flush()
            except MemoryError:
                # Even the tail does not fit: serial-sort the rows still
                # staged, re-read from the committed frontier.
                tail = _read_rows(
                    source, state.rows_done, total,
                    np.empty((total - state.rows_done, row_len), dtype=dtype),
                )
                self._fallback_commit(store, state, tail)
        store.mark_complete()
        store.clear_checkpoint()
        stats.chunks_committed = state.committed_this_run
        stats.chunks_recommitted = store.recommits
        stats.rows_sorted = state.rows_this_run
        stats.spill_bytes_written = state.bytes_written
        stats.wall_seconds = time.perf_counter() - t0
        return CapacityResult(plan=plan, stats=stats, store=store)

    # -- spill-sink internals --------------------------------------------
    def _build_streamer(
        self,
        row_len: int,
        dtype,
        chunk_rows: int,
        store: SpillStore,
        state: _RunState,
    ) -> StreamingSorter:
        sorter = self._make_sorter(chunk_rows)

        def on_batch(sorted_rows: np.ndarray) -> None:
            # ``sorted_rows`` may be an arena view valid only until the
            # next emission — commit_chunk writes it to disk immediately.
            record = store.commit_chunk(
                state.next_index, state.rows_done, sorted_rows
            )
            state.next_index += 1
            state.rows_done += record.rows
            state.committed_this_run += 1
            state.rows_this_run += record.rows
            state.bytes_written += record.nbytes
            self._report_progress(
                record.index, record.rows, state.rows_done, state.total_rows
            )

        return StreamingSorter(
            row_len,
            batch_arrays=chunk_rows,
            dtype=dtype,
            on_batch=on_batch,
            sorter=sorter,
        )

    def _restore_streamer(
        self,
        streamer: StreamingSorter,
        store: SpillStore,
        state: _RunState,
        *,
        use_checkpoint: bool = True,
    ) -> int:
        """Rebuild producer state from checkpoint/manifest; return the
        ingest cursor (rows of input already consumed)."""
        rows_committed = store.rows_committed
        batches_committed = len(store.committed)
        state.next_index = max(
            (r.index + 1 for r in store.committed), default=0
        )
        state.rows_done = rows_committed
        loaded = store.load_checkpoint() if use_checkpoint else None
        if loaded is not None:
            meta, staging = loaded
            fill = int(meta.get("fill", -1))
            usable = (
                int(meta.get("array_size", -1)) == streamer.array_size
                and fill == staging.shape[0]
                and 0 <= fill <= streamer.batch_arrays
                # A checkpoint older than the last commit (killed between
                # commit and checkpoint save) would replay staged rows
                # already on disk — fall back to the manifest alone.
                and int(meta.get("rows_done", -1)) == rows_committed
            )
            if usable:
                streamer.restore(StreamCheckpoint(
                    array_size=streamer.array_size,
                    staging=staging,
                    fill=fill,
                    next_batch_id=int(
                        meta.get("next_batch_id", batches_committed)
                    ),
                    pending_batch_id=None,
                    closed=False,
                    stats=StreamStats(
                        arrays_in=rows_committed + fill,
                        batches_out=batches_committed,
                        arrays_out=rows_committed,
                    ),
                ))
                return rows_committed + fill
        # No usable checkpoint: the manifest alone is enough (the input
        # source is durable; only the staged tail is re-read).
        streamer.restore(StreamCheckpoint(
            array_size=streamer.array_size,
            staging=np.empty((0, streamer.array_size), dtype=streamer.dtype),
            fill=0,
            next_batch_id=batches_committed,
            pending_batch_id=None,
            closed=False,
            stats=StreamStats(
                arrays_in=rows_committed,
                batches_out=batches_committed,
                arrays_out=rows_committed,
            ),
        ))
        return rows_committed

    def _persist_checkpoint(self, store: SpillStore,
                            streamer: StreamingSorter) -> None:
        checkpoint = streamer.checkpoint()
        store.save_checkpoint(
            {
                "array_size": checkpoint.array_size,
                "fill": checkpoint.fill,
                "next_batch_id": checkpoint.next_batch_id,
                "rows_done": checkpoint.stats.arrays_out,
            },
            checkpoint.staging,
        )

    def _degrade_streaming(self, chunk_rows: int) -> Tuple[int, bool]:
        """Shrink the chunk; at the floor, engage the serial fallback."""
        if chunk_rows <= MIN_CHUNK_ROWS:
            return chunk_rows, True
        self.stats.shrink_events += 1
        return max(MIN_CHUNK_ROWS, chunk_rows // 2), False

    def _fallback_commit(self, store: SpillStore, state: _RunState,
                         block: np.ndarray) -> None:
        """Serial fallback: in-place sort + direct commit, tiny footprint."""
        work = np.array(block, copy=True)
        self._serial_block_sort(work, False)
        record = store.commit_chunk(state.next_index, state.rows_done, work)
        state.next_index += 1
        state.rows_done += record.rows
        state.committed_this_run += 1
        state.rows_this_run += record.rows
        state.bytes_written += record.nbytes
        self.stats.serial_fallback_chunks += 1
        self._report_progress(
            record.index, record.rows, state.rows_done, state.total_rows
        )


def _source_dims(
    source: Union[np.ndarray, BatchFile],
) -> Tuple[int, int, np.dtype]:
    if isinstance(source, BatchFile):
        return source.rows, source.row_len, source.dtype
    array = np.asarray(source)
    if array.ndim != 2:
        raise ValueError(f"expected (N, n) source, got shape {array.shape}")
    return array.shape[0], array.shape[1], array.dtype


def _read_rows(source: Union[np.ndarray, BatchFile], start: int, stop: int,
               out: np.ndarray) -> np.ndarray:
    if isinstance(source, BatchFile):
        return source.read_into(start, stop, out)
    take = stop - start
    np.copyto(out[:take], source[start:stop])
    return out[:take]
