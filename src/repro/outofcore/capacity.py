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
* :meth:`CapacitySorter.run` — spill sink: each chunk is read from the
  durable source into one reusable buffer, sorted there in place, and
  committed to a :class:`~repro.outofcore.spill.SpillStore` (one spill
  file, one append-only journal), so a ``SIGKILL`` mid-run loses at
  most the chunk in flight.  ``resume=True`` replays the journal,
  skips every committed chunk, and continues from the journal's ingest
  cursor — no committed chunk is ever re-emitted.

Degradation ladder — a multi-hour run must not die to ``MemoryError``:

1. **shrink** — on allocation failure the chunk row count halves and
   the failed chunk's rows are re-cut from the committed frontier (on
   the spill sink, re-read from the durable input);
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
    #: Chunks adopted from a previous run's journal instead of re-sorted.
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

        def load(cursor: int, take: int) -> np.ndarray:
            window = out[cursor : cursor + take]
            if not inplace:
                np.copyto(window, batch[cursor : cursor + take])
            return window

        self._sort_chunks(plan.chunk_rows, 0, 0, total, load, descending)
        stats.wall_seconds = time.perf_counter() - t0
        return CapacityResult(plan=plan, stats=stats, batch=out)

    def _sort_chunks(
        self,
        chunk_rows: int,
        index: int,
        cursor: int,
        total: int,
        load: Callable[[int, int], np.ndarray],
        descending: bool = False,
        commit: Optional[Callable[[int, int, np.ndarray], None]] = None,
    ) -> None:
        """The chunk loop both sinks share.

        ``load(cursor, take)`` returns the writable window holding rows
        ``[cursor, cursor + take)``; it is sorted in place and handed to
        ``commit(index, cursor, window)``.  A ``MemoryError`` halves the
        chunk and re-loads from the same cursor — the committed
        frontier; at the one-row floor the serial fallback takes over.
        """
        stats = self.stats
        sorter: Optional[object] = self._make_sorter(chunk_rows)
        while cursor < total:
            take = min(chunk_rows, total - cursor)
            window = load(cursor, take)
            if sorter is None:
                self._serial_block_sort(window, descending)
                stats.serial_fallback_chunks += 1
            else:
                try:
                    self._sort_chunk_inplace(sorter, window, descending)
                except MemoryError:
                    chunk_rows, sorter = self._shrink(chunk_rows)
                    continue  # re-cut this region at the smaller size
            if commit is not None:
                commit(index, cursor, window)
            stats.chunks_committed += 1
            stats.rows_sorted += take
            cursor += take
            self._report_progress(index, take, cursor, total)
            index += 1

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
        the true out-of-core input path).  Each chunk is read into one
        reusable buffer, sorted there in place, and committed to a
        :class:`~repro.outofcore.spill.SpillStore`.  With
        ``resume=True`` a directory holding a previous run's journal is
        adopted: committed chunks are skipped (counted as
        ``chunks_resumed``), the journal's cursor is where ingestion
        resumes, and the run continues to completion.  Ascending order
        only (the spill format records no order flag).
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

        def commit(index: int, cursor: int, window: np.ndarray) -> None:
            record = store.commit_chunk(index, cursor, window)
            stats.spill_bytes_written += record.nbytes

        try:
            committed = store.committed
            stats.chunks_resumed = len(committed)
            # A finished run resumed again has nothing left to do.
            if not (store.complete and store.rows_committed >= total):
                read_buf = np.empty((plan.chunk_rows, row_len), dtype=dtype)
                self._sort_chunks(
                    plan.chunk_rows,
                    committed[-1].index + 1 if committed else 0,
                    store.cursor,
                    total,
                    lambda cursor, take: _read_rows(
                        source, cursor, cursor + take, read_buf
                    ),
                    commit=commit,
                )
                store.mark_complete()
        finally:
            store.close()
        stats.chunks_recommitted = store.recommits
        stats.wall_seconds = time.perf_counter() - t0
        return CapacityResult(plan=plan, stats=stats, store=store)


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
