"""GPU-ArraySort orchestrator: the paper's three-phase pipeline.

:class:`GpuArraySort` is the public entry point.  It runs the same
algorithm through one of three engines:

* ``"vectorized"`` — NumPy batch implementation of the exact phase
  semantics; fast enough for wall-clock benchmarking at realistic sizes.
* ``"sim"`` — executes the per-thread kernels of
  :mod:`repro.core.kernels` on the :mod:`repro.gpusim` lock-step SIMT
  interpreter, producing hardware-behaviour reports (coalescing,
  divergence, modeled milliseconds).  Micro scale only.
* ``"model"`` — does no data movement at all; evaluates the calibrated
  analytic cost model (:mod:`repro.analysis.perfmodel`) to predict the
  modeled time at *paper* scale (N up to millions).

All engines share phase 1/2/3 semantics, so the test suite cross-checks
``sim`` against ``vectorized`` element for element.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional

import numpy as np

from .bucketing import BucketResult, bucketize
from .config import DEFAULT_CONFIG, SortConfig
from .insertion import sort_buckets
from .radix import radix_sort_rows
from .splitters import SplitterResult, select_splitters
from .validation import assert_batch_sorted

__all__ = ["GpuArraySort", "SortResult", "sort_arrays", "validate_batch"]


def validate_batch(batch) -> np.ndarray:
    """Boundary validation shared by :meth:`GpuArraySort.sort`/``argsort``.

    Rejects the malformed inputs that used to fail deep inside phase 1
    with obscure indexing errors: non-2-D shapes, zero-column batches,
    and non-numeric dtypes.  Returns the input as an ``ndarray``.
    """
    batch = np.asarray(batch)
    if batch.ndim != 2:
        raise ValueError(f"expected (N, n) batch, got shape {batch.shape}")
    if batch.dtype.kind not in "biuf":
        raise ValueError(
            "batch dtype must be numeric (bool, integer, or float), got "
            f"{batch.dtype!r}"
        )
    if batch.shape[0] > 0 and batch.shape[1] == 0:
        raise ValueError(
            "arrays must have at least one element, got a 0-column batch"
        )
    return batch


@dataclasses.dataclass
class SortResult:
    """Everything a sort run produced.

    ``batch`` is the sorted ``(N, n)`` matrix (same storage as the input
    when ``inplace=True``).  ``phase_seconds`` holds wall-clock per phase
    for the vectorized engine; ``reports`` holds gpusim launch reports for
    the sim engine; ``modeled_ms`` holds the cost-model prediction for
    sim/model engines.

    ``scratch=True`` marks a result whose ``batch`` (and metadata
    arrays) live in the sorter's :class:`~repro.core.workspace.ScratchArena`
    — valid until the sorter's **next** ``sort`` call.  Callers that
    retain such a result across sorts must copy what they keep.
    """

    batch: np.ndarray
    splitters: Optional[SplitterResult] = None
    buckets: Optional[BucketResult] = None
    phase_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)
    reports: Optional[object] = None  # PipelineReport for engine="sim"
    modeled_ms: Optional[float] = None
    scratch: bool = False

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())


class GpuArraySort:
    """Sorter for large batches of equally-sized arrays.

    Example::

        sorter = GpuArraySort()
        result = sorter.sort(batch)          # batch: (N, n) ndarray
        sorted_batch = result.batch

    Parameters
    ----------
    config:
        Bucket-size / sampling-rate tuning (paper defaults).
    engine:
        ``"vectorized"`` (default), ``"sim"``, or ``"model"``.
    device:
        A :class:`repro.gpusim.GpuDevice` (sim engine) or
        :class:`repro.gpusim.DeviceSpec` (model engine).  Defaults to the
        paper's K40c.
    verify:
        When true, assert sortedness + permutation after every run.
    planner:
        Per-batch engine choice (vectorized engine only).  ``"auto"``
        uses the process-wide :class:`~repro.planner.ExecutionPlanner`:
        the flat ``"radix"`` row sort for every dtype; ``"fused"`` /
        ``"radix"`` force one engine via
        :class:`~repro.planner.StaticPlanner`; a planner instance passes
        through.  Implies a scratch arena (see ``workspace``).
    workspace:
        Scratch arena for zero-allocation steady-state sorting:
        ``None`` + no planner keeps legacy per-call allocations; a
        :class:`~repro.core.workspace.ScratchArena` instance (or
        ``True`` for a private one) pools the work copy, phase-1
        staging, and fused metadata.  Arena-backed results are marked
        ``scratch=True`` — valid until this sorter's next ``sort``.
    memory_budget:
        Working-memory ceiling (bytes, or a size string like ``"512M"``)
        that routes ``sort()`` through the out-of-core capacity tier:
        batches whose working set exceeds the budget are sorted
        chunk-by-chunk via :class:`~repro.outofcore.CapacitySorter`
        (the declared planner — default ``"auto"`` — picks the engine
        per chunk).  Vectorized engine only, and mutually exclusive
        with ``sampler``.  The result carries the
        capacity run on a dynamic ``capacity`` attribute.
    """

    ENGINES = ("vectorized", "sim", "model")

    def __init__(
        self,
        config: SortConfig = DEFAULT_CONFIG,
        *,
        engine: str = "vectorized",
        device=None,
        verify: bool = False,
        sampler=None,
        planner=None,
        workspace=None,
        memory_budget=None,
    ) -> None:
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {self.ENGINES}")
        self.config = config
        self.engine = engine
        self.device = device
        self.verify = verify
        #: Optional repro.core.adaptive.AdaptiveSampler overriding phase 1's
        #: regular sampling (vectorized engine only; the paper's Section 9
        #: multi-sampling plan).
        self.sampler = sampler
        self._planner = None
        if planner is not None:
            if engine != "vectorized":
                raise ValueError(
                    "planner requires engine='vectorized' "
                    f"(got engine={engine!r})"
                )
            from ..planner import resolve_planner  # local: optional subsystem

            self._planner = resolve_planner(planner)
        self.workspace = None
        if workspace is not None and workspace is not False:
            from .workspace import ScratchArena

            self.workspace = (
                ScratchArena() if workspace is True else workspace
            )
        elif self._planner is not None:
            # A planner implies hot-path usage: give the sorter its own
            # arena so steady-state traffic sorts allocation-free.
            from .workspace import ScratchArena

            self.workspace = ScratchArena()
        self.memory_budget: Optional[int] = None
        if memory_budget is not None:
            if engine != "vectorized":
                raise ValueError(
                    "memory_budget requires engine='vectorized' "
                    f"(got engine={engine!r})"
                )
            if sampler is not None:
                raise ValueError(
                    "memory_budget does not support a custom sampler: "
                    "chunks run the standard phase-1 sampling"
                )
            from ..outofcore.budget import parse_memory_size  # local: optional subsystem

            self.memory_budget = parse_memory_size(memory_budget)

    @property
    def planner(self):
        """The resolved planner instance (``None`` when not planning)."""
        return self._planner

    # -- public API ----------------------------------------------------------
    def sort(
        self,
        batch: np.ndarray,
        *,
        inplace: bool = False,
        descending: bool = False,
    ) -> SortResult:
        """Sort every row of ``batch``; returns a :class:`SortResult`.

        ``inplace=True`` reuses the caller's storage (the algorithm is
        in-place on the device; on the host this controls whether we copy
        first).  ``descending=True`` reverses the order (internally: sort
        ascending, reverse each row — one extra coalesced pass, exactly
        how a device implementation would do it).  The input must be 2-D,
        numeric, with at least one column (see :func:`validate_batch`).

        NaN handling follows ``config.nan_policy``: ``"raise"`` rejects
        a float batch holding any NaN before writing to it (so an
        ``inplace=True`` caller's batch is untouched); ``"sort_to_end"``
        gives ``np.sort`` order, NaNs after every finite value and +inf.
        A ``"radix"`` plan sorts the batch whole — its row sort realizes
        that order itself, so no per-row NaN probe runs.  Every
        other engine splits NaN-carrying rows off to ``np.sort`` and
        runs the NaN-free rows through the pipeline; ``splitters``/
        ``buckets`` on the result then describe only those rows.  A
        planned call reports its whole wall time, split included, to
        the planner.
        """
        batch = validate_batch(batch)
        if batch.shape[0] == 0:
            return SortResult(batch=batch.copy() if not inplace else batch)

        if self.memory_budget is not None:
            return self._sort_capacity(
                batch, inplace=inplace, descending=descending
            )

        scratch = False
        if inplace:
            work = batch
        elif self.workspace is not None:
            work = self.workspace.get("work", batch.shape, batch.dtype)
            np.copyto(work, batch)
            scratch = True
        else:
            work = batch.astype(batch.dtype, copy=True)
        reference = batch.copy() if self.verify else None

        if self._planner is not None and self.sampler is None:
            result = self._sort_planned(work)
        else:
            result = self._split_nan_rows(work, self._dispatch)

        result.scratch = scratch
        if self.verify:
            assert_batch_sorted(result.batch, reference)
        if descending:
            result.batch[:] = result.batch[:, ::-1]
        return result

    def _sort_capacity(
        self, batch: np.ndarray, *, inplace: bool, descending: bool
    ) -> SortResult:
        """Route one batch through the out-of-core capacity tier.

        Chunks run the declared planner (or ``"auto"``) with per-chunk
        verification when ``verify=True``; the chunk schedule, spill
        counters, and degradation events land on the returned result's
        dynamic ``capacity`` attribute (a
        :class:`~repro.outofcore.CapacityResult`).
        """
        from ..outofcore.capacity import CapacitySorter  # local: optional subsystem

        capacity = CapacitySorter(
            self.memory_budget,
            config=self.config,
            planner=self._planner if self._planner is not None else "auto",
            verify=self.verify,
        )
        run = capacity.sort(batch, inplace=inplace, descending=descending)
        result = SortResult(
            batch=run.batch,
            phase_seconds={"capacity_chunks": run.stats.wall_seconds},
        )
        result.capacity = run  # decision provenance, like execution_plan
        return result

    def argsort(self, batch: np.ndarray, *, descending: bool = False) -> np.ndarray:
        """Per-row sorting permutation, via the pair machinery.

        Runs the three phases on ``batch`` as keys carrying the column
        indices as payload — the permutation a downstream pipeline needs
        to reorder companion matrices (e.g. reorder intensities after
        sorting m/z).  Stable: equal keys keep their original order.
        """
        from .pairs import sort_pairs

        batch = validate_batch(batch)
        idx = np.broadcast_to(
            np.arange(batch.shape[1], dtype=np.int64), batch.shape
        ).copy()
        result = sort_pairs(batch, idx, config=self.config)
        perm = result.values.astype(np.int64)
        if descending:
            perm = perm[:, ::-1].copy()
        return perm

    # -- engines ----------------------------------------------------------------
    def _dispatch(self, work: np.ndarray) -> SortResult:
        if self.engine == "vectorized":
            return self._sort_vectorized(work)
        if self.engine == "sim":
            return self._sort_sim(work)
        return self._sort_model(work)

    def _split_nan_rows(self, work: np.ndarray, engine) -> SortResult:
        """Run ``engine`` (a ``work -> SortResult`` callable) on ``work``,
        splitting NaN-carrying rows off a float batch first.

        Integer and NaN-free batches go to ``engine`` whole.  Otherwise
        ``nan_policy="raise"`` rejects the batch here, before any write,
        and ``"sort_to_end"`` splits it by poisoning: NaN-free rows run
        ``engine`` as one (smaller) batch; NaN-carrying rows are sorted
        on the host with ``np.sort``, whose NaN-to-the-end order is the
        policy's contract.  The engine cannot take them: NaN defeats the
        splitter range comparisons (every ``lo <= v < hi`` is false),
        and the sim kernels would silently drop the element during
        write-back.
        """
        if work.dtype.kind != "f":
            return engine(work)
        nan_mask = np.isnan(work).any(axis=1)
        if not nan_mask.any():
            return engine(work)
        if self.config.nan_policy == "raise":
            raise ValueError(
                f"{int(nan_mask.sum())} of {work.shape[0]} rows "
                "contain NaN; no total order (use "
                "SortConfig(nan_policy='sort_to_end') to keep them)"
            )
        clean_mask = ~nan_mask
        sub = None
        if clean_mask.any():
            clean = np.ascontiguousarray(work[clean_mask])
            sub = engine(clean)
            work[clean_mask] = sub.batch
        work[nan_mask] = np.sort(work[nan_mask], axis=1)
        return SortResult(
            batch=work,
            splitters=sub.splitters if sub is not None else None,
            buckets=sub.buckets if sub is not None else None,
            phase_seconds=dict(sub.phase_seconds) if sub is not None else {},
            reports=sub.reports if sub is not None else None,
            modeled_ms=sub.modeled_ms if sub is not None else None,
        )

    def _sort_vectorized(self, work: np.ndarray) -> SortResult:
        t0 = time.perf_counter()
        if self.sampler is not None:
            spl = self.sampler.select(work)
        else:
            spl = select_splitters(work, self.config, workspace=self.workspace)
        t1 = time.perf_counter()

        if self.config.fuse_phases:
            from .fused import fused_bucket_sort  # local: keeps import cheap

            buckets = fused_bucket_sort(
                work, spl.splitters, spl.num_buckets, workspace=self.workspace
            )
            t2 = time.perf_counter()
            return SortResult(
                batch=work,
                splitters=spl,
                buckets=buckets,
                phase_seconds={
                    "phase1_splitters": t1 - t0,
                    "phase23_fused": t2 - t1,
                },
            )

        buckets = bucketize(work, spl.splitters, self.config, out=work)
        t2 = time.perf_counter()
        sort_buckets(work, buckets.offsets)
        t3 = time.perf_counter()
        return SortResult(
            batch=work,
            splitters=spl,
            buckets=buckets,
            phase_seconds={
                "phase1_splitters": t1 - t0,
                "phase2_bucketing": t2 - t1,
                "phase3_sorting": t3 - t2,
            },
        )

    def _sort_planned(self, work: np.ndarray) -> SortResult:
        """Plan one batch, execute the plan, and report back.

        Radix plans sort the whole batch, NaN rows included; serial
        plans run the regular (arena-backed) fused path behind the
        NaN-row split.  Either way the measured wall time feeds
        ``planner.observe``.
        """
        plan = self._planner.plan(
            work.shape[0], work.shape[1], work.dtype, config=self.config
        )
        t0 = time.perf_counter()
        if plan.engine == "radix":
            result = self._sort_radix(work)
        else:
            result = self._split_nan_rows(work, self._sort_vectorized)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        self._planner.observe(plan, elapsed_ms)
        # Decision provenance for observability/tests (dynamic attribute).
        result.execution_plan = plan
        return result

    def _sort_radix(self, work: np.ndarray) -> SortResult:
        """The planner's ``"radix"`` engine: flat in-place row sort.

        No phase-1 sampling, no bucket metadata — the whole batch is
        sorted through :func:`repro.core.radix.radix_sort_rows`, which
        honors ``nan_policy="sort_to_end"`` as ``np.sort`` does and
        ``"raise"`` via one ``min()`` probe that runs before any write.  ``splitters``/``buckets`` are ``None`` on the
        result: this engine never forms buckets.
        """
        t0 = time.perf_counter()
        radix_sort_rows(work, nan_policy=self.config.nan_policy)
        return SortResult(
            batch=work,
            phase_seconds={"radix_rowsort": time.perf_counter() - t0},
        )

    def _sort_sim(self, work: np.ndarray) -> SortResult:
        from . import kernels  # local import: gpusim only needed for this engine
        from ..gpusim import GpuDevice

        device = self.device if self.device is not None else GpuDevice.k40c()
        if not isinstance(device, GpuDevice):
            raise TypeError("engine='sim' needs a repro.gpusim.GpuDevice")
        sorted_batch, pipeline = kernels.run_arraysort_on_device(
            device, work, self.config
        )
        work[:] = sorted_batch
        return SortResult(
            batch=work,
            reports=pipeline,
            modeled_ms=pipeline.milliseconds,
        )

    def _sort_model(self, work: np.ndarray) -> SortResult:
        from ..analysis.perfmodel import model_arraysort_ms
        from ..gpusim.device import DeviceSpec, K40C

        spec = self.device if self.device is not None else K40C
        if not isinstance(spec, DeviceSpec):
            spec = getattr(spec, "spec", None)
            if not isinstance(spec, DeviceSpec):
                raise TypeError("engine='model' needs a DeviceSpec")
        ms = model_arraysort_ms(spec, work.shape[0], work.shape[1], self.config)
        # The model engine still delivers a sorted result (cheaply) so
        # callers can use it interchangeably.
        work.sort(axis=1)
        return SortResult(batch=work, modeled_ms=ms)


def sort_arrays(
    batch: np.ndarray,
    *,
    config: SortConfig = DEFAULT_CONFIG,
    engine: str = "vectorized",
    verify: bool = False,
) -> np.ndarray:
    """One-shot convenience wrapper: returns the sorted batch.

    >>> sort_arrays(np.array([[3., 1., 2.], [9., 7., 8.]])).tolist()
    [[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]]
    """
    sorter = GpuArraySort(config, engine=engine, verify=verify)
    return sorter.sort(batch).batch
