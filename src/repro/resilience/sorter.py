"""Self-healing wrapper around :class:`~repro.core.array_sort.GpuArraySort`.

The paper pitches GPU-ArraySort as a drop-in "GPU boost" inside
long-running acquisition software (Section 8).  In that setting the
sorter must *degrade gracefully*: a transient kernel fault, a brief OOM
pressure window, or an ECC bit flip in an output buffer is routine over
hours of operation, and poisoned inputs (NaN spectra) are a matter of
when, not if.  :class:`ResilientSorter` layers the standard reliability
loop over the batch sorter:

1. **verify-after-sort** — every attempt's output is checked row by row
   with :func:`~repro.core.validation.is_sorted_rows` and
   :func:`~repro.core.validation.rows_are_permutations`; silent
   corruption becomes a detected, retryable event;
2. **bounded retries** with capped exponential backoff on an injectable
   clock (:class:`~repro.resilience.retry.RetryPolicy`) — only the rows
   that failed are re-sorted;
3. **engine fallback chain** — when an engine exhausts its retries the
   remaining rows fall back down the chain (default ``sim →
   vectorized → numpy`` when starting from the sim engine), ending at a
   per-row ``np.sort`` last resort;
4. **degeneracy re-sampling** — skewed or duplicate-heavy inputs that
   collapse phase 1's splitters (the failure mode GPU Sample Sort and
   Multisplit both warn about) trigger automatic re-sampling at doubled
   rates before any fallback;
5. **quarantine** — rows that still fail after the whole chain, and
   poisoned (NaN) rows under ``nan_policy="raise"``, are reported on
   ``result.quarantined`` instead of aborting; the streaming layer
   diverts them to a dead-letter queue.

Fault injection for tests and benchmarks comes from a seeded
:class:`~repro.gpusim.faults.FaultPlan`: one sort *attempt* consumes one
launch index, so a given ``(plan seed, input)`` pair replays the exact
same fault/retry/fallback trajectory — and therefore identical
:class:`~repro.resilience.stats.ResilienceStats`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.array_sort import GpuArraySort, validate_batch
from ..core.config import DEFAULT_CONFIG, SortConfig
from ..core.splitters import select_splitters
from ..core.validation import is_sorted_rows, rows_are_permutations
from ..gpusim.errors import DeviceOutOfMemoryError, GpuSimError
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .stats import ResilienceStats

__all__ = ["ResilientSorter", "ResilientSortResult", "sort_arrays_resilient"]

#: Engine fallback chains by primary engine; "numpy" is the per-row
#: ``np.sort`` last resort that needs no device at all.
_DEFAULT_CHAINS = {
    "sim": ("sim", "vectorized", "numpy"),
    "vectorized": ("vectorized", "numpy"),
    "model": ("model", "vectorized", "numpy"),
}
_KNOWN_ENGINES = ("vectorized", "sim", "model", "numpy")


@dataclasses.dataclass
class ResilientSortResult:
    """Outcome of one resilient sort call.

    ``batch`` holds every verified row sorted; quarantined rows keep
    their *original* (unsorted) content so nothing fabricated can leak
    downstream.  ``stats`` is the delta recorded during this call (the
    sorter's session-level ``stats`` accumulates across calls).
    """

    batch: np.ndarray
    stats: ResilienceStats
    #: Sorted indices of rows that could not be delivered.
    quarantined: np.ndarray
    #: Reason per quarantined row index.
    quarantine_reasons: Dict[int, str]

    @property
    def ok(self) -> bool:
        return self.quarantined.size == 0


class ResilientSorter:
    """Sorter with retry, fallback, re-sampling, and quarantine.

    Parameters
    ----------
    config:
        Base :class:`SortConfig`; its ``nan_policy`` governs poisoned
        rows (``"raise"`` quarantines them here instead of raising,
        ``"sort_to_end"`` sorts them on the host path).
    engine:
        Primary engine; determines the default fallback chain.
    device:
        Passed through to :class:`GpuArraySort` for sim/model engines.
    fault_plan:
        Optional seeded :class:`~repro.gpusim.faults.FaultPlan`; each
        attempt consumes one launch index (may fault before, may corrupt
        the output after).  Do not also attach the same plan to a
        ``GpuDevice`` — each consultation advances the schedule.
    retry_policy:
        Bounded-retry/backoff schedule per engine.
    fallback_chain:
        Explicit engine sequence overriding the default for ``engine``.
    sleep:
        Injectable clock used for backoff waiting; defaults to
        ``time.sleep``.  Pass ``lambda _: None`` in tests/benchmarks —
        ``stats.backoff_seconds`` records the schedule either way.
    max_resample_boosts:
        How many times phase-1 sampling may be doubled on degenerate
        splitters before proceeding anyway (degeneracy hurts balance,
        not correctness).
    degeneracy_threshold:
        Fraction of duplicated splitters in a row that counts as
        degenerate.
    parallel / workers:
        Sharded multicore execution (see :mod:`repro.parallel`), applied
        whenever the ``"vectorized"`` engine runs — as the primary or as
        a fallback link.  Sharding is deterministic, so retries and
        verification behave identically to serial execution.
    planner:
        Per-batch engine choice for the ``"vectorized"`` link (see
        :class:`~repro.planner.ExecutionPlanner`); mutually exclusive
        with ``parallel``.  The planner-backed sorter is cached across
        attempts and calls, so its scratch arena persists for the
        session.
    """

    def __init__(
        self,
        config: SortConfig = DEFAULT_CONFIG,
        *,
        engine: str = "vectorized",
        device=None,
        fault_plan=None,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        fallback_chain: Optional[Sequence[str]] = None,
        sleep: Optional[Callable[[float], None]] = time.sleep,
        max_resample_boosts: int = 2,
        degeneracy_threshold: float = 0.5,
        parallel=None,
        workers: Optional[int] = None,
        planner=None,
    ) -> None:
        if engine not in _DEFAULT_CHAINS:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {tuple(_DEFAULT_CHAINS)}"
            )
        chain = tuple(fallback_chain) if fallback_chain is not None else _DEFAULT_CHAINS[engine]
        if not chain:
            raise ValueError("fallback_chain must name at least one engine")
        for item in chain:
            if item not in _KNOWN_ENGINES:
                raise ValueError(
                    f"unknown engine {item!r} in fallback_chain; "
                    f"choose from {_KNOWN_ENGINES}"
                )
        if not 0.0 < degeneracy_threshold <= 1.0:
            raise ValueError("degeneracy_threshold must be in (0, 1]")
        if max_resample_boosts < 0:
            raise ValueError("max_resample_boosts must be >= 0")
        self.config = config
        self.engine = engine
        self.device = device
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.fallback_chain: Tuple[str, ...] = chain
        self.max_resample_boosts = int(max_resample_boosts)
        self.degeneracy_threshold = float(degeneracy_threshold)
        if planner is not None and parallel is not None:
            raise ValueError(
                "planner and parallel are mutually exclusive (the planner "
                "chooses the execution engine per batch)"
            )
        self.parallel = parallel
        self.workers = workers
        self.planner = planner
        #: Sorter instances cached per (engine, config): retries and the
        #: degeneracy re-sampling escalation revisit the same few keys,
        #: and a cached sorter keeps its scratch arena (and planner
        #: state) warm across attempts and across calls.
        self._sorters: Dict[Tuple[str, SortConfig], GpuArraySort] = {}
        self._sleep = sleep
        #: Session-level roll-up across every :meth:`sort` call.
        self.stats = ResilienceStats()

    # -- public API --------------------------------------------------------
    def sort(self, batch: np.ndarray) -> ResilientSortResult:
        """Sort every row of ``batch``, healing around faults.

        Never raises for transient device faults, output corruption, or
        poisoned rows — those become retries, fallbacks, and quarantine
        entries.  Malformed *batches* (wrong shape/dtype) still raise
        ``ValueError`` at the boundary: they are caller bugs, not faults.
        """
        batch = validate_batch(batch)
        stats = ResilienceStats()
        reasons: Dict[int, str] = {}
        n_rows = batch.shape[0]
        if n_rows == 0:
            self.stats.merge(stats)
            return ResilientSortResult(
                batch=np.array(batch, copy=True),
                stats=stats,
                quarantined=np.empty(0, dtype=np.int64),
                quarantine_reasons=reasons,
            )

        reference = np.array(batch, copy=True)
        out = np.array(batch, copy=True)
        pending = np.arange(n_rows, dtype=np.int64)

        # Poisoned-input routing: under nan_policy="raise" the engines
        # would reject the whole batch because of a few bad rows; divert
        # those rows to quarantine instead.  Under "sort_to_end" the
        # engines handle NaN rows themselves (host path).
        if reference.dtype.kind == "f" and self.config.nan_policy == "raise":
            nan_rows = np.flatnonzero(np.isnan(reference).any(axis=1))
            if nan_rows.size:
                for row in nan_rows:
                    reasons[int(row)] = "nan-input"
                stats.quarantined_rows += int(nan_rows.size)
                keep = np.ones(n_rows, dtype=bool)
                keep[nan_rows] = False
                pending = pending[keep[pending]]

        config = self._resample_if_degenerate(reference, pending, stats)

        ever_failed = np.zeros(n_rows, dtype=bool)
        for chain_pos, engine in enumerate(self.fallback_chain):
            if pending.size == 0:
                break
            if chain_pos > 0:
                stats.record_fallback(engine)
            pending = self._run_engine_with_retries(
                engine, config, reference, out, pending, ever_failed, stats
            )

        if pending.size:
            for row in pending:
                reasons.setdefault(int(row), "validation-failed")
            stats.quarantined_rows += int(pending.size)
            # Quarantined rows keep their original content in `batch`.
            out[pending] = reference[pending]

        quarantined = np.array(sorted(reasons), dtype=np.int64)
        self.stats.merge(stats)
        return ResilientSortResult(
            batch=out,
            stats=stats,
            quarantined=quarantined,
            quarantine_reasons=reasons,
        )

    # -- internals ---------------------------------------------------------
    def _run_engine_with_retries(
        self,
        engine: str,
        config: SortConfig,
        reference: np.ndarray,
        out: np.ndarray,
        pending: np.ndarray,
        ever_failed: np.ndarray,
        stats: ResilienceStats,
    ) -> np.ndarray:
        """Attempt + retries of one engine over the pending rows.

        Verified rows are committed into ``out``; returns the row
        indices still unverified when this engine's budget is spent.
        """
        for attempt in range(self.retry_policy.max_retries + 1):
            if pending.size == 0:
                return pending
            if attempt > 0:
                wait = self.retry_policy.backoff_for(attempt - 1)
                stats.retries += 1
                stats.backoff_seconds += wait
                if self._sleep is not None:
                    self._sleep(wait)
            stats.attempts += 1
            rows = np.ascontiguousarray(reference[pending])
            try:
                launch_index = None
                if self.fault_plan is not None:
                    if engine == "numpy":
                        # The host last resort cannot suffer device-side
                        # transient faults or OOM, only buffer corruption.
                        launch_index = self.fault_plan.begin_trusted_launch(engine)
                    else:
                        launch_index = self.fault_plan.begin_launch(engine)
                sorted_rows = self._run_engine(engine, rows, config)
                if self.fault_plan is not None:
                    self.fault_plan.corrupt_rows(sorted_rows, launch_index)
            except DeviceOutOfMemoryError:
                stats.faults_seen += 1
                stats.oom_seen += 1
                ever_failed[pending] = True
                continue
            except GpuSimError:
                stats.faults_seen += 1
                ever_failed[pending] = True
                continue

            verified = is_sorted_rows(sorted_rows) & rows_are_permutations(
                sorted_rows, rows
            )
            good = np.flatnonzero(verified)
            bad = np.flatnonzero(~verified)
            if good.size:
                out[pending[good]] = sorted_rows[good]
                stats.rows_recovered += int(ever_failed[pending[good]].sum())
            if bad.size:
                stats.corrupt_rows_detected += int(bad.size)
                ever_failed[pending[bad]] = True
            pending = pending[bad]
        return pending

    def _run_engine(self, engine: str, rows: np.ndarray, config: SortConfig) -> np.ndarray:
        if engine == "numpy":
            # Host-side last resort: per-row np.sort, no device involved.
            return np.sort(rows, axis=1)
        key = (engine, config)
        sorter = self._sorters.get(key)
        if sorter is None:
            sorter = GpuArraySort(
                config,
                engine=engine,
                device=self.device,
                # Sharding/planning only exist for the vectorized engine.
                parallel=self.parallel if engine == "vectorized" else None,
                workers=self.workers,
                planner=self.planner if engine == "vectorized" else None,
            )
            self._sorters[key] = sorter
        return sorter.sort(rows).batch

    def _resample_if_degenerate(
        self, reference: np.ndarray, pending: np.ndarray, stats: ResilienceStats
    ) -> SortConfig:
        """Escalate phase-1 sampling while the splitters look degenerate.

        Skewed/duplicate-heavy data collapses many splitters onto the
        same value, leaving one giant bucket for phase 3 — the classic
        sample-sort failure mode.  Doubling the sampling rate tightens
        the quantile estimates; after ``max_resample_boosts`` doublings
        we proceed regardless (imbalance costs time, not correctness).
        """
        config = self.config
        if pending.size == 0:
            return config
        rows = reference[pending]
        for _ in range(self.max_resample_boosts):
            if config.sampling_rate >= 1.0:
                break
            if not self._splitters_degenerate(rows, config):
                break
            config = config.with_(
                sampling_rate=min(1.0, config.sampling_rate * 2.0)
            )
            stats.resamples += 1
        return config

    def _splitters_degenerate(self, rows: np.ndarray, config: SortConfig) -> bool:
        if rows.dtype.kind == "f" and np.isnan(rows).any():
            # Degeneracy probing must not choke on rows the engines will
            # route through the NaN host path anyway.
            clean = rows[~np.isnan(rows).any(axis=1)]
            if clean.shape[0] == 0:
                return False
            rows = clean
        splitters = select_splitters(rows, config).splitters
        q = splitters.shape[1]
        if q < 4:
            return False
        # Splitters are non-decreasing per row, so counting strict
        # increases counts distinct values.
        distinct = 1 + (splitters[:, 1:] > splitters[:, :-1]).sum(axis=1)
        duplicate_fraction = 1.0 - distinct / q
        return bool((duplicate_fraction >= self.degeneracy_threshold).any())


def sort_arrays_resilient(
    batch: np.ndarray,
    *,
    config: SortConfig = DEFAULT_CONFIG,
    engine: str = "vectorized",
    fault_plan=None,
    **kwargs,
) -> ResilientSortResult:
    """One-shot convenience wrapper around :class:`ResilientSorter`."""
    sorter = ResilientSorter(
        config, engine=engine, fault_plan=fault_plan, **kwargs
    )
    return sorter.sort(batch)
