"""Observability surface of the sort service.

:class:`ServiceStats` is an immutable snapshot — counters, queue depth,
the batch-occupancy histogram, and request-latency percentiles — taken
under the service lock by :meth:`repro.service.SortService.stats`.  The
mutable accumulation lives in :class:`StatsRecorder`, which the service
owns and updates on the submit/dispatch/complete path.

Latency percentiles are computed over a bounded ring of the most recent
completed-request latencies (default 4096), so a long-running service
reports *current* behaviour rather than a lifetime average diluted by
warm-up.  Occupancy is histogrammed in power-of-two buckets of rows per
dispatched batch — the natural axis, since the planner's shape classes
quantize ``log2(N)`` the same way.

Every counter is additionally kept **per tenant** (admission, rejection,
shedding, completion, quarantine, and a smaller per-tenant latency
ring), so the multi-tenant QoS story is observable: a flooding tenant's
rejections and a quarantined tenant's failures show up under *that*
tenant's name, and :mod:`repro.service.metrics` can export the whole
surface as scrape-ready snapshots.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Dict, List, Optional

import numpy as np

from ..statan import runtime as _sanitizer

__all__ = ["ServiceStats", "StatsRecorder", "TenantStats"]


def _occupancy_bucket(rows: int) -> str:
    """Power-of-two histogram label for a batch of ``rows`` rows."""
    if rows <= 0:
        return "[0,1)"
    lo = 1 << int(math.floor(math.log2(rows)))
    return f"[{lo},{lo * 2})"


def _percentiles(latencies_ms: List[float]) -> Dict[str, float]:
    """p50/p95/p99/mean/max over a latency window (empty dict if none)."""
    if not latencies_ms:
        return {}
    window = np.asarray(latencies_ms, dtype=np.float64)
    p50, p95, p99 = np.percentile(window, [50.0, 95.0, 99.0])
    return {
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean": float(window.mean()),
        "max": float(window.max()),
    }


@dataclasses.dataclass(frozen=True)
class TenantStats:
    """One tenant's slice of the serving counters.

    ``admitted`` counts requests accepted at submit time (the per-tenant
    analogue of ``submitted``); ``rejected`` splits into queue-full and
    tenant-quota refusals via ``rejected_quota``.  ``latency_ms`` holds
    percentiles over the tenant's own bounded recent window.
    """

    tenant: str
    admitted: int = 0
    rows_admitted: int = 0
    rejected: int = 0
    rejected_quota: int = 0
    shed: int = 0
    deadline_missed: int = 0
    completed: int = 0
    failed: int = 0
    quarantined_rows: int = 0
    latency_ms: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def rejection_rate(self) -> float:
        """Rejected / (admitted + rejected) — the chaos gate's fairness axis."""
        offered = self.admitted + self.rejected
        if offered == 0:
            return 0.0
        return self.rejected / offered

    def as_dict(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        payload["rejection_rate"] = self.rejection_rate
        return payload


class _TenantCounters:
    """Mutable per-tenant tallies (guarded by the recorder's lock)."""

    def __init__(self, tenant: str, latency_window: int) -> None:
        self.tenant = tenant
        self.admitted = 0
        self.rows_admitted = 0
        self.rejected = 0
        self.rejected_quota = 0
        self.shed = 0
        self.deadline_missed = 0
        self.completed = 0
        self.failed = 0
        self.quarantined_rows = 0
        self._latency_window = latency_window
        self._latencies: List[float] = []
        self._latency_pos = 0

    def record_latency_ms(self, ms: float) -> None:
        if len(self._latencies) < self._latency_window:
            self._latencies.append(ms)
        else:  # bounded ring: overwrite the oldest entry
            self._latencies[self._latency_pos] = ms
            self._latency_pos = (self._latency_pos + 1) % self._latency_window

    def tallies(self) -> Dict[str, object]:
        """Every :class:`TenantStats` field but ``latency_ms``."""
        return dict(
            tenant=self.tenant,
            admitted=self.admitted,
            rows_admitted=self.rows_admitted,
            rejected=self.rejected,
            rejected_quota=self.rejected_quota,
            shed=self.shed,
            deadline_missed=self.deadline_missed,
            completed=self.completed,
            failed=self.failed,
            quarantined_rows=self.quarantined_rows,
        )

    def latency_window(self) -> List[float]:
        """A copy of the latency ring, for percentiles outside the lock."""
        return list(self._latencies)


@dataclasses.dataclass(frozen=True)
class ServiceStats:
    """One consistent snapshot of a :class:`~repro.service.SortService`.

    Counters are lifetime totals; ``queue_depth_*`` is the instant
    backlog; ``latency_ms`` holds ``p50``/``p95``/``p99``/``mean``/
    ``max`` over the recent completed-request window (empty dict before
    the first completion).
    """

    #: Requests accepted by ``submit`` (rejected ones are not counted here).
    submitted: int
    #: Requests whose future resolved with a sorted result.
    completed: int
    #: Requests refused at submit time by admission control.
    rejected: int
    #: Requests shed in the queue because their deadline passed.
    shed: int
    #: Requests whose batch finished after their deadline (result discarded).
    deadline_missed: int
    #: Requests failed by the backend (quarantine or an execution error).
    failed: int
    #: Batches dispatched to the sorter.
    batches: int
    #: Total rows carried by dispatched batches.
    batched_rows: int
    #: Requests currently queued (not yet dispatched).
    queue_depth_requests: int
    #: Rows currently queued.
    queue_depth_rows: int
    #: Rows-per-batch histogram: power-of-two bucket label -> batch count.
    occupancy_histogram: Dict[str, int]
    #: Recent-window latency percentiles, milliseconds.
    latency_ms: Dict[str, float]
    #: Per-tenant slices of the above (tenant name -> TenantStats).
    tenants: Dict[str, TenantStats] = dataclasses.field(default_factory=dict)
    #: Planner engine-selection counts per shape class
    #: (``shape_class_key`` -> engine -> times chosen), from the
    #: backend planner's :meth:`~repro.planner.planner._PlannerBase.plan_counts`.
    #: Empty when the backend has no planner.  This is how live traffic
    #: shows *which* engine (serial/radix) each batch
    #: shape actually dispatches to.
    planner_engine_counts: Dict[str, Dict[str, int]] = dataclasses.field(
        default_factory=dict
    )

    @property
    def mean_occupancy_rows(self) -> float:
        """Average rows per dispatched batch (0.0 before the first batch)."""
        if self.batches == 0:
            return 0.0
        return self.batched_rows / self.batches

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@_sanitizer.sanitize_guarded
class StatsRecorder:
    """Mutable accumulator behind :class:`ServiceStats`.

    Internally locked: every counter is guarded by the recorder's own
    ``_lock``, so submit-path increments (which happen under the service
    lock) and completion-path increments (worker thread) can never lose
    an update even when a caller touches the recorder outside the
    service lock.  All mutation goes through ``record_*`` methods — the
    counters themselves are an implementation detail.
    """

    def __init__(
        self,
        latency_window: int = 4096,
        tenant_latency_window: int = 1024,
    ) -> None:
        if latency_window < 1:
            raise ValueError(f"latency_window must be >= 1, got {latency_window}")
        if tenant_latency_window < 1:
            raise ValueError(
                f"tenant_latency_window must be >= 1, got {tenant_latency_window}"
            )
        self._lock = _sanitizer.make_lock("StatsRecorder._lock")
        self.submitted = 0  # guarded-by: _lock
        self.completed = 0  # guarded-by: _lock
        self.rejected = 0  # guarded-by: _lock
        self.shed = 0  # guarded-by: _lock
        self.deadline_missed = 0  # guarded-by: _lock
        self.failed = 0  # guarded-by: _lock
        self.batches = 0  # guarded-by: _lock
        self.batched_rows = 0  # guarded-by: _lock
        self.occupancy: Dict[str, int] = {}  # guarded-by: _lock
        self._latency_window = int(latency_window)
        self._latencies: List[float] = []  # guarded-by: _lock
        self._latency_pos = 0  # guarded-by: _lock
        self._tenant_latency_window = int(tenant_latency_window)
        self._tenants: Dict[str, _TenantCounters] = {}  # guarded-by: _lock
        #: EMA of delivered rows/second, the retry-after estimator's input.
        self.ema_rows_per_s: Optional[float] = None  # guarded-by: _lock

    def _tenant_locked(self, tenant: str) -> _TenantCounters:
        counters = self._tenants.get(tenant)
        if counters is None:
            counters = self._tenants[tenant] = _TenantCounters(
                tenant, self._tenant_latency_window
            )
        return counters

    # -- event hooks -------------------------------------------------------
    def record_submitted(self, *, tenant: str = "default", rows: int = 1) -> None:
        with self._lock:
            self.submitted += 1
            counters = self._tenant_locked(tenant)
            counters.admitted += 1
            counters.rows_admitted += int(rows)

    def record_rejected(
        self, *, tenant: str = "default", reason: str = "queue-full"
    ) -> None:
        with self._lock:
            self.rejected += 1
            counters = self._tenant_locked(tenant)
            counters.rejected += 1
            if reason == "tenant-quota":
                counters.rejected_quota += 1

    def record_shed(self, count: int, *, tenant: Optional[str] = None) -> None:
        with self._lock:
            self.shed += int(count)
            if tenant is not None:
                self._tenant_locked(tenant).shed += int(count)

    def record_failed(
        self, *, tenant: str = "default", quarantined_rows: int = 0
    ) -> None:
        with self._lock:
            self.failed += 1
            counters = self._tenant_locked(tenant)
            counters.failed += 1
            counters.quarantined_rows += int(quarantined_rows)

    def record_deadline_missed(self, *, tenant: str = "default") -> None:
        with self._lock:
            self.deadline_missed += 1
            self._tenant_locked(tenant).deadline_missed += 1

    def record_batch(self, rows: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_rows += int(rows)
            bucket = _occupancy_bucket(int(rows))
            self.occupancy[bucket] = self.occupancy.get(bucket, 0) + 1

    def record_latency(self, seconds: float, *, tenant: str = "default") -> None:
        ms = float(seconds) * 1e3
        with self._lock:
            if len(self._latencies) < self._latency_window:
                self._latencies.append(ms)
            else:  # bounded ring: overwrite the oldest entry
                self._latencies[self._latency_pos] = ms
                self._latency_pos = (self._latency_pos + 1) % self._latency_window
            self.completed += 1
            counters = self._tenant_locked(tenant)
            counters.completed += 1
            counters.record_latency_ms(ms)

    def record_throughput(self, rows: int, seconds: float, *, alpha: float = 0.3) -> None:
        if seconds <= 0 or rows <= 0:
            return
        rate = rows / seconds
        with self._lock:
            if self.ema_rows_per_s is None:
                self.ema_rows_per_s = rate
            else:
                self.ema_rows_per_s += alpha * (rate - self.ema_rows_per_s)

    def rows_per_s(self) -> Optional[float]:
        """Current throughput EMA (``None`` before the first batch)."""
        with self._lock:
            return self.ema_rows_per_s

    # -- snapshot ----------------------------------------------------------
    def latency_percentiles(self) -> Dict[str, float]:
        with self._lock:
            window = list(self._latencies)
        return _percentiles(window)

    def snapshot(
        self,
        *,
        queue_requests: int,
        queue_rows: int,
        planner_engine_counts: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> ServiceStats:
        """One consistent snapshot: every field read under the same lock.

        The lock covers copying the counters and latency windows;
        ``np.percentile`` runs on the copies after it is released, so
        the completion path's :meth:`record_latency` never waits on it.
        ``planner_engine_counts`` is point-in-time state owned by the
        backend's planner (its own lock), passed through verbatim.
        """
        with self._lock:
            counters = dict(
                submitted=self.submitted,
                completed=self.completed,
                rejected=self.rejected,
                shed=self.shed,
                deadline_missed=self.deadline_missed,
                failed=self.failed,
                batches=self.batches,
                batched_rows=self.batched_rows,
                occupancy_histogram=dict(self.occupancy),
            )
            window = list(self._latencies)
            tenants = [
                (tenant.tallies(), tenant.latency_window())
                for _, tenant in sorted(self._tenants.items())
            ]
        return ServiceStats(
            **counters,
            queue_depth_requests=int(queue_requests),
            queue_depth_rows=int(queue_rows),
            latency_ms=_percentiles(window),
            tenants={
                tallies["tenant"]: TenantStats(
                    **tallies, latency_ms=_percentiles(tenant_window)
                )
                for tallies, tenant_window in tenants
            },
            planner_engine_counts=planner_engine_counts or {},
        )
