"""In-process async sort service: the serving front-end of the repo.

The ROADMAP's north star is a system "serving heavy traffic from
millions of users", but every existing entry point
(:class:`~repro.core.array_sort.GpuArraySort`,
:class:`~repro.core.streaming.StreamingSorter`,
:class:`~repro.resilience.ResilientSorter`) assumes one caller hands
over one pre-assembled batch.  :class:`SortService` is the missing
layer: many callers ``submit()`` small requests concurrently, a
background batcher coalesces them into batches of
:data:`DEFAULT_BATCH_TARGET_ROWS` rows, one sort runs per batch, and the
result is demultiplexed back to each caller's ``Future``.  A submit
wakes the batcher thread only when it changes the thread's next step:
the queue was empty, the request fills its lane to the target, or it
falls due (deadline) before the thread's timed wait ends.  Any other
request just joins its lane, so the wakeup is paid per batch, not per
request.

Composition, not bypass:

* engine choice goes through ``planner=`` exactly like the sorters
  (``"auto"`` rule, ``"fused"``/``"radix"`` static);
* the sorter keeps a :class:`~repro.core.workspace.ScratchArena`, so
  steady-state serving sorts allocation-free; demuxed results are
  copied out of the arena by default (retained-result contract), or
  handed out as zero-copy views with ``submit(copy=False)`` — valid
  until the service's next batch, the same contract as
  :class:`StreamingSorter`'s ``on_batch``;
* ``backend="resilient"`` swaps in a
  :class:`~repro.resilience.ResilientSorter` for verify/retry
  semantics; its quarantined rows fail *only* the owning request, with
  a typed :class:`~repro.service.errors.QuarantinedError`.

Overload shows up as explicit backpressure, never as silent queue
growth: a bounded queue rejects at submit time with
:class:`~repro.service.errors.RejectedError` (carrying ``retry_after``),
and requests whose deadline passes are shed with
:class:`~repro.service.errors.DeadlineExceededError` — late data is
discarded, not delivered stale.

Multi-tenant QoS: every ``submit`` carries a ``tenant`` name.  Admission
enforces per-tenant quotas (:class:`TenantQuota`) *before* the shared
queue bound, so one tenant exhausting its quota is rejected with
``reason="tenant-quota"`` while everyone else keeps being admitted; the
batcher's weighted-fair-queuing layer (see
:mod:`repro.service.batcher`) then keeps a flooding tenant's backlog
from starving other tenants' dispatch.  All counters — admitted,
rejected, shed, quarantined rows, latency percentiles — are kept per
tenant and exported by :mod:`repro.service.metrics`.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..statan import runtime as _sanitizer
from .batcher import DynamicBatcher, QueuedRequest
from .errors import (
    DeadlineExceededError,
    QuarantinedError,
    RejectedError,
    ServiceClosedError,
)
from .stats import ServiceStats, StatsRecorder

__all__ = ["DEFAULT_BATCH_TARGET_ROWS", "SortService", "TenantQuota"]

#: Queued rows that trigger a dispatch unless ``batch_target_rows`` is
#: given — for :class:`SortService` and every fleet worker's service.  A
#: power of two, so consecutive full batches land in the *same*
#: quantized planner shape class (``shape_class_key`` rounds ``log2 N``).
DEFAULT_BATCH_TARGET_ROWS = 4096

#: Default bounded jitter fraction on ``retry_after`` hints: rejected
#: clients resubmit spread over ``[hint, hint * (1 + jitter)]`` instead
#: of stampeding back in lockstep at the same instant.
DEFAULT_RETRY_JITTER = 0.25


def validate_request(arrays, deadline, tenant, default_deadline_ms):
    """Check one ``submit()`` request; return ``(staged, single, deadline)``.

    ``staged`` is the request as a ``(k, n)`` stack, ``single`` says it
    arrived as one 1-D array, and ``deadline`` falls back to
    ``default_deadline_ms`` (in seconds).  Shared by
    :class:`SortService` and :class:`~repro.fleet.SortFleet`, so both
    front-ends reject the same inputs with the same errors.
    """
    staged = np.asarray(arrays)
    single = staged.ndim == 1
    if single:
        staged = staged.reshape(1, -1)
    if staged.ndim != 2:
        raise ValueError(
            f"expected one array or a (k, n) stack, got shape {staged.shape}"
        )
    if staged.shape[0] == 0 or staged.shape[1] == 0:
        raise ValueError(f"arrays must be non-empty, got shape {staged.shape}")
    if staged.dtype.kind not in "biuf":
        raise ValueError(f"arrays dtype must be numeric, got {staged.dtype!r}")
    if deadline is not None and deadline < 0:
        raise ValueError(f"deadline must be >= 0 seconds, got {deadline}")
    if not isinstance(tenant, str) or not tenant:
        raise ValueError(f"tenant must be a non-empty string, got {tenant!r}")
    if deadline is None and default_deadline_ms is not None:
        deadline = default_deadline_ms / 1e3
    return staged, single, deadline


@dataclasses.dataclass(frozen=True)
class TenantQuota:
    """Admission bounds for one tenant.

    ``max_queued_rows`` / ``max_queued_requests`` cap what the tenant
    may have *waiting* in the service queue at once (``None`` = no
    per-tenant cap on that axis).  A submit that would exceed either cap
    is refused with :class:`RejectedError` (``reason="tenant-quota"``)
    without touching other tenants' headroom.
    """

    max_queued_rows: Optional[int] = None
    max_queued_requests: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_queued_rows", "max_queued_requests"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {value}")


@_sanitizer.sanitize_guarded
class SortService:
    """Async sort front-end with dynamic batching and admission control.

    Example::

        with SortService(batch_target_rows=512, linger_ms=2.0) as svc:
            futures = [svc.submit(arrays) for arrays in requests]
            results = [f.result() for f in futures]

    Parameters
    ----------
    config:
        :class:`SortConfig` forwarded to the execution backend.
    planner:
        Engine choice for the backend sorter, same vocabulary as
        :class:`GpuArraySort(planner=...) <repro.core.array_sort.GpuArraySort>`
        (``None``, ``"auto"``, ``"fused"``, ``"radix"``, or an
        instance).
    backend:
        ``None`` (a :class:`GpuArraySort` with a scratch arena — the
        default), ``"resilient"`` (a :class:`ResilientSorter` for
        verify/retry/quarantine semantics), or any object whose
        ``sort(batch, *, inplace=False)`` returns a result with a
        ``batch`` attribute.  The service passes ``inplace=True`` for
        the batch it gathered (its own buffer) and never for a caller's
        arrays.
    batch_target_rows:
        Queued rows that trigger a dispatch (default
        :data:`DEFAULT_BATCH_TARGET_ROWS`).
    max_batch_rows:
        Hard per-batch cap (default ``4 * batch_target_rows``).
    linger_ms:
        Longest a request waits for co-batching before its lane
        dispatches below target (default 2 ms).
    max_queue_rows:
        Admission bound: total queued rows beyond which ``submit``
        raises :class:`RejectedError` (default ``8 * batch_target_rows``).
    default_deadline_ms:
        Deadline applied to requests submitted without one (``None`` =
        no deadline).
    latency_window:
        Completed-request latencies retained for the percentile
        snapshot.
    tenant_quotas:
        Per-tenant admission bounds: tenant name -> :class:`TenantQuota`
        (or a plain int, shorthand for ``TenantQuota(max_queued_rows=n)``).
    default_tenant_quota:
        Quota applied to tenants absent from ``tenant_quotas`` (``None``
        = unlisted tenants are bounded only by the shared queue).
    tenant_weights:
        WFQ weight per tenant for the batcher's fairness layer (default
        weight 1.0 for unlisted tenants).
    retry_jitter:
        Bounded jitter fraction on ``retry_after`` hints (0 disables;
        default :data:`DEFAULT_RETRY_JITTER`).
    retry_jitter_seed:
        Seed for the jitter RNG, for reproducible backpressure tests.
    clock:
        Monotonic clock, injectable for tests.
    """

    def __init__(
        self,
        *,
        config: SortConfig = DEFAULT_CONFIG,
        planner=None,
        backend=None,
        batch_target_rows: Optional[int] = None,
        max_batch_rows: Optional[int] = None,
        linger_ms: float = 2.0,
        max_queue_rows: Optional[int] = None,
        default_deadline_ms: Optional[float] = None,
        latency_window: int = 4096,
        tenant_quotas: Optional[Dict[str, Union["TenantQuota", int]]] = None,
        default_tenant_quota: Optional[Union["TenantQuota", int]] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
        retry_jitter: float = DEFAULT_RETRY_JITTER,
        retry_jitter_seed: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self._clock = clock
        resolved_planner = None
        if planner is not None:
            from ..planner import resolve_planner  # local: optional subsystem

            resolved_planner = resolve_planner(planner)
        self._sorter = self._make_backend(backend, config, resolved_planner)
        # Optional backend hook: ``stage(shape, dtype)`` returns the buffer
        # the next batch is gathered into (a fleet worker's slab).
        self._stage = getattr(self._sorter, "stage", None)
        if batch_target_rows is None:
            batch_target_rows = DEFAULT_BATCH_TARGET_ROWS
        if batch_target_rows < 1:
            raise ValueError(
                f"batch_target_rows must be >= 1, got {batch_target_rows}"
            )
        if max_batch_rows is None:
            max_batch_rows = 4 * batch_target_rows
        if max_queue_rows is None:
            max_queue_rows = 8 * batch_target_rows
        if max_queue_rows < batch_target_rows:
            raise ValueError(
                f"max_queue_rows ({max_queue_rows}) must be >= "
                f"batch_target_rows ({batch_target_rows})"
            )
        if linger_ms < 0:
            raise ValueError(f"linger_ms must be >= 0, got {linger_ms}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        if retry_jitter < 0:
            raise ValueError(f"retry_jitter must be >= 0, got {retry_jitter}")
        self.batch_target_rows = int(batch_target_rows)
        self.max_batch_rows = int(max_batch_rows)
        self.linger_ms = float(linger_ms)
        self.max_queue_rows = int(max_queue_rows)
        self.default_deadline_ms = default_deadline_ms
        self.retry_jitter = float(retry_jitter)
        self.tenant_quotas: Dict[str, TenantQuota] = {
            name: self._as_quota(quota)
            for name, quota in (tenant_quotas or {}).items()
        }
        self.default_tenant_quota: Optional[TenantQuota] = (
            self._as_quota(default_tenant_quota)
            if default_tenant_quota is not None
            else None
        )

        # _wakeup shares _lock's mutex (Condition(self._lock)), so holding
        # either name satisfies the guarded-by contract below.
        self._lock = _sanitizer.make_lock("SortService._lock")
        self._wakeup = threading.Condition(self._lock)
        self._batcher = DynamicBatcher(  # guarded-by: _wakeup, _lock
            target_rows=self.batch_target_rows,
            max_batch_rows=self.max_batch_rows,
            linger_s=self.linger_ms / 1e3,
            tenant_weights=tenant_weights,
        )
        self._recorder = StatsRecorder(latency_window=latency_window)
        # Jitter draws happen under the service lock (submit path only).
        self._retry_rng = np.random.default_rng(retry_jitter_seed)
        self._seq = 0  # guarded-by: _wakeup, _lock
        self._closed = False  # guarded-by: _wakeup, _lock
        self._draining = False  # guarded-by: _wakeup, _lock
        self._flushing = 0  # guarded-by: _wakeup, _lock  (pending flush() calls)
        self._inflight = False  # guarded-by: _wakeup, _lock  (batch being sorted)
        # When the batcher thread's wait ends: inf = untimed (empty
        # queue), -inf = not waiting (it re-reads the queue before it does).
        self._sleep_until = -math.inf  # guarded-by: _wakeup, _lock
        self._worker = threading.Thread(
            target=self._run, name="repro-sort-service", daemon=True
        )
        self._worker.start()

    @staticmethod
    def _as_quota(quota: Union["TenantQuota", int]) -> "TenantQuota":
        if isinstance(quota, TenantQuota):
            return quota
        if isinstance(quota, int):
            return TenantQuota(max_queued_rows=quota)
        raise TypeError(
            f"tenant quota must be a TenantQuota or an int (max queued "
            f"rows); got {quota!r}"
        )

    def tenant_quota(self, tenant: str) -> Optional["TenantQuota"]:
        """The admission quota applied to ``tenant`` (``None`` = shared
        queue bound only)."""
        return self.tenant_quotas.get(tenant, self.default_tenant_quota)

    @staticmethod
    def _make_backend(backend, config: SortConfig, planner):
        if backend is None:
            from ..core.array_sort import GpuArraySort

            return GpuArraySort(config, planner=planner, workspace=True)
        if backend == "resilient":
            from ..resilience import ResilientSorter

            return ResilientSorter(config, planner=planner, sleep=None)
        if hasattr(backend, "sort"):
            return backend
        raise TypeError(
            "backend must be None, 'resilient', or an object with a "
            f"sort() method; got {backend!r}"
        )

    # -- public API --------------------------------------------------------
    def submit(
        self,
        arrays: np.ndarray,
        *,
        deadline: Optional[float] = None,
        priority: int = 0,
        copy: bool = True,
        tenant: str = "default",
    ) -> "Future[np.ndarray]":
        """Queue ``arrays`` for sorting; returns a ``Future``.

        ``arrays`` is one array (1-D, length n) or a stack of same-length
        arrays (2-D, ``(k, n)``); the future resolves to the same shape,
        every row sorted.  Do not mutate the submitted storage until the
        future resolves — the batcher stages it at dispatch time.

        ``deadline`` is seconds from now; a request that cannot be
        delivered by then fails with :class:`DeadlineExceededError`.
        ``priority`` breaks ties between equal deadlines (smaller wins).
        ``copy=False`` trades safety for speed: the future resolves to a
        zero-copy view into the service's batch buffer, valid only until
        the service dispatches its next batch.  ``tenant`` names the
        submitting tenant for quota accounting, WFQ fairness, and
        per-tenant stats; callers that never set it share the
        ``"default"`` tenant.

        Raises :class:`RejectedError` when the shared queue is full or
        the tenant's quota is exhausted (the backpressure signal — sleep
        ``retry_after`` and resubmit; ``exc.reason`` tells which bound
        was hit) and :class:`ServiceClosedError` after :meth:`close`.
        """
        staged, single, deadline = validate_request(
            arrays, deadline, tenant, self.default_deadline_ms
        )
        return self._enqueue(staged, single, deadline, priority, copy, tenant)

    def _enqueue(
        self, staged: np.ndarray, single: bool, deadline: Optional[float],
        priority: int, copy: bool, tenant: str,
    ) -> "Future[np.ndarray]":
        """:meth:`submit` past :func:`validate_request` — the entry point
        of a front-end that has validated the request itself (a
        :class:`~repro.fleet.SortFleet` routing onto this service)."""
        future: "Future[np.ndarray]" = Future()
        with self._wakeup:
            if self._closed:
                raise ServiceClosedError("service is closed")
            rows = staged.shape[0]
            backlog = self._batcher.total_rows
            if backlog + rows > self.max_queue_rows:
                self._recorder.record_rejected(tenant=tenant, reason="queue-full")
                retry_after = self._retry_after(backlog)
                raise RejectedError(
                    f"queue full ({backlog} rows queued, limit "
                    f"{self.max_queue_rows}); retry after "
                    f"{retry_after:.3f}s",
                    retry_after=retry_after,
                    tenant=tenant,
                    reason="queue-full",
                )
            quota = self.tenant_quota(tenant)
            if quota is not None:
                tenant_rows = self._batcher.tenant_queue_rows(tenant)
                tenant_requests = self._batcher.tenant_queue_requests(tenant)
                over_rows = (
                    quota.max_queued_rows is not None
                    and tenant_rows + rows > quota.max_queued_rows
                )
                over_requests = (
                    quota.max_queued_requests is not None
                    and tenant_requests + 1 > quota.max_queued_requests
                )
                if over_rows or over_requests:
                    self._recorder.record_rejected(
                        tenant=tenant, reason="tenant-quota"
                    )
                    retry_after = self._retry_after(tenant_rows)
                    raise RejectedError(
                        f"tenant {tenant!r} quota exhausted "
                        f"({tenant_rows} rows / {tenant_requests} requests "
                        f"queued, quota {quota}); retry after "
                        f"{retry_after:.3f}s",
                        retry_after=retry_after,
                        tenant=tenant,
                        reason="tenant-quota",
                    )
            now = self._clock()
            request = QueuedRequest(
                seq=self._seq,
                arrays=staged,
                deadline=now + deadline if deadline is not None else None,
                priority=int(priority),
                enqueued_at=now,
                future=future,
                copy=bool(copy),
                single=single,
                tenant=tenant,
            )
            self._seq += 1
            lane_rows = self._batcher.add(request)
            self._recorder.record_submitted(tenant=tenant, rows=rows)
            # Wake the batcher thread only if this request changes what it
            # does next: it fills its lane, or it falls due before the
            # thread's wait ends (always so when the wait is untimed).  The
            # wait ends at or before every queued request's linger expiry
            # and deadline, and this request's linger expiry is after all
            # of those, so a request without an earlier deadline that joins
            # a non-empty queue would wake the thread only to sleep again.
            due = now + self._batcher.linger_s
            if request.deadline is not None:
                due = min(due, request.deadline)
            if lane_rows >= self.batch_target_rows or due < self._sleep_until:
                self._wakeup.notify_all()
        return future

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Dispatch everything queued, below target if needed; block until
        the queue is empty and no batch is in flight.  Returns ``False``
        on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wakeup:
            self._flushing += 1
            self._wakeup.notify_all()
            try:
                while self._batcher.total_requests or self._inflight:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return False
                    self._wakeup.wait(remaining)
                return True
            finally:
                self._flushing -= 1

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work and shut the worker down.

        ``drain=True`` (default) sorts and delivers everything already
        queued first; ``drain=False`` fails queued requests with
        :class:`ServiceClosedError`.  Idempotent.
        """
        with self._wakeup:
            first_close = not self._closed
            if first_close:
                self._closed = True
                self._draining = bool(drain)
                dropped = [] if drain else self._batcher.drop_all()
                self._wakeup.notify_all()
            else:
                dropped = []
        for request in dropped:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    ServiceClosedError("service closed before dispatch")
                )
        self._worker.join(timeout)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def sorter(self):
        """The execution backend (single-owner: the batcher thread)."""
        return self._sorter

    @property
    def recorder(self) -> StatsRecorder:
        """The live counters behind :meth:`stats` (internally locked), for
        a front-end that reports several services as one."""
        return self._recorder

    def stats(self) -> ServiceStats:
        """One consistent :class:`ServiceStats` snapshot."""
        with self._lock:
            return self._recorder.snapshot(
                queue_requests=self._batcher.total_requests,
                queue_rows=self._batcher.total_rows,
            )

    def tenant_backlog(self) -> Dict[str, int]:
        """Rows currently queued per tenant (the metrics surface)."""
        with self._lock:
            return self._batcher.tenant_backlog()

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- internals ---------------------------------------------------------
    def _retry_after(self, backlog_rows: int) -> float:
        """Backpressure hint: seconds for the backlog to drain.

        The estimate is floored (a hint of ~0 would tell clients to spin
        on ``submit``) and stretched by a bounded random jitter so a
        fleet of simultaneously rejected clients disperses its
        resubmissions instead of stampeding back in the same tick — the
        thundering-herd failure mode of deterministic backoff hints.
        """
        floor = max(self.linger_ms / 1e3, 1e-3)
        rate = self._recorder.rows_per_s()
        if not rate or rate <= 0:
            base = 2 * floor
        else:
            base = max(floor, backlog_rows / rate)
        if self.retry_jitter > 0:
            base *= 1.0 + float(self._retry_rng.random()) * self.retry_jitter
        return base

    def _run(self) -> None:
        """Batcher thread: shed, pick a ready lane, dispatch, repeat."""
        while True:
            with self._wakeup:
                self._inflight = False
                if self._flushing:
                    # Only flush() waits for the queue and in-flight flag.
                    self._wakeup.notify_all()
                now = self._clock()
                shed = self._batcher.shed_expired(now)
                for request in shed:
                    self._recorder.record_shed(1, tenant=request.tenant)
                drain = self._closed or self._flushing > 0
                lane = self._batcher.ready_lane(now, drain=drain)
                if lane is None and not shed:
                    if self._closed:
                        break
                    event_at = self._batcher.next_event_at(now)
                    timeout = None if event_at is None else max(0.0, event_at - now)
                    self._sleep_until = math.inf if event_at is None else event_at
                    self._wakeup.wait(timeout)
                    self._sleep_until = -math.inf
                    continue
                requests = self._batcher.pop_batch(lane, now) if lane else []
                if requests:
                    self._inflight = True
            # Futures resolve outside the lock: a done-callback may call
            # straight back into submit()/stats().
            for request in shed:
                self._fail_shed(request, now)
            if requests:
                self._dispatch(requests)
        with self._wakeup:
            self._wakeup.notify_all()

    def _fail_shed(self, request: QueuedRequest, now: float) -> None:
        if not request.future.set_running_or_notify_cancel():
            return  # caller cancelled first; nothing to deliver
        request.future.set_exception(
            DeadlineExceededError(
                f"deadline passed after {now - request.enqueued_at:.3f}s in "
                "queue (request shed before dispatch)",
                waited=now - request.enqueued_at,
                stage="queued",
            )
        )

    def _dispatch(self, requests: List[QueuedRequest]) -> None:
        """Sort one coalesced batch and demux results to each request."""
        live = [r for r in requests if r.future.set_running_or_notify_cancel()]
        if not live:
            return
        if _sanitizer.enabled():
            # A new dispatch reuses the batch staging: every copy=False
            # view handed out by the previous dispatch is now stale.
            _sanitizer.new_epoch(("SortService.demux", id(self)))
        first = live[0].arrays
        out = None
        if self._stage is not None:
            out = self._stage(
                (sum(r.rows for r in live), first.shape[1]), first.dtype
            )
        batch = np.concatenate([r.arrays for r in live], axis=0, out=out)
        t0 = self._clock()
        try:
            # The batch is the service's own gather buffer: sort it in place.
            result = self._sorter.sort(batch, inplace=True)
        except Exception as exc:  # noqa: BLE001 - isolate, then re-raise per request
            self._isolate_failure(live, exc)
            return
        elapsed = self._clock() - t0
        self._demux(live, result, batch.shape[0])
        with self._lock:
            self._recorder.record_batch(batch.shape[0])
            self._recorder.record_throughput(batch.shape[0], elapsed)

    def _isolate_failure(self, live: List[QueuedRequest], exc: Exception) -> None:
        """A batch-level failure must only hurt the culprit request(s).

        One poisoned request (e.g. NaN rows under ``nan_policy="raise"``)
        fails the whole coalesced batch, so re-run each request alone:
        innocents get their results, culprits get the real exception.
        Each re-run sorts a copy (``inplace`` stays off): the arrays are
        the caller's.
        """
        if len(live) == 1:
            with self._lock:
                self._recorder.record_failed(tenant=live[0].tenant)
            live[0].future.set_exception(exc)
            return
        for request in live:
            try:
                result = self._sorter.sort(request.arrays)
            except Exception as isolated:  # noqa: BLE001 - delivered via the future
                with self._lock:
                    self._recorder.record_failed(tenant=request.tenant)
                request.future.set_exception(isolated)
            else:
                self._deliver(request, result.batch, result, offset=0)

    def _demux(self, live: List[QueuedRequest], result, total_rows: int) -> None:
        """Slice the fused batch result back to each caller, in order."""
        out = result.batch  # statan: scratch-view
        offset = 0
        for request in live:
            rows = out[offset : offset + request.rows]
            self._deliver(request, rows, result, offset=offset)
            offset += request.rows

    def _deliver(self, request: QueuedRequest, rows, result, *, offset: int) -> None:
        now = self._clock()
        if request.deadline is not None and now > request.deadline:
            with self._lock:
                self._recorder.record_deadline_missed(tenant=request.tenant)
            request.future.set_exception(
                DeadlineExceededError(
                    f"batch finished {now - request.deadline:.3f}s past the "
                    "deadline; result discarded",
                    waited=now - request.enqueued_at,
                    stage="sorted",
                )
            )
            return
        quarantined = np.asarray(
            getattr(result, "quarantined", ()), dtype=np.int64
        )
        if quarantined.size:
            mine = quarantined[
                (quarantined >= offset) & (quarantined < offset + request.rows)
            ]
            if mine.size:
                reasons = getattr(result, "quarantine_reasons", None) or {}
                relative = {
                    int(row - offset): reasons.get(int(row), "validation-failed")
                    for row in mine
                }
                with self._lock:
                    self._recorder.record_failed(
                        tenant=request.tenant,
                        quarantined_rows=int(mine.size),
                    )
                request.future.set_exception(
                    QuarantinedError(
                        f"{mine.size} of {request.rows} rows quarantined "
                        "by the resilient backend",
                        rows=sorted(relative),
                        reasons=relative,
                        tenant=request.tenant,
                    )
                )
                return
        # Retained results are copied out of the batch: a backend's result
        # may live in storage the next dispatch reuses (a fleet slab, an
        # arena), and a copy never pins the whole batch.  copy=False
        # callers keep the zero-copy view, valid until the service's next
        # dispatch — the StreamingSorter on_batch contract (the default
        # backend sorts the service's freshly gathered batch in place,
        # which is stronger).
        payload = np.array(rows, copy=True) if request.copy else rows  # statan: scratch-view
        if not request.copy and _sanitizer.enabled():
            payload = _sanitizer.track_view(
                payload, ("SortService.demux", id(self)),
                label="SortService.submit(copy=False) result",
            )
        if request.single:
            payload = payload.reshape(-1)
        with self._lock:
            self._recorder.record_latency(
                now - request.enqueued_at, tenant=request.tenant
            )
        request.future.set_result(payload)
