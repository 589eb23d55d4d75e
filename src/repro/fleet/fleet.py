"""`SortFleet`: the multi-process serving tier.

One :class:`~repro.service.SortService` tops out at one Python process —
one GIL, one planner, one arena.  :class:`SortFleet` keeps the service's
entire caller contract (``submit(arrays, deadline=, priority=, tenant=)
-> Future``, typed errors, ``flush``/``close``/context manager) and puts
**N worker processes** behind it, each owning a full planner +
``ScratchArena`` + ``SortService`` stack, the way the paper's multi-GPU
relatives partition arrays across devices.

Request path::

    submit ──> FleetRouter (lane affinity + least-outstanding-rows)
           ──> two-region shm slab [input | output], input staged once
           ──> worker process: local SortService batches, sorts, writes
               the output half, answers on the shared response queue
           ──> collector thread: copy-out, resolve the caller's Future

Design points, each load-bearing:

* **Lane-affinity routing.**  Requests are bucketed by the same
  ``(row_len, dtype)`` lane key the in-process batcher uses, and a lane
  sticks to one worker while load allows — so a worker's batcher sees
  full lanes and its planner keeps hitting one shape class.
  Load wins when they conflict (least-outstanding-rows spill).
* **Backpressure.**  When no worker can admit a request, ``submit``
  raises :class:`~repro.service.errors.RejectedError` whose
  ``retry_after`` is the **most-loaded** worker's drain estimate,
  stretched by the router's seeded jitter — deterministic under test,
  dispersed in production.
* **Two-region slabs + failover.**  The worker never writes the input
  half of a request's shm slab, so the parent always holds a pristine
  copy of every in-flight request.  A worker that dies (process exit
  *or* heartbeat silence past the liveness deadline) is drained: its
  pending requests are re-dispatched to survivors — never dropped — and
  if **no** worker survives, the parent itself sorts them through the
  resilience layer (:class:`~repro.resilience.ResilientSorter`).
* **Per-worker planners.**  Each worker resolves its own ``planner``
  spec.  ``"auto"`` is a dtype rule (:class:`~repro.planner.ExecutionPlanner`)
  that reads no file, so workers share nothing and plan from their first
  batch.

Like the service, the fleet is clock-injectable only where it matters
for tests (the router is fully clock-free); process liveness necessarily
reads the real monotonic clock.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import threading
import time
from concurrent.futures import Future
from multiprocessing import shared_memory
from typing import Dict, List, Optional

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..statan import runtime as _sanitizer
from ..service.errors import (
    DeadlineExceededError,
    RejectedError,
    ServiceClosedError,
)
from ..service.service import DEFAULT_RETRY_JITTER, derive_batch_target
from ..service.stats import StatsRecorder
from .router import (
    DEFAULT_SPILL_FACTOR,
    DEFAULT_SPILL_SLACK_ROWS,
    FleetRouter,
)
from .stats import FleetStats, WorkerState
from .worker import WorkerConfig, rebuild_error, worker_main

__all__ = ["SortFleet", "DEFAULT_WORKERS", "DEFAULT_MAX_WORKER_QUEUE_ROWS"]

#: Worker processes when the caller does not choose.
DEFAULT_WORKERS = 2

#: Per-worker outstanding-rows admission bound (router-side).
DEFAULT_MAX_WORKER_QUEUE_ROWS = 8192

#: Re-dispatch attempts per request before the fleet gives up and
#: surfaces the underlying error (a backstop against dispatch loops,
#: far above anything a healthy fleet hits).
MAX_REDISPATCHES = 16


class _PendingRequest:
    """Parent-side record of one in-flight request (fields guarded by
    the fleet lock until the record is popped from ``_pending``; the
    popping thread then owns it exclusively)."""

    __slots__ = (
        "req_id", "future", "worker_id", "shm", "rows", "row_len",
        "dtype", "deadline_abs", "priority", "tenant", "single",
        "submitted_at", "redispatches",
    )

    def __init__(
        self, *, req_id, future, worker_id, shm, rows, row_len, dtype,
        deadline_abs, priority, tenant, single, submitted_at,
    ) -> None:
        self.req_id = req_id
        self.future = future
        self.worker_id = worker_id
        self.shm = shm
        self.rows = rows
        self.row_len = row_len
        self.dtype = dtype
        self.deadline_abs = deadline_abs
        self.priority = priority
        self.tenant = tenant
        self.single = single
        self.submitted_at = submitted_at
        self.redispatches = 0

    def input_view(self) -> np.ndarray:
        return np.ndarray(
            (self.rows, self.row_len), dtype=self.dtype, buffer=self.shm.buf
        )

    def output_view(self) -> np.ndarray:
        offset = self.rows * self.row_len * self.dtype.itemsize
        return np.ndarray(
            (self.rows, self.row_len), dtype=self.dtype,
            buffer=self.shm.buf, offset=offset,
        )

    def release_slab(self) -> None:
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # already reaped
            pass


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process (all mutable
    fields guarded by the owning fleet's lock)."""

    __slots__ = (
        "worker_id", "process", "request_q", "alive", "stopped",
        "last_hb", "last_stats", "dispatched", "completed", "failed",
        "redispatched",
    )

    def __init__(self, worker_id, process, request_q) -> None:
        self.worker_id = worker_id
        self.process = process
        self.request_q = request_q
        self.alive = True
        self.stopped = False
        self.last_hb: Optional[float] = None
        self.last_stats: Dict[str, object] = {}
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.redispatched = 0


@_sanitizer.sanitize_guarded
class SortFleet:
    """Sharded, failover-capable front-end over N sort-service processes.

    Parameters
    ----------
    workers:
        Worker processes to fork (default :data:`DEFAULT_WORKERS`).
    config / planner / backend:
        Passed to each worker's local :class:`~repro.service.SortService`
        (``planner`` as a *spec* string — each worker resolves its own
        instance).
    batch_target_rows / max_batch_rows / linger_ms / worker_max_queue_rows:
        Per-worker service batching knobs.  ``worker_max_queue_rows``
        defaults to ``4 * max_worker_queue_rows`` so a healthy worker
        never rejects what the router admitted (failover re-dispatch
        included).
    max_worker_queue_rows:
        The router's per-worker outstanding-rows admission bound — the
        fleet's capacity knob.  Requests beyond it are rejected with a
        backpressure hint.
    default_deadline_ms:
        Deadline applied to requests submitted without one.
    heartbeat_s / liveness_s:
        Worker heartbeat cadence and the silence threshold past which a
        live-looking process is declared dead and drained.
    retry_jitter / retry_jitter_seed:
        Jitter fraction and RNG seed for ``retry_after`` hints (seeded =
        deterministic backpressure under test, as in ``SortService``).
    """

    def __init__(
        self,
        *,
        workers: int = DEFAULT_WORKERS,
        config: SortConfig = DEFAULT_CONFIG,
        planner: Optional[str] = None,
        backend: Optional[str] = None,
        batch_target_rows: Optional[int] = None,
        max_batch_rows: Optional[int] = None,
        linger_ms: float = 2.0,
        worker_max_queue_rows: Optional[int] = None,
        max_worker_queue_rows: int = DEFAULT_MAX_WORKER_QUEUE_ROWS,
        default_deadline_ms: Optional[float] = None,
        latency_window: int = 4096,
        heartbeat_s: float = 0.05,
        liveness_s: float = 1.0,
        retry_jitter: float = DEFAULT_RETRY_JITTER,
        retry_jitter_seed: Optional[int] = None,
        spill_factor: float = DEFAULT_SPILL_FACTOR,
        spill_slack_rows: int = DEFAULT_SPILL_SLACK_ROWS,
        start_timeout_s: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        if liveness_s <= heartbeat_s:
            raise ValueError(
                f"liveness_s ({liveness_s}) must exceed heartbeat_s "
                f"({heartbeat_s}) or every worker looks dead"
            )
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        self.workers_total = int(workers)
        self.config = config
        self.default_deadline_ms = default_deadline_ms
        self.heartbeat_s = float(heartbeat_s)
        self.liveness_s = float(liveness_s)
        self.max_worker_queue_rows = int(max_worker_queue_rows)
        if worker_max_queue_rows is None:
            worker_max_queue_rows = 4 * self.max_worker_queue_rows
        self._planner_spec = planner
        self._backend_spec = backend

        self._router = FleetRouter(
            max_worker_queue_rows=self.max_worker_queue_rows,
            spill_factor=spill_factor,
            spill_slack_rows=spill_slack_rows,
            linger_s=float(linger_ms) / 1e3,
            retry_jitter=retry_jitter,
            retry_jitter_seed=retry_jitter_seed,
        )
        self._recorder = StatsRecorder(latency_window=latency_window)
        # The worker's service requires max_queue_rows >= its batch
        # target; with a small router bound (hence a small derived
        # worker queue) the service-side default target (up to 8192)
        # would fail that check *inside the child*.  Resolve the target
        # here and clamp it to the worker queue so every worker config
        # we ship is constructible.
        if batch_target_rows is None:
            batch_target_rows = derive_batch_target(None)
        batch_target_rows = max(
            1, min(int(batch_target_rows), int(worker_max_queue_rows))
        )
        worker_cfg = WorkerConfig(
            config=config,
            planner=planner,
            backend=backend,
            batch_target_rows=batch_target_rows,
            max_batch_rows=max_batch_rows,
            linger_ms=float(linger_ms),
            max_queue_rows=int(worker_max_queue_rows),
            latency_window=latency_window,
            heartbeat_s=float(heartbeat_s),
        )

        # Fork before any parent thread starts: a forked child must not
        # inherit a half-held lock from a running collector.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        # Spawn the shm resource tracker *before* forking so every
        # worker inherits the parent's tracker instead of starting its
        # own; a worker-private tracker would warn about (and try to
        # unlink) slab names the parent already reaped.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except (ImportError, AttributeError, OSError):
            pass  # best-effort: without it teardown is noisier, not wrong
        self._response_q = self._ctx.Queue()

        # _wakeup shares _lock's mutex (Condition(self._lock)), so
        # holding either name satisfies the guarded-by contract below.
        self._lock = _sanitizer.make_lock("SortFleet._lock")
        self._wakeup = threading.Condition(self._lock)
        self._handles: Dict[int, _WorkerHandle] = {}  # guarded-by: _wakeup, _lock
        self._pending: Dict[int, _PendingRequest] = {}  # guarded-by: _wakeup, _lock
        self._seq = 0  # guarded-by: _wakeup, _lock
        self._closed = False  # guarded-by: _wakeup, _lock
        self._stop_collector = False  # guarded-by: _wakeup, _lock
        self._failovers = 0  # guarded-by: _wakeup, _lock
        self._redispatched = 0  # guarded-by: _wakeup, _lock
        self._parent_fallbacks = 0  # guarded-by: _wakeup, _lock
        self._fallback_sorter = None  # lazy ResilientSorter (collector-only)

        for worker_id in range(self.workers_total):
            request_q = self._ctx.SimpleQueue()
            process = self._ctx.Process(
                target=worker_main,
                args=(worker_id, request_q, self._response_q, worker_cfg),
                name=f"repro-fleet-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            self._handles[worker_id] = _WorkerHandle(
                worker_id, process, request_q
            )
        self._await_ready(start_timeout_s)
        for worker_id in self._handles:
            self._router.add_worker(worker_id)

        self._collector = threading.Thread(
            target=self._collect, name="repro-fleet-collector", daemon=True
        )
        self._collector.start()

    def _await_ready(self, timeout_s: float) -> None:
        """Block until every worker posts ``("ready", id)``.

        Runs pre-collector (single-threaded), so guarded state is still
        private to the constructor; early heartbeats that interleave are
        folded in rather than dropped.
        """
        ready: set = set()
        deadline = time.monotonic() + timeout_s
        while len(ready) < self.workers_total:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._abort_start()
                raise TimeoutError(
                    f"fleet start timed out: {len(ready)} of "
                    f"{self.workers_total} workers ready after {timeout_s}s"
                )
            try:
                msg = self._response_q.get(timeout=min(remaining, 0.2))
            except queue_mod.Empty:
                with self._lock:
                    dead = [
                        h.worker_id for h in self._handles.values()
                        if h.worker_id not in ready
                        and not h.process.is_alive()
                    ]
                if dead:
                    self._abort_start()
                    raise RuntimeError(
                        f"fleet worker(s) {dead} died during startup "
                        "(see the worker traceback above)"
                    )
                continue
            with self._lock:
                if msg[0] == "ready":
                    ready.add(msg[1])
                    self._handles[msg[1]].last_hb = time.monotonic()
                elif msg[0] == "hb":
                    handle = self._handles.get(msg[1])
                    if handle is not None:
                        handle.last_hb = time.monotonic()
                        handle.last_stats = msg[3]

    def _abort_start(self) -> None:
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            if handle.process.is_alive():
                handle.process.kill()

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
        """Queue ``arrays`` for sorting on some worker; returns a Future.

        The contract is :meth:`repro.service.SortService.submit`'s —
        same shapes, same deadline/priority/tenant semantics, same typed
        errors — so anything written against the service (including
        :mod:`repro.service.traffic`'s load generators) drives a fleet
        unchanged.  One difference: results are always owned copies
        (``copy`` is accepted for signature parity and ignored), because
        every request round-trips through a per-request shared-memory
        slab rather than a shared batch buffer.

        Raises :class:`RejectedError` when no worker can admit the
        request — ``retry_after`` is the most-loaded worker's jittered
        drain estimate — and :class:`ServiceClosedError` after
        :meth:`close`.  A fleet whose workers have *all* died rejects
        with ``reason="no-workers"`` (the page-an-operator signal).
        """
        staged = np.asarray(arrays)
        single = staged.ndim == 1
        if single:
            staged = staged.reshape(1, -1)
        if staged.ndim != 2:
            raise ValueError(
                f"expected one array or a (k, n) stack, got shape "
                f"{np.asarray(arrays).shape}"
            )
        if staged.shape[0] == 0 or staged.shape[1] == 0:
            raise ValueError(
                f"arrays must be non-empty, got shape {staged.shape}"
            )
        if staged.dtype.kind not in "biuf":
            raise ValueError(
                f"arrays dtype must be numeric, got {staged.dtype!r}"
            )
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0 seconds, got {deadline}")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError(f"tenant must be a non-empty string, got {tenant!r}")
        if deadline is None and self.default_deadline_ms is not None:
            deadline = self.default_deadline_ms / 1e3

        rows, row_len = staged.shape
        lane_key = (row_len, staged.dtype.str)
        future: "Future[np.ndarray]" = Future()
        with self._wakeup:
            if self._closed:
                raise ServiceClosedError("fleet is closed")
            worker_id = self._router.route(lane_key, rows)
            if worker_id is None:
                self._recorder.record_rejected(tenant=tenant)
                alive = self._router.alive_workers()
                retry_after = self._router.retry_after(
                    self._recorder.rows_per_s()
                )
                if not alive:
                    raise RejectedError(
                        "no live workers in the fleet; retry after "
                        f"{retry_after:.3f}s",
                        retry_after=retry_after,
                        tenant=tenant,
                        reason="no-workers",
                    )
                raise RejectedError(
                    f"fleet saturated ({self._router.outstanding_rows()} "
                    f"rows outstanding over {len(alive)} workers, "
                    f"{self.max_worker_queue_rows} rows/worker bound); "
                    f"retry after {retry_after:.3f}s",
                    retry_after=retry_after,
                    tenant=tenant,
                    reason="queue-full",
                )
            req_id = self._seq
            self._seq += 1
            handle = self._handles[worker_id]
            now = time.monotonic()
            shm = shared_memory.SharedMemory(
                create=True, size=2 * staged.nbytes
            )
            record = _PendingRequest(
                req_id=req_id,
                future=future,
                worker_id=worker_id,
                shm=shm,
                rows=rows,
                row_len=row_len,
                dtype=staged.dtype,
                deadline_abs=now + deadline if deadline is not None else None,
                priority=int(priority),
                tenant=tenant,
                single=single,
                submitted_at=now,
            )
            record.input_view()[:] = staged
            self._pending[req_id] = record
            handle.dispatched += 1
            self._recorder.record_submitted(tenant=tenant, rows=rows)
        try:
            handle.request_q.put((
                "sort", req_id, shm.name, rows, row_len, staged.dtype.str,
                deadline, int(priority), tenant,
            ))
        except (OSError, ValueError):
            # The chosen worker died between routing and dispatch (its
            # queue pipe is gone).  Liveness will reap it; this request
            # fails over right now instead of waiting for that tick.
            with self._wakeup:
                self._pending.pop(req_id, None)
            self._router.record_done(worker_id, rows)
            self._dispatch_failover([record], from_worker=worker_id)
        return future

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is in flight anywhere in the fleet.
        Returns ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wakeup:
            while self._pending:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._wakeup.wait(remaining)
            return True

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work, stop the workers, reap everything.

        ``drain=True`` (default) waits for in-flight requests to finish
        first; ``drain=False`` fails them with
        :class:`ServiceClosedError`.  Idempotent.
        """
        with self._wakeup:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
            handles = list(self._handles.values())
        if already:
            return
        if drain:
            self.flush(timeout)
        dropped: List[_PendingRequest] = []
        with self._wakeup:
            if self._pending:
                dropped = list(self._pending.values())
                self._pending.clear()
            for handle in handles:
                if handle.alive:
                    try:
                        handle.request_q.put(("stop",))
                    except (OSError, ValueError):  # worker already gone
                        handle.alive = False
        for record in dropped:
            self._router.record_done(record.worker_id, record.rows)
            record.release_slab()
            if record.future.set_running_or_notify_cancel():
                record.future.set_exception(
                    ServiceClosedError("fleet closed before completion")
                )
        for handle in handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
        with self._wakeup:
            self._stop_collector = True
            for handle in handles:
                handle.alive = False
            self._wakeup.notify_all()
        self._collector.join(timeout=5.0)
        self._response_q.close()
        self._response_q.join_thread()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def worker_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._handles)

    def workers_alive(self) -> List[int]:
        """Ids of workers currently alive and routable."""
        return self._router.alive_workers()

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one worker — the chaos/failover test hook.

        The collector notices the death on its next liveness tick and
        drains the worker's in-flight requests to survivors.
        """
        with self._lock:
            handle = self._handles.get(worker_id)
        if handle is None:
            raise KeyError(f"no such worker: {worker_id}")
        handle.process.kill()

    def stats(self) -> FleetStats:
        """One consistent :class:`FleetStats` snapshot."""
        now = time.monotonic()
        router_view = self._router.snapshot()
        with self._lock:
            frontend = self._recorder.snapshot(
                queue_requests=len(self._pending),
                queue_rows=sum(r.rows for r in self._pending.values()),
                planner_engine_counts=self._merged_planner_counts_locked(),
            )
            workers: Dict[int, WorkerState] = {}
            for worker_id, handle in sorted(self._handles.items()):
                alive, out_rows, out_reqs = router_view.get(
                    worker_id, (False, 0, 0)
                )
                workers[worker_id] = WorkerState(
                    worker_id=worker_id,
                    pid=handle.process.pid,
                    alive=handle.alive and alive,
                    outstanding_rows=out_rows,
                    outstanding_requests=out_reqs,
                    dispatched=handle.dispatched,
                    completed=handle.completed,
                    failed=handle.failed,
                    redispatched=handle.redispatched,
                    heartbeat_age_s=(
                        now - handle.last_hb
                        if handle.last_hb is not None
                        else None
                    ),
                    service=dict(handle.last_stats),
                )
            return FleetStats(
                frontend=frontend,
                workers=workers,
                workers_total=self.workers_total,
                workers_alive=sum(1 for w in workers.values() if w.alive),
                failovers=self._failovers,
                redispatched=self._redispatched,
                parent_fallbacks=self._parent_fallbacks,
            )

    def _merged_planner_counts_locked(self) -> Dict[str, Dict[str, int]]:
        """Sum the per-worker planner engine counts from heartbeats."""
        merged: Dict[str, Dict[str, int]] = {}
        for handle in self._handles.values():
            counts = handle.last_stats.get("planner_engine_counts", {})
            if not isinstance(counts, dict):
                continue
            for shape, engines in counts.items():
                if not isinstance(engines, dict):
                    continue
                into = merged.setdefault(str(shape), {})
                for engine, n in engines.items():
                    into[str(engine)] = into.get(str(engine), 0) + int(n)
        return merged

    def __enter__(self) -> "SortFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- collector thread --------------------------------------------------
    def _collect(self) -> None:
        """Resolve futures, track heartbeats, detect and drain deaths."""
        tick = self.heartbeat_s
        while True:
            with self._lock:
                if self._stop_collector:
                    return
            try:
                msg = self._response_q.get(timeout=tick)
            except queue_mod.Empty:
                msg = None
            except (OSError, ValueError):
                return  # queue torn down under us: close() is reaping
            if msg is not None:
                kind = msg[0]
                if kind == "done":
                    self._complete(msg[1], msg[2])
                elif kind == "error":
                    self._fail(msg[1], msg[2], msg[3], msg[4], msg[5])
                elif kind == "hb":
                    self._note_heartbeat(msg[1], msg[3])
                elif kind == "stopped":
                    self._note_stopped(msg[1])
                # "ready" duplicates are ignored
            self._check_liveness()

    def _pop_pending(self, req_id: int, worker_id: int) -> Optional[_PendingRequest]:
        """Claim a pending record for delivery (None = already handled,
        e.g. completed by a survivor after a stale double-dispatch)."""
        with self._wakeup:
            record = self._pending.get(req_id)
            if record is None or record.worker_id != worker_id:
                return None
            del self._pending[req_id]
            self._wakeup.notify_all()
            return record

    def _complete(self, req_id: int, worker_id: int) -> None:
        record = self._pop_pending(req_id, worker_id)
        if record is None:
            return
        with self._lock:
            handle = self._handles.get(worker_id)
            if handle is not None:
                handle.completed += 1
        self._router.record_done(worker_id, record.rows)
        payload = np.array(record.output_view(), copy=True)
        record.release_slab()
        elapsed = time.monotonic() - record.submitted_at
        self._recorder.record_latency(elapsed, tenant=record.tenant)
        self._recorder.record_throughput(record.rows, elapsed)
        if record.future.set_running_or_notify_cancel():
            record.future.set_result(
                payload[0] if record.single else payload
            )

    def _fail(
        self, req_id: int, worker_id: int, kind: str, message: str, fields
    ) -> None:
        if kind == "rejected":
            # A healthy worker refusing router-admitted work means the
            # failover path overfilled it; requeue rather than surface —
            # the input slab is pristine by construction.
            if self._requeue_rejected(req_id, worker_id):
                return
        record = self._pop_pending(req_id, worker_id)
        if record is None:
            return
        with self._lock:
            handle = self._handles.get(worker_id)
            if handle is not None:
                handle.failed += 1
        self._router.record_done(worker_id, record.rows)
        record.release_slab()
        if kind == "deadline" and str(fields.get("stage", "")) == "queued":
            self._recorder.record_shed(1, tenant=record.tenant)
        elif kind == "deadline":
            self._recorder.record_deadline_missed(tenant=record.tenant)
        elif kind == "quarantined":
            self._recorder.record_failed(
                tenant=record.tenant,
                quarantined_rows=len(fields.get("rows", ())),
            )
        else:
            self._recorder.record_failed(tenant=record.tenant)
        if record.future.set_running_or_notify_cancel():
            record.future.set_exception(rebuild_error(kind, message, fields))

    def _requeue_rejected(self, req_id: int, worker_id: int) -> bool:
        """Re-dispatch a worker-side rejection; False = give up (caps)."""
        with self._wakeup:
            record = self._pending.get(req_id)
            if record is None or record.worker_id != worker_id:
                return True  # raced with failover; nothing to do here
            if record.redispatches >= MAX_REDISPATCHES:
                return False
            del self._pending[req_id]
        self._router.record_done(worker_id, record.rows)
        self._dispatch_failover([record], from_worker=worker_id)
        return True

    def _note_heartbeat(self, worker_id: int, stats: Dict[str, object]) -> None:
        with self._lock:
            handle = self._handles.get(worker_id)
            if handle is not None:
                handle.last_hb = time.monotonic()
                handle.last_stats = stats

    def _note_stopped(self, worker_id: int) -> None:
        with self._wakeup:
            handle = self._handles.get(worker_id)
            if handle is not None:
                handle.stopped = True
                handle.alive = False
            self._wakeup.notify_all()

    def _check_liveness(self) -> None:
        """Declare dead any worker whose process exited or whose
        heartbeat is older than the liveness deadline; drain each."""
        now = time.monotonic()
        suspects: List[_WorkerHandle] = []
        with self._lock:
            if self._closed:
                return  # close() owns worker teardown
            for handle in self._handles.values():
                if not handle.alive:
                    continue
                if not handle.process.is_alive():
                    suspects.append(handle)
                elif (
                    handle.last_hb is not None
                    and now - handle.last_hb > self.liveness_s
                ):
                    suspects.append(handle)
        for handle in suspects:
            self._fail_over(handle)

    def _fail_over(self, handle: _WorkerHandle) -> None:
        """Drain a dead worker: re-dispatch its in-flight requests."""
        with self._wakeup:
            if not handle.alive:
                return
            handle.alive = False
            self._failovers += 1
            victims = [
                record for record in self._pending.values()
                if record.worker_id == handle.worker_id
            ]
            for record in victims:
                del self._pending[record.req_id]
        self._router.mark_dead(handle.worker_id)
        self._router.forget_outstanding(handle.worker_id)
        # A stalled-but-running process (liveness expiry) is killed so it
        # cannot later double-complete a request a survivor re-sorts.
        if handle.process.is_alive():
            handle.process.kill()
        if victims:
            self._dispatch_failover(victims, from_worker=handle.worker_id)

    def _dispatch_failover(
        self, records: List[_PendingRequest], *, from_worker: int
    ) -> None:
        """Land orphaned requests on survivors (or sort them here)."""
        now = time.monotonic()
        for record in records:
            if record.deadline_abs is not None and now >= record.deadline_abs:
                record.release_slab()
                self._recorder.record_shed(1, tenant=record.tenant)
                if record.future.set_running_or_notify_cancel():
                    record.future.set_exception(DeadlineExceededError(
                        "deadline passed while failing over from worker "
                        f"{from_worker}",
                        waited=now - record.submitted_at,
                        stage="queued",
                    ))
                continue
            lane_key = (record.row_len, record.dtype.str)
            target = self._router.route_failover(lane_key, record.rows)
            if target is None:
                self._parent_sort(record)
                continue
            remaining = (
                record.deadline_abs - now
                if record.deadline_abs is not None
                else None
            )
            with self._wakeup:
                handle = self._handles.get(target)
                if handle is None:
                    put_failed = True
                else:
                    record.worker_id = target
                    record.redispatches += 1
                    self._redispatched += 1
                    self._pending[record.req_id] = record
                    handle.dispatched += 1
                    victim_handle = self._handles.get(from_worker)
                    if victim_handle is not None:
                        victim_handle.redispatched += 1
                    try:
                        handle.request_q.put((
                            "sort", record.req_id, record.shm.name,
                            record.rows, record.row_len, record.dtype.str,
                            remaining, record.priority, record.tenant,
                        ))
                        put_failed = False
                    except (OSError, ValueError):  # target died under us
                        del self._pending[record.req_id]
                        put_failed = True
            if put_failed:
                self._router.record_done(target, record.rows)
                self._parent_sort(record)

    def _parent_sort(self, record: _PendingRequest) -> None:
        """Last resort — no surviving worker: sort in the parent through
        the resilience layer so accepted work is still never dropped."""
        with self._lock:
            self._parent_fallbacks += 1
        if self._fallback_sorter is None:
            from ..resilience import ResilientSorter

            self._fallback_sorter = ResilientSorter(self.config, sleep=None)
        batch = np.array(record.input_view(), copy=True)
        record.release_slab()
        try:
            result = self._fallback_sorter.sort(batch)
            payload = np.array(result.batch, copy=True)
        except Exception as exc:
            self._recorder.record_failed(tenant=record.tenant)
            if record.future.set_running_or_notify_cancel():
                record.future.set_exception(
                    RuntimeError(f"parent fallback sort failed: {exc}")
                )
            return
        elapsed = time.monotonic() - record.submitted_at
        self._recorder.record_latency(elapsed, tenant=record.tenant)
        self._recorder.record_throughput(record.rows, elapsed)
        if record.future.set_running_or_notify_cancel():
            record.future.set_result(
                payload[0] if record.single else payload
            )
