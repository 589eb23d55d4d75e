"""`SortFleet`: the multi-process serving tier.

One :class:`~repro.service.SortService` tops out at one Python process —
one GIL, one planner, one arena.  :class:`SortFleet` keeps the service's
entire caller contract (``submit(arrays, deadline=, priority=, tenant=)
-> Future``, typed errors, ``flush``/``close``/context manager) and puts
**N worker processes** behind it, each owning a planner + ``ScratchArena``
sorter, the way the paper's multi-GPU relatives partition arrays across
devices.

Request path::

    submit ──> FleetRouter (lane affinity + least-outstanding-rows)
           ──> the chosen worker's parent-side SortService: queue,
               linger, deadlines, priority/WFQ, one coalesced batch
           ──> its _WorkerBackend: batch staged into a pooled shm slab
               [input | output], one descriptor on the worker's pipe
           ──> worker process: sort the input half, write the output
               half, one reply on the same pipe
           ──> collector thread (waits on every pipe and process
               sentinel) resolves the batch; the service demuxes the
               output half to each caller's Future

Batching happens once, in the parent, by the service's own class; a
worker is a sort loop that exchanges one descriptor and one reply per
batch.

Design points, each load-bearing:

* **Lane-affinity routing.**  Requests are bucketed by the same
  ``(row_len, dtype)`` lane key the batcher uses, and a lane sticks to
  one worker while load allows — so a worker's service sees full lanes
  and its planner keeps hitting one shape class.  Load wins when they
  conflict (least-outstanding-rows spill).
* **Backpressure.**  The router is the fleet's only admission bound
  (the parent-side services never reject).  When no worker can admit a
  request, ``submit`` raises :class:`~repro.service.errors.RejectedError`
  whose ``retry_after`` is the **most-loaded** worker's drain estimate,
  stretched by the router's seeded jitter — deterministic under test,
  dispersed in production.
* **Pooled two-region slabs.**  Each worker has its own pool of
  ``[input | output]`` shared-memory slabs, keyed by power-of-two byte
  class.  A batch takes a free slab of its class from its worker's pool
  (creating one only when the pool is empty); the service demuxes from
  the output half, and the slab goes back to the pool when that
  service dispatches its next batch.  A pool therefore holds about one
  slab per byte class its worker has seen, and the worker maps each
  slab once, not once per batch.
* **One pipe per worker.**  Each worker talks to the parent over its
  own duplex pipe and nothing else, so no lock, queue or feeder thread
  is shared between workers: a worker killed mid-send stalls only its
  own pipe.  Sends on a pipe are serialized by one lock per process
  (the handle's in the parent, the worker's own in the child).
* **Failover per batch, from the pristine input half.**  The worker
  never writes the input half of a slab, so the parent always holds a
  pristine copy of the batch in flight.  A worker that dies (EOF on its
  pipe, its process sentinel, *or* heartbeat silence past the liveness
  deadline — the one signal a SIGSTOPped process gives) leaves routing;
  its in-flight batch, and every batch its service dispatches later,
  is re-staged into a slab of a survivor — never dropped — and if
  **no** worker survives, the parent itself sorts it through the
  resilience layer (:class:`~repro.resilience.ResilientSorter`).  A
  dead worker's slabs are **retired** — unlinked, never reused — so a
  killed-but-not-yet-reaped process cannot write into a later batch's
  output half.  ``close()`` unlinks every slab only after the workers
  are joined.
* **Per-worker planners.**  Each worker resolves its own ``planner``
  spec.  ``"auto"`` is a dtype rule (:class:`~repro.planner.ExecutionPlanner`)
  that reads no file, so workers share nothing and plan from their first
  batch.

Like the service, the fleet is clock-injectable only where it matters
for tests (the router is fully clock-free); process liveness necessarily
reads the real monotonic clock.
"""

from __future__ import annotations

import functools
import mmap
import multiprocessing
import sys
import threading
import time
from concurrent.futures import Future
from multiprocessing import connection, shared_memory
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..statan import runtime as _sanitizer
from ..service.errors import (
    DeadlineExceededError,
    QuarantinedError,
    RejectedError,
    ServiceClosedError,
)
from ..service.service import (
    DEFAULT_RETRY_JITTER,
    SortService,
    validate_request,
)
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


#: One worker's free slabs, keyed by byte class.
_SlabPool = Dict[int, List[shared_memory.SharedMemory]]


def _slab_class(nbytes: int) -> int:
    """Byte size of the pooled slab that holds ``nbytes``: the next power
    of two, at least one page (so the segment size is exactly the class
    on every platform and ``SharedMemory.size`` is a valid pool key)."""
    return max(mmap.PAGESIZE, 1 << (int(nbytes) - 1).bit_length())


def _slab_half(
    shm: shared_memory.SharedMemory, shape, dtype: np.dtype, half: int
) -> np.ndarray:
    """The input (``half=0``) or output (``half=1``) region of a slab."""
    offset = half * shape[0] * shape[1] * dtype.itemsize
    return np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)


def _unlink_slab(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:
        # A service still holds a result view into it (its isolation
        # path calls sort() again before dropping the last result); the
        # mapping goes with that view, the name goes now.
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # already reaped
        pass


class _Batch:
    """One batch staged on a worker: its slab and the reply the
    collector resolves (``None`` when the worker died first)."""

    __slots__ = ("batch_id", "worker_id", "slab", "reply")

    def __init__(self, batch_id: int, worker_id: int, slab) -> None:
        self.batch_id = batch_id
        self.worker_id = worker_id
        self.slab = slab
        self.reply: "Future[Optional[tuple]]" = Future()


class _BatchResult(NamedTuple):
    """What :meth:`_WorkerBackend.sort` returns: the service's sorter
    result contract (``batch``, plus the resilient backend's quarantine)."""

    batch: np.ndarray
    quarantined: List[int]
    quarantine_reasons: Dict[int, str]


class _WorkerBackend:
    """The sorter behind one worker's parent-side ``SortService``.

    ``sort(batch)`` runs the batch on that worker — or, once it is dead,
    on a survivor or in the parent (:meth:`SortFleet._sort_batch`).  The
    returned ``batch`` is the slab's output half, valid until the next
    ``sort`` call, like a sorter arena's result.
    """

    def __init__(self, fleet: "SortFleet", worker_id: int) -> None:
        self._fleet = fleet
        self._worker_id = worker_id

    def sort(self, batch: np.ndarray) -> _BatchResult:
        return self._fleet._sort_batch(self._worker_id, batch)


@_sanitizer.sanitize_guarded
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process.

    ``conn`` is the parent's end of the worker's duplex pipe.  Every
    send on it holds ``send_lock`` (the backends and ``close`` send);
    the collector alone receives, without the lock, since a pipe's two
    directions are independent.  The other mutable fields are guarded
    by the owning fleet's lock.
    """

    def __init__(self, worker_id, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.send_lock = _sanitizer.make_lock(
            f"SortFleet.worker{worker_id}.send_lock"
        )
        self.conn = conn  # guarded-by: send_lock
        self.alive = True
        self.last_hb: Optional[float] = None
        self.redispatched = 0

    def send(self, msg: tuple) -> None:
        """Pickle ``msg`` onto the worker's pipe; raises ``OSError`` or
        ``ValueError`` once the worker (or the pipe) is gone."""
        with self.send_lock:
            self.conn.send(msg)

    def close(self) -> None:
        with self.send_lock:
            self.conn.close()


@_sanitizer.sanitize_guarded
class SortFleet:
    """Sharded, failover-capable front-end over N sort worker processes.

    Parameters
    ----------
    workers:
        Worker processes to fork (default :data:`DEFAULT_WORKERS`).
    config / planner / backend:
        Build each worker's sorter, as :class:`~repro.service.SortService`
        builds its own (``planner`` as a *spec* string — each worker
        resolves its own instance).
    batch_target_rows / max_batch_rows / linger_ms:
        Batching knobs of each worker's parent-side service.
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

        self._router = FleetRouter(
            max_worker_queue_rows=self.max_worker_queue_rows,
            spill_factor=spill_factor,
            spill_slack_rows=spill_slack_rows,
            linger_s=float(linger_ms) / 1e3,
            retry_jitter=retry_jitter,
            retry_jitter_seed=retry_jitter_seed,
        )
        self._recorder = StatsRecorder(latency_window=latency_window)
        worker_cfg = WorkerConfig(
            config=config,
            planner=planner,
            backend=backend,
            heartbeat_s=float(heartbeat_s),
        )

        # Fork before any parent thread starts: a forked child must not
        # inherit a half-held lock from a running collector or service.
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

        # _wakeup shares _lock's mutex (Condition(self._lock)), so
        # holding either name satisfies the guarded-by contract below.
        self._lock = _sanitizer.make_lock("SortFleet._lock")
        self._wakeup = threading.Condition(self._lock)
        self._handles: Dict[int, _WorkerHandle] = {}  # guarded-by: _wakeup, _lock
        # Batches sent to a worker and not yet answered, by batch id.
        self._inflight: Dict[int, _Batch] = {}  # guarded-by: _wakeup, _lock
        # Per service: the batch whose output half it may still be
        # demuxing; its slab goes back at that service's next sort.
        self._held: Dict[int, _Batch] = {}  # guarded-by: _wakeup, _lock
        self._seq = 0  # guarded-by: _wakeup, _lock
        self._closed = False  # guarded-by: _wakeup, _lock
        self._stop_collector = False  # guarded-by: _wakeup, _lock
        self._failovers = 0  # guarded-by: _wakeup, _lock
        self._redispatched = 0  # guarded-by: _wakeup, _lock
        self._parent_fallbacks = 0  # guarded-by: _wakeup, _lock
        # Per-worker slab pools: worker id -> byte class -> free slabs.
        # A worker's entry is dropped when it dies or the fleet closes;
        # a slab released with no pool to return to is unlinked.
        self._free_slabs: Dict[int, _SlabPool] = {}  # guarded-by: _wakeup, _lock
        self._slabs_created = 0  # guarded-by: _wakeup, _lock
        self._slabs_retired = 0  # guarded-by: _wakeup, _lock
        self._slab_pool_bytes = 0  # guarded-by: _wakeup, _lock

        for worker_id in range(self.workers_total):
            conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=worker_main,
                args=(worker_id, child_conn, worker_cfg),
                name=f"repro-fleet-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            # Drop the parent's copy of the child end before the next
            # fork, so no sibling inherits it: the worker is then its
            # only holder, and its death reads as EOF on ``conn``.
            child_conn.close()
            self._handles[worker_id] = _WorkerHandle(worker_id, process, conn)
            self._free_slabs[worker_id] = {}
        self._await_ready(start_timeout_s)
        for worker_id in self._handles:
            self._router.add_worker(worker_id)

        # One service per worker, here in the parent.  The router is the
        # admission bound, so a service must never reject what it admitted.
        self._services = {
            worker_id: SortService(
                backend=_WorkerBackend(self, worker_id),
                batch_target_rows=batch_target_rows,
                max_batch_rows=max_batch_rows,
                linger_ms=linger_ms,
                max_queue_rows=sys.maxsize,
                latency_window=latency_window,
            )
            for worker_id in range(self.workers_total)
        }
        self._collector = threading.Thread(
            target=self._collect, name="repro-fleet-collector", daemon=True
        )
        self._collector.start()

    def _await_ready(self, timeout_s: float) -> None:
        """Block until every worker posts ``("ready", id)``, its first
        message; EOF before it means the worker died during startup.

        Runs pre-collector (single-threaded), so the handles are still
        private to the constructor.
        """
        with self._lock:
            waiting = {h.conn: h for h in self._handles.values()}
        deadline = time.monotonic() + timeout_s
        while waiting:
            ready = connection.wait(
                list(waiting), max(0.0, deadline - time.monotonic())
            )
            if not ready:
                self._abort_start()
                raise TimeoutError(
                    f"fleet start timed out: "
                    f"{self.workers_total - len(waiting)} of "
                    f"{self.workers_total} workers ready after {timeout_s}s"
                )
            for conn in ready:
                handle = waiting.pop(conn)
                try:
                    conn.recv()
                except (EOFError, OSError):
                    self._abort_start()
                    raise RuntimeError(
                        f"fleet worker {handle.worker_id} died during "
                        "startup (see the worker traceback above)"
                    ) from None
                handle.last_hb = time.monotonic()

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
        errors, and the same rule that the submitted storage must not be
        mutated until the future resolves (it is staged at dispatch) —
        so anything written against the service (including
        :mod:`repro.service.traffic`'s load generators) drives a fleet
        unchanged.  One difference: results are always owned copies
        (``copy`` is accepted for signature parity and ignored), because
        every batch round-trips through a shared-memory slab that goes
        back to its worker's pool at the next dispatch.

        Raises :class:`RejectedError` when no worker can admit the
        request — ``retry_after`` is the most-loaded worker's jittered
        drain estimate — and :class:`ServiceClosedError` after
        :meth:`close`.  A fleet whose workers have *all* died rejects
        with ``reason="no-workers"`` (the page-an-operator signal).
        """
        staged, single, deadline = validate_request(
            arrays, deadline, tenant, self.default_deadline_ms
        )

        rows, row_len = staged.shape
        lane_key = (row_len, staged.dtype.str)
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
            self._recorder.record_submitted(tenant=tenant, rows=rows)
            inner = self._services[worker_id].submit(
                staged, deadline=deadline, priority=priority, tenant=tenant
            )
        future: "Future[np.ndarray]" = Future()
        inner.add_done_callback(functools.partial(
            self._resolve, future, worker_id, rows, tenant, single,
            time.monotonic(),
        ))
        return future

    def _resolve(
        self, future, worker_id, rows, tenant, single, submitted_at, inner
    ) -> None:
        """Account for a request its worker's service resolved, then hand
        the outcome to the caller's future (counters first, so a caller
        that wakes on it reads them)."""
        self._router.record_done(worker_id, rows)
        exc = inner.exception()
        if exc is None:
            elapsed = time.monotonic() - submitted_at
            self._recorder.record_latency(elapsed, tenant=tenant)
            self._recorder.record_throughput(rows, elapsed)
        elif isinstance(exc, DeadlineExceededError) and exc.stage == "queued":
            self._recorder.record_shed(1, tenant=tenant)
        elif isinstance(exc, DeadlineExceededError):
            self._recorder.record_deadline_missed(tenant=tenant)
        elif isinstance(exc, QuarantinedError):
            self._recorder.record_failed(
                tenant=tenant, quarantined_rows=len(exc.rows)
            )
        else:
            self._recorder.record_failed(tenant=tenant)
        if not future.set_running_or_notify_cancel():
            return
        if exc is not None:
            future.set_exception(exc)
        else:
            payload = inner.result()
            future.set_result(payload[0] if single else payload)

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or in flight anywhere in the
        fleet.  Returns ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for service in self._services.values():
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            if not service.flush(remaining):
                return False
        return True

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work, stop the workers, reap everything.

        ``drain=True`` (default) sorts and delivers everything already
        accepted first; ``drain=False`` fails queued requests with
        :class:`ServiceClosedError`.  Idempotent.
        """
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
        # A worker that dies while its service drains still fails over.
        for service in self._services.values():
            service.close(drain=drain, timeout=timeout)
        with self._wakeup:
            handles = list(self._handles.values())
            live = [handle for handle in handles if handle.alive]
            for handle in handles:
                handle.alive = False
                self._router.mark_dead(handle.worker_id)
            # Only a service that timed out above still waits on a
            # batch: with every worker gone, it sorts it in the parent.
            stranded = list(self._inflight.values())
            self._inflight.clear()
        for batch in stranded:
            batch.reply.set_result(None)
        for handle in live:
            try:
                handle.send(("stop",))
            except (OSError, ValueError):  # worker already gone
                pass
        for handle in handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
        with self._wakeup:
            self._stop_collector = True
        self._collector.join(timeout=5.0)
        for handle in handles:
            handle.close()
        # Only now, with every worker joined, can no process still be
        # reading or writing a slab: unlink the pools and held slabs.
        with self._wakeup:
            doomed = [
                slab for pool in self._free_slabs.values()
                for free in pool.values() for slab in free
            ]
            doomed += [batch.slab for batch in self._held.values()]
            self._free_slabs.clear()
            self._held.clear()
            self._slab_pool_bytes -= sum(slab.size for slab in doomed)
        for slab in doomed:
            _unlink_slab(slab)

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

        The collector sees EOF on the worker's pipe (or its process
        sentinel) and fails its batches over to survivors.
        """
        with self._lock:
            handle = self._handles.get(worker_id)
        if handle is None:
            raise KeyError(f"no such worker: {worker_id}")
        handle.process.kill()

    def stats(self) -> FleetStats:
        """One :class:`FleetStats` snapshot.  Each worker's ``service``
        is its parent-side service's own snapshot, exact at call time."""
        now = time.monotonic()
        router_view = self._router.snapshot()
        services = {
            worker_id: service.stats()
            for worker_id, service in self._services.items()
        }
        frontend = self._recorder.snapshot(
            queue_requests=sum(view[2] for view in router_view.values()),
            queue_rows=sum(view[1] for view in router_view.values()),
        )
        with self._lock:
            workers: Dict[int, WorkerState] = {}
            for worker_id, handle in sorted(self._handles.items()):
                alive, out_rows, out_reqs = router_view.get(
                    worker_id, (False, 0, 0)
                )
                service = services[worker_id]
                workers[worker_id] = WorkerState(
                    worker_id=worker_id,
                    pid=handle.process.pid,
                    alive=handle.alive and alive,
                    outstanding_rows=out_rows,
                    outstanding_requests=out_reqs,
                    dispatched=service.submitted,
                    completed=service.completed,
                    failed=(
                        service.failed + service.shed + service.deadline_missed
                    ),
                    redispatched=handle.redispatched,
                    heartbeat_age_s=(
                        now - handle.last_hb
                        if handle.last_hb is not None
                        else None
                    ),
                    service=service.as_dict(),
                )
            return FleetStats(
                frontend=frontend,
                workers=workers,
                workers_total=self.workers_total,
                workers_alive=sum(1 for w in workers.values() if w.alive),
                failovers=self._failovers,
                redispatched=self._redispatched,
                parent_fallbacks=self._parent_fallbacks,
                slabs_created=self._slabs_created,
                slabs_retired=self._slabs_retired,
                slab_pool_bytes=self._slab_pool_bytes,
            )

    def __enter__(self) -> "SortFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- batches (each service's dispatch thread) ----------------------------
    def _sort_batch(self, worker_id: int, batch: np.ndarray) -> _BatchResult:
        """:meth:`_WorkerBackend.sort` for ``worker_id``'s service.

        Runs ``batch`` on ``worker_id``.  If that worker is dead, or dies
        with the batch in flight, the batch is re-staged — from the
        pristine input half once it has one — onto the router's
        failover survivor, and sorted in the parent when none is left.
        """
        self._release_held(worker_id)
        shape, dtype = batch.shape, batch.dtype
        lane_key = (shape[1], dtype.str)
        target: Optional[int] = worker_id
        source: Optional[np.ndarray] = batch
        lost: Optional[_Batch] = None  # the attempt whose worker died
        try:
            while target is not None:
                staged = self._stage(target, source)
                reply = None
                if staged is not None:
                    # The pristine input now lives in the new slab.
                    source = None
                    if lost is not None:
                        self._release_slab(lost.slab, lost.worker_id)
                        lost = None
                    reply = staged.reply.result()
                if target != worker_id:  # a failover target: done with it
                    self._router.record_done(target, shape[0])
                if reply is not None:
                    return self._finish(worker_id, staged, reply, shape, dtype)
                if staged is not None:
                    lost = staged
                    source = _slab_half(lost.slab, shape, dtype, 0)
                # A dead worker has left routing, so this is a survivor.
                target = self._router.route_failover(lane_key, shape[0])
            from ..resilience import ResilientSorter

            return ResilientSorter(self.config, sleep=None).sort(source)
        finally:
            source = None
            if lost is not None:
                self._release_slab(lost.slab, lost.worker_id)

    def _stage(self, target: int, source: np.ndarray) -> Optional[_Batch]:
        """Copy ``source`` into a slab from ``target``'s pool and send its
        descriptor; ``None`` when ``target`` is already dead.  A worker
        that dies after this point resolves the reply with ``None``."""
        with self._wakeup:
            handle = self._handles[target]
            if not handle.alive:
                return None
            staged = _Batch(
                self._seq, target,
                self._take_slab_locked(target, 2 * source.nbytes),
            )
            self._seq += 1
            self._inflight[staged.batch_id] = staged
        np.copyto(
            _slab_half(staged.slab, source.shape, source.dtype, 0), source
        )
        try:
            handle.send((
                "sort", staged.batch_id, staged.slab.name, source.shape[0],
                source.shape[1], source.dtype.str,
            ))
        except (OSError, ValueError):
            pass  # the worker is gone: its failover resolves the reply
        return staged

    def _finish(
        self, worker_id: int, staged: _Batch, reply: tuple, shape, dtype
    ) -> _BatchResult:
        """Turn a worker's reply into the service's sort result; the slab
        stays held for the service's demux until its next sort."""
        if reply[0] == "error":
            self._release_slab(staged.slab, staged.worker_id)
            raise rebuild_error(*reply[2:])
        with self._wakeup:
            self._held[worker_id] = staged
        return _BatchResult(
            _slab_half(staged.slab, shape, dtype, 1), reply[2], reply[3]
        )

    def _release_held(self, worker_id: int) -> None:
        with self._wakeup:
            held = self._held.pop(worker_id, None)
        if held is not None:
            self._release_slab(held.slab, held.worker_id)

    # -- slab pools ----------------------------------------------------------
    def _take_slab_locked(
        self, worker_id: int, nbytes: int
    ) -> shared_memory.SharedMemory:
        """A free slab of ``nbytes``' class from ``worker_id``'s pool; a
        new one only when that free list is empty."""
        size = _slab_class(nbytes)
        free = self._free_slabs.get(worker_id, {}).get(size)
        if free:
            return free.pop()
        shm = shared_memory.SharedMemory(create=True, size=size)
        self._slabs_created += 1
        self._slab_pool_bytes += shm.size
        return shm

    def _release_slab(
        self, shm: shared_memory.SharedMemory, worker_id: int
    ) -> None:
        """Return a slab to ``worker_id``'s pool, or unlink it when that
        pool is gone (the worker died, or the fleet closed): a dead
        worker's slab is never handed out again."""
        with self._wakeup:
            pool = self._free_slabs.get(worker_id)
            if pool is not None:
                pool.setdefault(shm.size, []).append(shm)
                return
            self._slab_pool_bytes -= shm.size
        _unlink_slab(shm)

    # -- collector thread --------------------------------------------------
    def _collect(self) -> None:
        """Resolve batch replies, track heartbeats, detect deaths.

        Waits on every live worker's pipe and process sentinel at once.
        EOF or an exited process fails the worker over immediately;
        heartbeat silence (a stalled process) after ``liveness_s``.
        """
        while True:
            with self._lock:
                if self._stop_collector:
                    return
                live = [h for h in self._handles.values() if h.alive]
            owner: Dict[object, _WorkerHandle] = {}
            for handle in live:
                owner[handle.conn] = handle
                owner[handle.process.sentinel] = handle
            ready = connection.wait(list(owner), timeout=self.heartbeat_s)
            for handle in {owner[obj] for obj in ready}:
                # Drain the pipe before acting on an exit: replies the
                # worker sent before it died are still good.
                if (
                    not self._receive(handle)
                    or handle.process.sentinel in ready
                ):
                    self._fail_over(handle)
            self._check_liveness()

    def _receive(self, handle: _WorkerHandle) -> bool:
        """Act on every message waiting on ``handle``'s pipe; False at
        EOF (the worker is gone)."""
        while True:
            try:
                if not handle.conn.poll():
                    return True
                msg = handle.conn.recv()
            except (EOFError, OSError):
                return False
            with self._wakeup:
                if msg[0] == "hb":
                    handle.last_hb = time.monotonic()
                    continue
                # "done" or "error": the one reply to a batch.
                batch = self._inflight.pop(msg[1], None)
            if batch is not None:
                batch.reply.set_result(msg)

    def _check_liveness(self) -> None:
        """Declare dead any worker whose heartbeat is older than the
        liveness deadline; fail each over."""
        now = time.monotonic()
        with self._lock:
            suspects = [
                handle for handle in self._handles.values()
                if handle.alive
                and handle.last_hb is not None
                and now - handle.last_hb > self.liveness_s
            ]
        for handle in suspects:
            self._fail_over(handle)

    def _fail_over(self, handle: _WorkerHandle) -> None:
        """Take a dead worker out of routing, retire its slabs, and hand
        its in-flight batches back to their services' backends, which
        re-stage them on survivors.

        The requests the worker held — in flight or still queued in its
        service — count as ``redispatched`` while a survivor remains,
        else as ``parent_fallbacks``.
        """
        worker_id = handle.worker_id
        with self._wakeup:
            if not handle.alive:
                return
            handle.alive = False
            self._failovers += 1
            orphans = [
                batch for batch in self._inflight.values()
                if batch.worker_id == worker_id
            ]
            for batch in orphans:
                del self._inflight[batch.batch_id]
            pool = self._free_slabs.pop(worker_id, {})
            idle = [slab for free in pool.values() for slab in free]
            held = sum(
                1 for batch in self._held.values()
                if batch.worker_id == worker_id
            )
            # Idle slabs go now; orphaned and held ones when their
            # backend releases them (no pool: unlinked).
            self._slabs_retired += len(idle) + len(orphans) + held
            self._slab_pool_bytes -= sum(slab.size for slab in idle)
            moved = self._router.snapshot()[worker_id][2]
            self._router.mark_dead(worker_id)
            self._router.forget_outstanding(worker_id)
            if self._router.alive_workers():
                handle.redispatched += moved
                self._redispatched += moved
            else:
                self._parent_fallbacks += moved
        # A stalled-but-running process (liveness expiry) is killed so it
        # cannot later write an output half a survivor now owns.
        if handle.process.is_alive():
            handle.process.kill()
        for slab in idle:
            _unlink_slab(slab)
        for batch in orphans:
            batch.reply.set_result(None)
