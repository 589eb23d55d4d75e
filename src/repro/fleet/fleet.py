"""`SortFleet`: the multi-process serving tier.

One :class:`~repro.service.SortService` tops out at one Python process —
one GIL, one planner, one arena.  :class:`SortFleet` keeps the service's
entire caller contract (``submit(arrays, deadline=, priority=, tenant=)
-> Future``, typed errors, ``flush``/``close``/context manager) and puts
**N worker processes** behind it, each owning a planner + ``ScratchArena``
sorter, the way the paper's multi-GPU relatives partition arrays across
devices.

Request path — one parent thread, the worker's service thread, carries
a batch end to end::

    submit ──> validate once; FleetRouter (lane affinity +
               least-outstanding-rows) picks a worker; the caller gets
               that worker's parent-side SortService's own Future
           ──> the service queues, lingers and sheds, then gathers one
               batch straight into the input half of a pooled shm slab
               [input | output], sends one descriptor on its worker's
               pipe and waits on that pipe and the process sentinel
           ──> worker process: copy the input half to the output half,
               sort it there in place, one reply on the same pipe
           ──> the service demuxes the output half to each Future

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
  stretched by the router's seeded jitter.  Front-end stats are the
  services' recorders plus the router's rejections, summed at snapshot
  time, so each request is recorded once.
* **Pooled two-region slabs.**  Both halves sit at the front of any
  slab, so a batch takes the smallest free slab of its worker's pool
  that fits; only when none does is a new one made, and the free slabs
  it outgrew are unlinked (the worker unmaps them at its next
  descriptor).  A slab goes back when its service dispatches its next
  batch: a pool converges to the slab in flight, the one held for
  demux, and a spare.
* **One pipe per worker, no heartbeat on it.**  A descriptor out and
  its reply back are one exchange under the worker handle's lock
  (another service's thread takes it only to fail a batch over).  Each
  worker bumps its slot of a shared heartbeat counter array instead;
  a watchdog thread, with no per-batch work, reads the counters and
  waits on the process sentinels.
* **Failover per batch, from the pristine input half.**  The worker
  never writes the input half, so the parent always holds a pristine
  copy of the batch in flight.  A worker that dies (EOF or its process
  sentinel, seen by the thread waiting on it or by the watchdog, *or*
  a heartbeat counter stalled past the liveness deadline — the one
  signal a SIGSTOPped process gives) leaves routing; its in-flight
  batch, and every batch its service dispatches later, is re-staged
  onto a survivor — never dropped — or, with **no** survivor, sorted in
  the parent by :class:`~repro.resilience.ResilientSorter`.  A dead
  worker's slabs are **retired** (unlinked, never reused), so a
  not-yet-reaped process cannot write a later batch's output half;
  ``close()`` unlinks every slab after the workers are joined.
* **Per-worker planners.**  Each worker resolves its own ``planner``
  spec.  ``"auto"`` is a dtype rule (:class:`~repro.planner.ExecutionPlanner`)
  that reads no file, so workers share nothing and plan from their first
  batch.

Like the service, the fleet is clock-injectable only where it matters
for tests (the router is fully clock-free); process liveness necessarily
reads the real monotonic clock.
"""

from __future__ import annotations

import mmap
import multiprocessing
import selectors
import sys
import threading
import time
from concurrent.futures import Future
from multiprocessing import connection, shared_memory
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..statan import runtime as _sanitizer
from ..service.errors import RejectedError, ServiceClosedError
from ..service.service import (
    DEFAULT_RETRY_JITTER,
    SortService,
    validate_request,
)
from ..service.stats import StatsRecorder, combined_snapshot
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


#: One worker's free slabs, keyed by slab size.
_SlabPool = Dict[int, List[shared_memory.SharedMemory]]


def _slab_class(nbytes: int) -> int:
    """Byte size of a new slab that holds ``nbytes``: the next power of
    two, at least one page (so the segment size is exactly the class on
    every platform and ``SharedMemory.size`` is a valid pool key)."""
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


class _Batch(NamedTuple):
    """A slab taken from ``worker_id``'s pool to carry one batch."""

    worker_id: int
    slab: shared_memory.SharedMemory


def _pristine(batch: np.ndarray, staged: Optional[_Batch]) -> np.ndarray:
    """The unsorted batch: ``batch`` itself until it sits in a slab, then
    that slab's input half (which no worker writes)."""
    if staged is None:
        return batch
    return _slab_half(staged.slab, batch.shape, batch.dtype, 0)


class _BatchResult(NamedTuple):
    """What :meth:`_WorkerBackend.sort` returns: the service's sorter
    result contract (``batch``, plus the resilient backend's quarantine)."""

    batch: np.ndarray
    quarantined: List[int]
    quarantine_reasons: Dict[int, str]


class _WorkerBackend:
    """The sorter behind one worker's parent-side ``SortService``:
    ``stage`` hands the service a slab's input half to gather its next
    batch into, and ``sort`` runs the batch (:meth:`SortFleet._sort_batch`)
    and returns the slab's output half, valid until the next ``sort``."""

    def __init__(self, fleet: "SortFleet", worker_id: int) -> None:
        self._fleet = fleet
        self._worker_id = worker_id

    def stage(self, shape: Tuple[int, int], dtype: np.dtype) -> np.ndarray:
        return self._fleet._stage(self._worker_id, shape, np.dtype(dtype))

    def sort(self, batch: np.ndarray, *, inplace: bool = False) -> _BatchResult:
        # ``inplace`` changes nothing here: the worker writes only the
        # output half, so ``batch`` is never modified either way.
        return self._fleet._sort_batch(self._worker_id, batch)


@_sanitizer.sanitize_guarded
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process.

    ``conn`` is the parent's end of the worker's duplex pipe; a
    descriptor out and its reply back are one exchange under ``lock``.
    The other mutable fields are guarded by the owning fleet's lock:
    ``inflight`` is the slab in that exchange, ``unmap`` the pruned
    slabs the next descriptor names, and ``beat``/``beat_at`` the
    heartbeat count the watchdog last read and when it last moved.
    """

    def __init__(self, worker_id, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.lock = _sanitizer.make_lock(f"SortFleet.worker{worker_id}.lock")
        self.conn = conn  # guarded-by: lock
        # Pipe and sentinel registered once, so a reply costs one poll;
        # poll keeps no descriptor of its own for later forks to inherit.
        self.selector = getattr(  # guarded-by: lock
            selectors, "PollSelector", selectors.DefaultSelector
        )()
        self.selector.register(conn, selectors.EVENT_READ)
        self.selector.register(process.sentinel, selectors.EVENT_READ)
        self.alive = True
        self.inflight: Optional[shared_memory.SharedMemory] = None
        self.unmap: List[str] = []
        self.beat = 0
        self.beat_at: Optional[float] = None
        self.redispatched = 0

    def exchange_locked(self, msg: tuple) -> Optional[tuple]:
        """Send ``msg`` and return the worker's reply; ``None`` when it is
        gone first.  The pipe is read before an exit is believed, so a
        reply sent just before the death still counts."""
        try:
            self.conn.send(msg)
            ready = [key.fileobj for key, _ in self.selector.select()]
            if self.conn in ready or self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError, ValueError):
            pass  # the worker (or the pipe) is gone
        return None

    def stop_locked(self) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):  # worker already gone
            pass

    def close(self) -> None:
        with self.lock:
            self.selector.close()
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
        # The router's rejections: every other request is recorded once,
        # by the service it was routed to.
        self._rejections = StatsRecorder()
        worker_cfg = WorkerConfig(
            config=config,
            planner=planner,
            backend=backend,
            heartbeat_s=float(heartbeat_s),
        )

        # Fork before any parent thread starts: a forked child must not
        # inherit a half-held lock from a running service or watchdog.
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
        # One heartbeat counter per worker, shared before fork; each
        # worker's heartbeat thread is its slot's only writer.
        self._beats = self._ctx.RawArray("Q", self.workers_total)  # guarded-by: _wakeup, _lock
        # Per service: the slab its next batch was gathered into, and
        # that slab's input half as handed out by stage().
        self._staged: Dict[int, Tuple[_Batch, np.ndarray]] = {}  # guarded-by: _wakeup, _lock
        # Per service: the batch whose output half it may still be
        # demuxing; its slab goes back at that service's next sort.
        self._held: Dict[int, _Batch] = {}  # guarded-by: _wakeup, _lock
        self._closed = False  # guarded-by: _wakeup, _lock
        self._stop_watchdog = False  # guarded-by: _wakeup, _lock
        self._failovers = 0  # guarded-by: _wakeup, _lock
        self._redispatched = 0  # guarded-by: _wakeup, _lock
        self._parent_fallbacks = 0  # guarded-by: _wakeup, _lock
        # Per-worker slab pools: worker id -> slab size -> free slabs.
        # A dead worker's entry becomes None (its slabs retire as they
        # come back); the fleet's close drops them all.
        self._free_slabs: Dict[int, Optional[_SlabPool]] = {}  # guarded-by: _wakeup, _lock
        self._slabs_created = 0  # guarded-by: _wakeup, _lock
        self._slabs_retired = 0  # guarded-by: _wakeup, _lock
        self._slab_pool_bytes = 0  # guarded-by: _wakeup, _lock

        for worker_id in range(self.workers_total):
            conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=worker_main,
                args=(worker_id, child_conn, worker_cfg, self._beats),
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
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-fleet-watchdog", daemon=True
        )
        self._watchdog.start()

    def _await_ready(self, timeout_s: float) -> None:
        """Block until every worker posts ``("ready", id)``, its first
        message; EOF before it means the worker died during startup.

        Runs before any parent thread starts, so the handles are still
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
                handle.beat_at = time.monotonic()

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
                self._rejections.record_rejected(tenant=tenant)
                alive = self._router.alive_workers()
                retry_after = self._router.retry_after(self._rows_per_s())
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
            future = self._services[worker_id]._enqueue(
                staged, single, deadline, priority, True, tenant
            )
        # Resolved (or cancelled): its rows leave the router's view.
        future.add_done_callback(
            lambda _, router=self._router: router.record_done(worker_id, rows)
        )
        return future

    def _rows_per_s(self) -> Optional[float]:
        """The slowest worker service's batch throughput (the drain rate
        behind ``retry_after``); ``None`` before any batch."""
        rates = (s.recorder.rows_per_s() for s in self._services.values())
        return min((rate for rate in rates if rate), default=None)

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
        for handle in live:
            # Only a service that timed out above can still be in an
            # exchange with this worker.  Kill the worker then: that
            # service reads EOF and, with no worker left, sorts its
            # batch in the parent.
            if not handle.lock.acquire(blocking=False):
                handle.process.kill()
                continue
            try:
                handle.stop_locked()
            finally:
                handle.lock.release()
        for handle in handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
        with self._wakeup:
            self._stop_watchdog = True
        self._watchdog.join(timeout=5.0)
        for handle in handles:
            handle.close()
        # Only now, with every worker joined, can no process still be
        # reading or writing a slab: unlink the pools, staged and held
        # slabs.  A slab still out with a timed-out service is unlinked
        # when that service releases it (its pool is gone).
        with self._wakeup:
            doomed = [
                slab for pool in self._free_slabs.values() if pool
                for free in pool.values() for slab in free
            ]
            doomed += [batch.slab for batch in self._held.values()]
            doomed += [batch.slab for batch, _ in self._staged.values()]
            self._free_slabs.clear()
            self._held.clear()
            self._staged.clear()
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

        The service thread waiting on it sees EOF on its pipe (an idle
        worker's death, the watchdog sees on its process sentinel), and
        its batches fail over to survivors.
        """
        with self._lock:
            handle = self._handles.get(worker_id)
        if handle is None:
            raise KeyError(f"no such worker: {worker_id}")
        handle.process.kill()

    def stats(self) -> FleetStats:
        """One :class:`FleetStats` snapshot.  Each worker's ``service``
        is its parent-side service's own snapshot, and ``frontend`` sums
        those services' recorders plus the router's rejections — both
        exact at call time."""
        now = time.monotonic()
        router_view = self._router.snapshot()
        services = {
            worker_id: service.stats()
            for worker_id, service in self._services.items()
        }
        frontend = combined_snapshot(
            [service.recorder for service in self._services.values()]
            + [self._rejections],
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
                        now - handle.beat_at
                        if handle.beat_at is not None
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

    # -- batches (each service's thread) -----------------------------------
    def _stage(self, worker_id: int, shape, dtype: np.dtype) -> np.ndarray:
        """:meth:`_WorkerBackend.stage`: the input half of a slab from
        ``worker_id``'s pool, which that service gathers its next batch
        into — or a plain array once the worker is dead."""
        staged = self._take_slab(
            worker_id, 2 * shape[0] * shape[1] * dtype.itemsize
        )
        if staged is None:
            return np.empty(shape, dtype=dtype)
        view = _slab_half(staged.slab, shape, dtype, 0)
        with self._wakeup:
            self._staged[worker_id] = (staged, view)
        return view

    def _sort_batch(self, worker_id: int, batch: np.ndarray) -> _BatchResult:
        """:meth:`_WorkerBackend.sort` for ``worker_id``'s service.

        Runs ``batch`` on ``worker_id`` — from the slab it was gathered
        into when it is the staged buffer, else copied into one.  If
        that worker is dead, or dies with the batch in flight, the batch
        is re-staged from the pristine input half onto the router's
        failover survivor, and sorted in the parent when none is left.
        """
        with self._wakeup:
            held = self._held.pop(worker_id, None)
            current, view = self._staged.pop(worker_id, (None, None))
        if held is not None:
            self._release_slab(held)
        if current is not None and view is not batch:
            # A re-sort of one request (the isolation path), not the
            # gathered batch: the staged slab is not needed.
            self._release_slab(current)
            current = None
        shape, dtype = batch.shape, batch.dtype
        target: Optional[int] = worker_id
        try:
            while target is not None:
                if current is None or current.worker_id != target:
                    fresh = self._take_slab(target, 2 * batch.nbytes)
                    if fresh is not None:  # None: target died meanwhile
                        np.copyto(_slab_half(fresh.slab, shape, dtype, 0),
                                  _pristine(batch, current))
                        if current is not None:
                            self._release_slab(current)
                        current = fresh
                reply = None
                if current is not None and current.worker_id == target:
                    reply = self._exchange(current, shape, dtype)
                if target != worker_id:  # a failover target: done with it
                    self._router.record_done(target, shape[0])
                if reply is not None:
                    finished, current = current, None
                    return self._finish(worker_id, finished, reply, shape, dtype)
                # A dead worker has left routing, so this is a survivor.
                target = self._router.route_failover((shape[1], dtype.str), shape[0])
            from ..resilience import ResilientSorter

            return ResilientSorter(self.config, sleep=None).sort(
                _pristine(batch, current)
            )
        finally:
            if current is not None:
                self._release_slab(current)

    def _exchange(self, staged: _Batch, shape, dtype) -> Optional[tuple]:
        """Send ``staged``'s descriptor to the worker whose pool it came
        from and wait for the one reply.  ``None`` when that worker is
        dead or dies first; it is then failed over from here."""
        with self._wakeup:
            handle = self._handles[staged.worker_id]
        with handle.lock:
            with self._wakeup:
                if not handle.alive:
                    return None
                handle.inflight = staged.slab
                unmap, handle.unmap = handle.unmap, []
            reply = handle.exchange_locked((
                "sort", staged.slab.name, shape[0], shape[1], dtype.str, unmap,
            ))
            with self._wakeup:
                handle.inflight = None
        if reply is None:
            self._fail_over(handle)
        return reply

    def _finish(
        self, worker_id: int, staged: _Batch, reply: tuple, shape, dtype
    ) -> _BatchResult:
        """Turn a worker's reply into the service's sort result; the slab
        stays held for the service's demux until its next sort."""
        if reply[0] == "error":
            self._release_slab(staged)
            raise rebuild_error(*reply[1:])
        with self._wakeup:
            self._held[worker_id] = staged
        return _BatchResult(
            _slab_half(staged.slab, shape, dtype, 1), reply[1], reply[2]
        )

    # -- slab pools ----------------------------------------------------------
    def _take_slab(self, worker_id: int, nbytes: int) -> Optional[_Batch]:
        """The smallest free slab of ``worker_id``'s pool that holds
        ``nbytes``; ``None`` once that worker is dead.

        When none fits, every free slab is smaller than ``nbytes``: they
        are unlinked (the worker unmaps them at its next descriptor) and
        one new slab of ``nbytes``' class is made, so a pool never keeps
        slabs it has outgrown.
        """
        with self._wakeup:
            pool = self._free_slabs.get(worker_id)
            if pool is None:
                return None
            fits = [size for size, free in pool.items() if free and size >= nbytes]
            if fits:
                return _Batch(worker_id, pool[min(fits)].pop())
            outgrown = [slab for free in pool.values() for slab in free]
            pool.clear()
            self._handles[worker_id].unmap += [slab.name for slab in outgrown]
            shm = shared_memory.SharedMemory(
                create=True, size=_slab_class(nbytes)
            )
            self._slabs_created += 1
            self._slab_pool_bytes += shm.size - sum(s.size for s in outgrown)
        for slab in outgrown:
            _unlink_slab(slab)
        return _Batch(worker_id, shm)

    def _release_slab(self, staged: _Batch) -> None:
        """Return a slab to its worker's pool, or unlink it when that
        pool is gone: a dead worker's slab is retired, never handed out
        again, and after ``close`` every slab goes."""
        with self._wakeup:
            pool = self._free_slabs.get(staged.worker_id)
            if pool is not None:
                pool.setdefault(staged.slab.size, []).append(staged.slab)
                return
            self._slab_pool_bytes -= staged.slab.size
            if staged.worker_id in self._free_slabs:  # None: worker died
                self._slabs_retired += 1
        _unlink_slab(staged.slab)

    # -- watchdog thread ---------------------------------------------------
    def _watch(self) -> None:
        """Catch workers that die or stall while no batch waits on them.

        Waits on every live worker's process sentinel for one heartbeat
        period at a time, then reads the shared heartbeat counters: a
        worker whose counter has not moved for ``liveness_s`` (a
        SIGSTOPped process) is failed over like one that exited.  A
        worker that dies mid-batch is also seen by the service thread
        waiting on it; whichever comes first fails it over.
        """
        while True:
            with self._wakeup:
                if self._stop_watchdog:
                    return
                live = [h for h in self._handles.values() if h.alive]
            ready = connection.wait(
                [handle.process.sentinel for handle in live],
                timeout=self.heartbeat_s,
            )
            now = time.monotonic()
            dead = []
            with self._wakeup:
                for handle in live:
                    beat = self._beats[handle.worker_id]
                    if beat != handle.beat:
                        handle.beat, handle.beat_at = beat, now
                    if (
                        handle.process.sentinel in ready
                        or now - handle.beat_at > self.liveness_s
                    ):
                        dead.append(handle)
            for handle in dead:
                self._fail_over(handle)

    def _fail_over(self, handle: _WorkerHandle) -> None:
        """Take a dead worker out of routing and retire its slabs: the
        idle ones now, the rest as their services release them.  The
        batches it held are re-staged by their services' backends.

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
            pool = self._free_slabs.get(worker_id) or {}
            self._free_slabs[worker_id] = None
            idle = [slab for free in pool.values() for slab in free]
            self._slabs_retired += len(idle)
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
