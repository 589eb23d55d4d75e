"""The fleet worker process: one full sort stack behind one pipe.

Each worker the :class:`~repro.fleet.SortFleet` forks runs
:func:`worker_main`: it builds its *own* planner + ``ScratchArena`` +
:class:`~repro.service.SortService` (one GIL per worker — that is the
whole reason the fleet exists), then reads shared-memory descriptors
from its end of a duplex pipe and answers on the same pipe.  The pipe
is this worker's alone: no lock, queue or feeder thread is shared with
another worker.  Three threads send on it — the main thread, the
service's dispatch thread (done callbacks) and the heartbeat thread —
so every send holds one worker-local lock.

**Zero-copy handoff, pooled two-region slabs.**  The parent stages
each request into a ``multiprocessing.shared_memory`` slab from this
worker's pool, laid out as ``[input | output]`` — two equal halves at
the front of a segment whose power-of-two class may be larger than the
request.  The worker maps each slab the first time its name arrives and
keeps the mapping for its whole life (the pool reuses slabs, so later
requests cost no attach).  It submits the *input* view to its local
service with ``copy=False`` and, in the done callback — which runs on
the service's dispatch thread, before the next dispatch reuses the
batch — writes the sorted rows straight into the *output* half.  The
input half is never mutated by the worker, which is the failover
invariant: if this process dies mid-sort — even mid-memcpy of a result
— the parent still holds a pristine copy of the request and can
re-dispatch it to a surviving worker with no risk of re-sorting a
half-written buffer.

**Typed errors cross the boundary as data.**  A worker cannot pickle a
live exception usefully, so every service failure is flattened to
``(kind, message, fields)`` and rebuilt into the same
:mod:`repro.service.errors` type on the parent side — callers of
``SortFleet.submit`` see exactly the error vocabulary of the in-process
service.

**Heartbeats.**  A daemon thread sends ``("hb", worker_id, seq,
stats_dict)`` every ``heartbeat_s`` seconds, carrying the worker's full
:class:`~repro.service.stats.ServiceStats` snapshot; the parent reads
the payload for the fleet's aggregate metrics.  A dead worker shows as
EOF on its pipe, so the cadence matters for the one death that closes
nothing: a stalled (SIGSTOPped) process, declared dead once it is
silent past the liveness deadline.  The same thread ends an orphaned
worker: once the parent pid changes (the parent died and the worker was
re-parented), the worker exits instead of waiting on a pipe nobody will
write to.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
import threading
from multiprocessing import shared_memory
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..service.errors import (
    DeadlineExceededError,
    QuarantinedError,
    RejectedError,
    ServiceClosedError,
)
from ..statan import runtime as _sanitizer

__all__ = ["WorkerConfig", "worker_main", "rebuild_error"]


@dataclasses.dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its local sort stack.

    A plain frozen dataclass so it crosses ``fork``/``spawn`` start
    methods alike.  ``planner`` is a *spec* (name or ``None``), resolved
    inside the worker — each worker owns its planner instance and
    arena.
    """

    config: SortConfig = DEFAULT_CONFIG
    planner: Optional[str] = None
    backend: Optional[str] = None
    batch_target_rows: Optional[int] = None
    max_batch_rows: Optional[int] = None
    linger_ms: float = 2.0
    max_queue_rows: Optional[int] = None
    latency_window: int = 4096
    heartbeat_s: float = 0.05


def describe_error(exc: BaseException) -> Tuple[str, str, Dict[str, object]]:
    """Flatten a service exception into picklable ``(kind, message, fields)``."""
    if isinstance(exc, RejectedError):
        return (
            "rejected",
            str(exc),
            {
                "retry_after": exc.retry_after,
                "tenant": exc.tenant,
                "reason": exc.reason,
            },
        )
    if isinstance(exc, DeadlineExceededError):
        return (
            "deadline",
            str(exc),
            {"waited": exc.waited, "stage": exc.stage},
        )
    if isinstance(exc, QuarantinedError):
        return (
            "quarantined",
            str(exc),
            {
                "rows": list(exc.rows),
                "reasons": {int(k): str(v) for k, v in exc.reasons.items()},
                "tenant": exc.tenant,
            },
        )
    if isinstance(exc, ServiceClosedError):
        return ("closed", str(exc), {})
    if isinstance(exc, _sanitizer.SanitizerError):
        # A checked-build violation inside the worker must reach the
        # parent as a sanitizer report (check + both stacks), not a
        # generic worker failure — the report IS the diagnosis.
        return (
            "sanitizer",
            str(exc),
            {"report": {str(k): str(v) for k, v in exc.report.items()}},
        )
    return ("failed", f"{type(exc).__name__}: {exc}", {})


def rebuild_error(
    kind: str, message: str, fields: Dict[str, object]
) -> Exception:
    """Parent-side inverse of :func:`describe_error`."""
    if kind == "rejected":
        return RejectedError(
            message,
            retry_after=float(fields.get("retry_after", 0.0)),
            tenant=fields.get("tenant"),  # type: ignore[arg-type]
            reason=str(fields.get("reason", "queue-full")),
        )
    if kind == "deadline":
        return DeadlineExceededError(
            message,
            waited=float(fields.get("waited", 0.0)),
            stage=str(fields.get("stage", "queued")),
        )
    if kind == "quarantined":
        return QuarantinedError(
            message,
            rows=[int(r) for r in fields.get("rows", ())],  # type: ignore[union-attr]
            reasons={
                int(k): str(v)
                for k, v in dict(fields.get("reasons", {})).items()  # type: ignore[arg-type]
            },
            tenant=fields.get("tenant"),  # type: ignore[arg-type]
        )
    if kind == "closed":
        return ServiceClosedError(message)
    if kind == "sanitizer":
        return _sanitizer.SanitizerError(
            message, report=dict(fields.get("report", {}))  # type: ignore[arg-type]
        )
    return RuntimeError(message)


def _heartbeat_loop(
    worker_id: int,
    service,
    send: Callable[[tuple], None],
    interval_s: float,
    stop: threading.Event,
    parent_pid: Optional[int],
) -> None:
    """Send liveness + a ServiceStats snapshot until told to stop.

    When ``parent_pid`` is set and is no longer this process's parent,
    the parent is dead and the process exits on the spot.  The main
    thread cannot notice by itself: it blocks in ``conn.recv()``, and
    this worker (like every sibling forked after it) inherited a copy
    of the parent's end at fork, so no EOF arrives.
    """
    seq = 0
    while not stop.wait(interval_s):
        if parent_pid is not None and os.getppid() != parent_pid:
            os._exit(1)
        seq += 1
        try:
            stats = service.stats().as_dict()
        except Exception:
            stats = {}
        send(("hb", worker_id, seq, stats))


def worker_main(worker_id: int, conn, cfg: WorkerConfig) -> None:
    """Process entry point: serve sort requests until ``("stop",)``.

    ``conn`` is the worker's end of its duplex pipe.  The first message
    sent is ``("ready", worker_id)``.  Request messages (from the
    parent):

    ``("sort", req_id, shm_name, rows, row_len, dtype_str, deadline_s,
    priority, tenant)`` — map the two-region slab (once per name), submit
    the input half to the local service, write the sorted rows into the
    output half, answer ``("done", req_id, worker_id)`` or ``("error",
    req_id, worker_id, kind, message, fields)``.

    ``("stop",)`` (or EOF) — drain the local service and exit (answering
    ``("stopped", worker_id)``).
    """
    from ..service import SortService

    send_lock = threading.Lock()

    def send(msg: tuple) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (OSError, ValueError):
                pass  # the parent's end is gone: nobody left to answer

    service = SortService(
        config=cfg.config,
        planner=cfg.planner,
        backend=cfg.backend,
        batch_target_rows=cfg.batch_target_rows,
        max_batch_rows=cfg.max_batch_rows,
        linger_ms=cfg.linger_ms,
        max_queue_rows=cfg.max_queue_rows,
        latency_window=cfg.latency_window,
    )
    send(("ready", worker_id))
    stop = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop,
        # parent_process() is None when not started by multiprocessing
        # (in-thread use): there is then no parent to outlive.
        args=(worker_id, service, send, cfg.heartbeat_s, stop,
              getattr(multiprocessing.parent_process(), "pid", None)),
        name=f"repro-fleet-hb-{worker_id}",
        daemon=True,
    )
    heartbeat.start()

    # Slab name -> mapped segment, for the worker's whole life: the
    # parent reuses pooled slabs, and unlinks one only after this
    # process is dead or joined.
    slabs: Dict[str, shared_memory.SharedMemory] = {}
    serving_thread = threading.get_ident()

    def _serve_one(msg) -> None:
        (_, req_id, shm_name, rows, row_len, dtype_str, deadline_s,
         priority, tenant) = msg
        shm = slabs.get(shm_name)
        if shm is None:
            shm = slabs[shm_name] = shared_memory.SharedMemory(name=shm_name)
        # The slab's class may be larger than the request: the shape
        # comes from the message, never from the segment size.
        full = np.ndarray(
            (2 * rows, row_len), dtype=np.dtype(dtype_str), buffer=shm.buf
        )
        work = full[:rows]
        out = full[rows:]
        if _sanitizer.enabled():
            # Checked build: enforce the failover invariant mechanically —
            # the worker must never write the input half.
            work = _sanitizer.guard_readonly(
                work, f"fleet-input-slab:req{req_id}"
            )

        def _report(exc: BaseException) -> None:
            kind, message, fields = describe_error(exc)
            send(("error", req_id, worker_id, kind, message, fields))

        def _deliver(future, *, copied: bool) -> None:
            try:
                payload = future.result()
                if not copied and threading.get_ident() == serving_thread:
                    # The batch resolved before the callback was
                    # registered, so this runs here, not on the dispatch
                    # thread, and the zero-copy view may already belong
                    # to the next batch.  Sort again into an owned copy
                    # (rare).
                    _submit(copy=True)
                    return
                # np.copyto, not out[:] =, so the sanitizer checks the
                # view's epoch on the read.
                np.copyto(out, payload)
            except Exception as exc:  # typed service errors -> data
                _report(exc)
                return
            send(("done", req_id, worker_id))

        def _submit(*, copy: bool) -> None:
            try:
                future = service.submit(
                    work,
                    deadline=deadline_s,
                    priority=priority,
                    copy=copy,
                    tenant=tenant,
                )
            except Exception as exc:
                _report(exc)
                return
            future.add_done_callback(functools.partial(_deliver, copied=copy))

        _submit(copy=False)

    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                break
            if msg[0] == "sort":
                _serve_one(msg)
    finally:
        stop.set()
        try:
            service.close(drain=True)
        finally:
            send(("stopped", worker_id))
