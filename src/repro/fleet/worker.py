"""The fleet worker process: one full sort stack behind a queue.

Each worker the :class:`~repro.fleet.SortFleet` forks runs
:func:`worker_main`: it builds its *own* planner + ``ScratchArena`` +
:class:`~repro.service.SortService` (one GIL per worker — that is the
whole reason the fleet exists), then loops on a request queue of
shared-memory descriptors.

**Zero-copy handoff, two-region slabs.**  The parent stages each
request into one ``multiprocessing.shared_memory`` segment laid out as
``[input | output]`` — two equal halves.  The worker attaches the
segment with the same :func:`repro.parallel.attach_shm_view` primitive
the process-pool shard workers use, submits the *input* view to its
local service, and writes the sorted result only into the *output*
half.  The input half is never mutated by the worker, which is the
failover invariant: if this process dies mid-sort — even mid-memcpy of
a result — the parent still holds a pristine copy of the request and
can re-dispatch it to a surviving worker with no risk of re-sorting a
half-written buffer.

**Typed errors cross the boundary as data.**  A worker cannot pickle a
live exception usefully, so every service failure is flattened to
``(kind, message, fields)`` and rebuilt into the same
:mod:`repro.service.errors` type on the parent side — callers of
``SortFleet.submit`` see exactly the error vocabulary of the in-process
service.

**Heartbeats.**  A daemon thread posts ``("hb", worker_id, seq,
stats_dict)`` every ``heartbeat_s`` seconds, carrying the worker's full
:class:`~repro.service.stats.ServiceStats` snapshot; the parent uses the
cadence for liveness (a worker silent past the liveness deadline is
declared dead and drained) and the payload for the fleet's aggregate
metrics.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..parallel import attach_shm_view
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
    worker_id: int, service, response_q, interval_s: float, stop: threading.Event
) -> None:
    """Post liveness + a ServiceStats snapshot until told to stop."""
    seq = 0
    while not stop.wait(interval_s):
        seq += 1
        try:
            stats = service.stats().as_dict()
        except Exception:
            stats = {}
        try:
            response_q.put(("hb", worker_id, seq, stats))
        except Exception:
            return  # parent gone; nothing left to report to


def worker_main(worker_id: int, request_q, response_q, cfg: WorkerConfig) -> None:
    """Process entry point: serve sort requests until the stop sentinel.

    Request messages (from the parent):

    ``("sort", req_id, shm_name, rows, row_len, dtype_str, deadline_s,
    priority, tenant)`` — attach the two-region segment, submit the
    input half to the local service, write the sorted rows into the
    output half, answer ``("done", req_id, worker_id)`` or ``("error",
    req_id, worker_id, kind, message, fields)``.

    ``("stop",)`` — drain the local service and exit (answering
    ``("stopped", worker_id)``).
    """
    from ..service import SortService

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
    stop = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop,
        args=(worker_id, service, response_q, cfg.heartbeat_s, stop),
        name=f"repro-fleet-hb-{worker_id}",
        daemon=True,
    )
    heartbeat.start()
    response_q.put(("ready", worker_id))

    def _serve_one(msg) -> None:
        (_, req_id, shm_name, rows, row_len, dtype_str, deadline_s,
         priority, tenant) = msg
        shm, full = attach_shm_view(
            shm_name, (2 * rows, row_len), dtype_str, 0
        )
        work = full[:rows]
        out = full[rows:]
        if _sanitizer.enabled():
            # Checked build: enforce the failover invariant mechanically —
            # the worker must never write the input half.
            work = _sanitizer.guard_readonly(
                work, f"fleet-input-slab:req{req_id}"
            )

        def _deliver(future) -> None:
            try:
                try:
                    payload = future.result()
                except Exception as exc:  # typed service errors -> data
                    kind, message, fields = describe_error(exc)
                    response_q.put(
                        ("error", req_id, worker_id, kind, message, fields)
                    )
                else:
                    out[:] = payload
                    response_q.put(("done", req_id, worker_id))
            finally:
                shm.close()

        try:
            # copy=True: the service's demux copy-out is what we memcpy
            # into the output half; the input half stays untouched, which
            # is the fleet's failover invariant (see module docstring).
            future = service.submit(
                work,
                deadline=deadline_s,
                priority=priority,
                copy=True,
                tenant=tenant,
            )
        except Exception as exc:
            kind, message, fields = describe_error(exc)
            response_q.put(("error", req_id, worker_id, kind, message, fields))
            shm.close()
            return
        future.add_done_callback(_deliver)

    try:
        while True:
            msg = request_q.get()
            if msg is None or msg[0] == "stop":
                break
            if msg[0] == "sort":
                _serve_one(msg)
    finally:
        stop.set()
        try:
            service.close(drain=True)
        finally:
            try:
                response_q.put(("stopped", worker_id))
            except (OSError, ValueError):  # parent-side queue already gone
                pass


def nbytes_for(rows: int, row_len: int, dtype: np.dtype) -> int:
    """Byte size of one two-region request slab (input + output halves)."""
    return 2 * int(rows) * int(row_len) * int(np.dtype(dtype).itemsize)
