"""The fleet worker process: a sort loop behind one pipe.

Each worker the :class:`~repro.fleet.SortFleet` forks runs
:func:`worker_main`.  It builds its *own* sorter (planner + ``ScratchArena``,
one GIL per worker — that is the whole reason the fleet exists) and then
loops: receive one batch descriptor, sort the batch, reply.  Batching,
deadlines, priorities and demux all happen in the parent, in that
worker's parent-side :class:`~repro.service.SortService`; the worker
sees whole batches only.  The pipe is this worker's alone: no lock,
queue or feeder thread is shared with another worker.

**Zero-copy handoff, pooled two-region slabs.**  The parent stages each
batch into a ``multiprocessing.shared_memory`` slab from this worker's
pool, laid out as ``[input | output]`` — two equal halves at the front
of a segment whose power-of-two class may be larger than the batch.
The worker maps each slab the first time its name arrives and keeps the
mapping for its whole life (the pool reuses slabs, so later batches
cost no attach).  It sorts the *input* half and copies the result into
the *output* half.  The input half is never mutated by the worker,
which is the failover invariant: if this process dies mid-sort — even
mid-memcpy of a result — the parent still holds a pristine copy of the
batch and can re-stage it for a surviving worker.

**Errors cross the boundary as data.**  A sort that raises is flattened
to ``(kind, message, fields)`` and rebuilt on the parent side: a
checked-build :class:`~repro.statan.runtime.SanitizerError` keeps its
report, anything else becomes a ``RuntimeError`` naming the original
type.

**Heartbeats.**  A daemon thread sends ``("hb", worker_id)`` every
``heartbeat_s`` seconds.  A dead worker shows as EOF on its pipe, so
the cadence matters for the one death that closes nothing: a stalled
(SIGSTOPped) process, declared dead once it is silent past the
liveness deadline.  The same thread ends an orphaned worker: once the
parent pid changes (the parent died and the worker was re-parented),
the worker exits instead of waiting on a pipe nobody will write to.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
from multiprocessing import shared_memory
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..statan import runtime as _sanitizer

__all__ = ["WorkerConfig", "worker_main", "rebuild_error"]


@dataclasses.dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its sorter.

    A plain frozen dataclass so it crosses ``fork``/``spawn`` start
    methods alike.  ``planner`` is a *spec* (name or ``None``), resolved
    inside the worker — each worker owns its planner instance and
    arena.  ``backend`` takes :class:`~repro.service.SortService`'s
    vocabulary (``None``, ``"resilient"`` or an object with ``sort``).
    """

    config: SortConfig = DEFAULT_CONFIG
    planner: Optional[str] = None
    backend: object = None
    heartbeat_s: float = 0.05


def describe_error(exc: BaseException) -> Tuple[str, str, Dict[str, object]]:
    """Flatten a sort exception into picklable ``(kind, message, fields)``."""
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
    if kind == "sanitizer":
        return _sanitizer.SanitizerError(
            message, report=dict(fields.get("report", {}))  # type: ignore[arg-type]
        )
    return RuntimeError(message)


def _heartbeat_loop(
    worker_id: int,
    send: Callable[[tuple], None],
    interval_s: float,
    stop: threading.Event,
    parent_pid: Optional[int],
) -> None:
    """Send liveness until told to stop.

    When ``parent_pid`` is set and is no longer this process's parent,
    the parent is dead and the process exits on the spot.  The main
    thread cannot notice by itself: it blocks in ``conn.recv()``, and
    this worker (like every sibling forked after it) inherited a copy
    of the parent's end at fork, so no EOF arrives.
    """
    while not stop.wait(interval_s):
        if parent_pid is not None and os.getppid() != parent_pid:
            os._exit(1)
        send(("hb", worker_id))


def worker_main(worker_id: int, conn, cfg: WorkerConfig) -> None:
    """Process entry point: sort batches until ``("stop",)`` or EOF.

    ``conn`` is the worker's end of its duplex pipe.  The first message
    sent is ``("ready", worker_id)``.  Each request from the parent is
    ``("sort", batch_id, shm_name, rows, row_len, dtype_str)``: map the
    two-region slab (once per name), sort the input half, copy the
    result into the output half, and answer ``("done", batch_id,
    quarantined_rows, quarantine_reasons)`` or ``("error", batch_id,
    kind, message, fields)``.
    """
    from ..service import SortService

    planner = None
    if cfg.planner is not None:
        from ..planner import resolve_planner

        planner = resolve_planner(cfg.planner)
    sorter = SortService._make_backend(cfg.backend, cfg.config, planner)

    # The main thread's replies and the heartbeat thread share the pipe.
    send_lock = threading.Lock()

    def send(msg: tuple) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (OSError, ValueError):
                pass  # the parent's end is gone: nobody left to answer

    send(("ready", worker_id))
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        # parent_process() is None when not started by multiprocessing
        # (in-thread use): there is then no parent to outlive.
        args=(worker_id, send, cfg.heartbeat_s, stop,
              getattr(multiprocessing.parent_process(), "pid", None)),
        name=f"repro-fleet-hb-{worker_id}",
        daemon=True,
    ).start()

    # Slab name -> mapped segment, for the worker's whole life: the
    # parent reuses pooled slabs, and unlinks one only after this
    # process is dead or joined.
    slabs: Dict[str, shared_memory.SharedMemory] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                break
            _, batch_id, shm_name, rows, row_len, dtype_str = msg
            shm = slabs.get(shm_name)
            if shm is None:
                shm = slabs[shm_name] = shared_memory.SharedMemory(name=shm_name)
            # The slab's class may be larger than the batch: the shape
            # comes from the message, never from the segment size.
            full = np.ndarray(
                (2 * rows, row_len), dtype=np.dtype(dtype_str), buffer=shm.buf
            )
            work, out = full[:rows], full[rows:]
            if _sanitizer.enabled():
                # Checked build: enforce the failover invariant
                # mechanically — the worker must never write the input half.
                work = _sanitizer.guard_readonly(
                    work, f"fleet-input-slab:batch{batch_id}"
                )
            try:
                result = sorter.sort(work)
                np.copyto(out, result.batch)
            except Exception as exc:  # noqa: BLE001 - crosses as data
                send(("error", batch_id, *describe_error(exc)))
            else:
                send((
                    "done", batch_id,
                    [int(row) for row in getattr(result, "quarantined", ())],
                    dict(getattr(result, "quarantine_reasons", None) or {}),
                ))
    finally:
        stop.set()
