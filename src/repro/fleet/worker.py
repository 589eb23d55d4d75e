"""The fleet worker process: a sort loop behind one pipe.

Each worker the :class:`~repro.fleet.SortFleet` forks runs
:func:`worker_main`.  It builds its *own* sorter (planner + ``ScratchArena``,
one GIL per worker — that is the whole reason the fleet exists) and then
loops: receive one batch descriptor, sort the batch, reply.  Batching,
deadlines, priorities and demux all happen in the parent, in that
worker's parent-side :class:`~repro.service.SortService`; the worker
sees whole batches only.  The pipe is this worker's alone: no lock,
queue or feeder thread is shared with another worker.

**Zero-copy handoff, pooled two-region slabs.**  Each batch arrives in
a ``multiprocessing.shared_memory`` slab from this worker's pool, laid
out as ``[input | output]`` at the front of a segment that may be larger
than the batch.  The worker maps a slab when its name first arrives and
unmaps it when a descriptor says the parent pruned it.  It copies the
input half into the output half and sorts that in place.  It never
writes the input half — the failover invariant: if this process dies
mid-sort, even mid-memcpy, the parent still holds a pristine copy of
the batch to re-stage on a survivor.

**Errors cross the boundary as data.**  A sort that raises is flattened
to ``(kind, message, fields)`` and rebuilt on the parent side: a
checked-build :class:`~repro.statan.runtime.SanitizerError` keeps its
report, anything else becomes a ``RuntimeError`` naming the original
type.

**Heartbeats.**  A daemon thread bumps this worker's slot of a shared
counter array every ``heartbeat_s`` seconds, so only replies cross the
pipe and only the main thread writes it.  Death shows as EOF and as
the process sentinel; the counter covers the death that closes
nothing, a stalled (SIGSTOPped) process, which the parent's watchdog
declares dead once the counter stops moving past the liveness
deadline.  The same thread exits an orphaned worker (its parent pid
changed) instead of leaving it waiting on a pipe nobody will write to.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

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
    beats,
    worker_id: int,
    interval_s: float,
    stop: threading.Event,
    parent_pid: Optional[int],
) -> None:
    """Bump ``beats[worker_id]`` every ``interval_s`` until told to stop.

    When ``parent_pid`` is set and is no longer this process's parent,
    the parent is dead and the process exits on the spot.  The main
    thread cannot notice by itself: it blocks in ``conn.recv()``, and
    this worker (like every sibling forked after it) inherited a copy
    of the parent's end at fork, so no EOF arrives.
    """
    while not stop.wait(interval_s):
        if parent_pid is not None and os.getppid() != parent_pid:
            os._exit(1)
        beats[worker_id] += 1


def _sort_slab(sorter, shm, rows: int, row_len: int, dtype: np.dtype, tag: str):
    """Sort one batch in its slab; the reply to send.  The shape comes
    from the descriptor, never from the segment size, and no view of
    the slab outlives the call, so a pruned slab can be unmapped."""
    full = np.ndarray((2 * rows, row_len), dtype=dtype, buffer=shm.buf)
    work, out = full[:rows], full[rows:]
    if _sanitizer.enabled():
        # Checked build: enforce the failover invariant mechanically —
        # the worker must never write the input half.
        work = _sanitizer.guard_readonly(work, f"fleet-input-slab:{tag}")
    try:
        np.copyto(out, work)
        result = sorter.sort(out, inplace=True)
        if result.batch is not out:  # a backend that sorted a copy
            np.copyto(out, result.batch)
    except Exception as exc:  # noqa: BLE001 - crosses as data
        return ("error", *describe_error(exc))
    return (
        "done",
        [int(row) for row in getattr(result, "quarantined", ())],
        dict(getattr(result, "quarantine_reasons", None) or {}),
    )


def worker_main(worker_id: int, conn, cfg: WorkerConfig, beats) -> None:
    """Process entry point: sort batches until ``("stop",)`` or EOF.

    ``conn`` is the worker's end of its duplex pipe and ``beats`` the
    shared heartbeat counters.  The first message sent is ``("ready",
    worker_id)``.  Each request from the parent is ``("sort", shm_name,
    rows, row_len, dtype_str, unmap)``: unmap the slabs named in
    ``unmap``, map the two-region slab (once per name), sort the batch
    into the output half, and answer ``("done", quarantined_rows,
    quarantine_reasons)`` or ``("error", kind, message, fields)``.  One
    batch is in flight per pipe, so a reply needs no id.
    """
    from ..service import SortService

    planner = None
    if cfg.planner is not None:
        from ..planner import resolve_planner

        planner = resolve_planner(cfg.planner)
    sorter = SortService._make_backend(cfg.backend, cfg.config, planner)

    conn.send(("ready", worker_id))
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        # parent_process() is None when not started by multiprocessing
        # (in-thread use): there is then no parent to outlive.
        args=(beats, worker_id, cfg.heartbeat_s, stop,
              getattr(multiprocessing.parent_process(), "pid", None)),
        name=f"repro-fleet-hb-{worker_id}",
        daemon=True,
    ).start()

    # Slab name -> mapped segment, until a descriptor's ``unmap`` names it.
    slabs: Dict[str, shared_memory.SharedMemory] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                break
            _, shm_name, rows, row_len, dtype_str, unmap = msg
            for name in unmap:
                try:
                    slabs.pop(name).close()
                except (KeyError, BufferError):
                    pass  # never mapped, or a live view keeps the mapping
            shm = slabs.get(shm_name)
            if shm is None:
                shm = slabs[shm_name] = shared_memory.SharedMemory(name=shm_name)
            try:
                conn.send(_sort_slab(
                    sorter, shm, rows, row_len, np.dtype(dtype_str), shm_name
                ))
            except (OSError, ValueError):
                break  # the parent's end is gone: nobody left to answer
    finally:
        stop.set()
