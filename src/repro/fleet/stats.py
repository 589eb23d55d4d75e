"""Observability surface of the sort fleet.

Two layers:

* the **front-end** — admission, routing, completion, and latency as
  seen by callers of :meth:`~repro.fleet.SortFleet.submit`.  It is the
  workers' parent-side services' :class:`~repro.service.stats.StatsRecorder`
  counters summed (latency windows pooled, tenants merged) plus the
  router's rejections, built when the snapshot is taken — each request
  is recorded once, by the service it was routed to — so fleet-level
  and service-level snapshots stay directly comparable;
* the **workers** — one :class:`WorkerState` per worker process:
  liveness, outstanding work, failover tallies, and the
  :class:`~repro.service.stats.ServiceStats` of the worker's
  parent-side service as a plain dict, read when the snapshot is taken
  (batching runs in the parent, so nothing waits on a heartbeat).

:class:`FleetStats` is the immutable roll-up of both, what
:meth:`SortFleet.stats` returns and what :mod:`repro.fleet.metrics`
exports as JSON and Prometheus text.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..service.stats import ServiceStats

__all__ = ["FleetStats", "WorkerState"]


@dataclasses.dataclass(frozen=True)
class WorkerState:
    """One worker process as the parent sees it."""

    worker_id: int
    pid: Optional[int]
    alive: bool
    #: Rows dispatched to this worker and not yet completed/failed.
    outstanding_rows: int
    #: Requests dispatched and not yet completed/failed.
    outstanding_requests: int
    #: Requests routed to this worker's service.
    dispatched: int
    #: Requests that service completed successfully.
    completed: int
    #: Requests that service failed with a typed error (shed and
    #: deadline-missed included).
    failed: int
    #: Requests this worker held (in flight or queued) when it died,
    #: re-dispatched to survivors.
    redispatched: int
    #: Seconds since the watchdog last saw the worker's heartbeat
    #: counter move (None before the first one).  The watchdog reads the
    #: counters once per ``heartbeat_s``, so that is its resolution.
    heartbeat_age_s: Optional[float]
    #: The worker's parent-side ServiceStats, as a dict.
    service: Dict[str, object] = dataclasses.field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class FleetStats:
    """One consistent snapshot of a :class:`~repro.fleet.SortFleet`."""

    #: Caller-facing counters/latency, service-shaped (queue depth here
    #: means rows/requests in flight across all workers).
    frontend: ServiceStats
    #: Per-worker states keyed by worker id.
    workers: Dict[int, WorkerState]
    #: Workers configured at construction.
    workers_total: int
    #: Workers currently alive and routable.
    workers_alive: int
    #: Dead-worker events handled (each may re-dispatch many requests).
    failovers: int
    #: Requests re-dispatched off dead workers onto survivors.
    redispatched: int
    #: Requests a dead worker held when no worker survived, sorted in
    #: the parent itself (the resilience backstop).
    parent_fallbacks: int
    #: Shared-memory slabs created for the worker pools (a reused slab
    #: is not counted again).
    slabs_created: int
    #: Slabs unlinked because their worker was declared dead, never
    #: handed out again.
    slabs_retired: int
    #: Bytes of every slab the fleet currently holds, free or in flight.
    slab_pool_bytes: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "frontend": self.frontend.as_dict(),
            "workers": {
                str(worker_id): state.as_dict()
                for worker_id, state in sorted(self.workers.items())
            },
            "workers_total": self.workers_total,
            "workers_alive": self.workers_alive,
            "failovers": self.failovers,
            "redispatched": self.redispatched,
            "parent_fallbacks": self.parent_fallbacks,
            "slabs_created": self.slabs_created,
            "slabs_retired": self.slabs_retired,
            "slab_pool_bytes": self.slab_pool_bytes,
        }
