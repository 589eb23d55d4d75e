"""``repro.fleet`` — the sharded, multi-process sort serving tier.

One :class:`~repro.service.SortService` is bounded by one Python
process; the fleet scales the same contract across **N** worker
processes, each a sort loop owning its planner + ``ScratchArena``
sorter — the host-side analogue of partitioning arrays across GPUs.
Batching happens once, in the parent: each worker has a parent-side
``SortService`` whose batches cross to it through a two-region
shared-memory slab, one descriptor and one reply per batch.  See
:mod:`repro.fleet.fleet` for the architecture (lane-affinity load-aware
routing, one pipe and one parent thread per worker, per-batch failover
on pipe EOF, process exit or a stalled heartbeat counter to survivors).

Entry points:

* :class:`SortFleet` — ``submit(arrays, deadline=, priority=, tenant=)
  -> Future``, drop-in for ``SortService`` (the
  :mod:`repro.service.traffic` generators drive either);
* :class:`FleetRouter` — the clock-free routing/backpressure policy,
  unit-testable in isolation;
* :func:`collect_fleet_metrics` / :func:`render_fleet_prometheus` —
  JSON and Prometheus ``repro_fleet_*`` export with per-worker and
  aggregate views.
"""

from .fleet import (
    DEFAULT_MAX_WORKER_QUEUE_ROWS,
    DEFAULT_WORKERS,
    SortFleet,
)
from .metrics import (
    FLEET_METRICS_SCHEMA,
    collect_fleet_metrics,
    render_fleet_prometheus,
)
from .router import FleetRouter
from .stats import FleetStats, WorkerState
from .worker import WorkerConfig

__all__ = [
    "DEFAULT_MAX_WORKER_QUEUE_ROWS",
    "DEFAULT_WORKERS",
    "FLEET_METRICS_SCHEMA",
    "FleetRouter",
    "FleetStats",
    "SortFleet",
    "WorkerConfig",
    "WorkerState",
    "collect_fleet_metrics",
    "render_fleet_prometheus",
]
