"""``repro.fleet`` — the sharded, multi-process sort serving tier.

One :class:`~repro.service.SortService` is bounded by one Python
process; the fleet scales the same contract across **N** worker
processes, each owning a full planner + ``ScratchArena`` +
``SortService`` stack — the host-side analogue of partitioning arrays
across GPUs.  See :mod:`repro.fleet.fleet` for the architecture
(lane-affinity load-aware routing, two-region shared-memory handoff,
one pipe per worker, failover on pipe EOF or heartbeat silence that
drains a dead worker's in-flight requests to survivors).

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
