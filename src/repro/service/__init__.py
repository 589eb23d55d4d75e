"""Sort-as-a-service: async request front-end over the batch sorter.

The subsystem that connects the sorter and its planner to real
traffic: many callers :meth:`~repro.service.SortService.submit` small
requests concurrently; a dynamic batcher coalesces them into
``(N, n)`` batches; one sort runs per batch; results
are demultiplexed back to per-caller futures.  Overload is explicit
(bounded queue + :class:`RejectedError` backpressure), lateness is
explicit (EDF scheduling + :class:`DeadlineExceededError` shedding), and
:meth:`~repro.service.SortService.stats` exposes the serving health
surface.  See ``docs/service.md``.

Multi-tenant QoS rides on top: per-tenant admission quotas
(:class:`TenantQuota`), weighted fair queuing in the batcher, per-tenant
counters (:class:`TenantStats`), a scrape-ready metrics surface
(:func:`collect_metrics` / :func:`render_prometheus`), and a live chaos
harness (:func:`run_scenario`) that proves the SLOs hold while a seeded
:class:`~repro.gpusim.faults.FaultPlan` injects device faults.
"""

from .batcher import DynamicBatcher, Lane, QueuedRequest
from .chaos import (
    ChaosReport,
    ChaosScenario,
    ChaosTenant,
    evaluate_slos,
    run_scenario,
)
from .errors import (
    DeadlineExceededError,
    QuarantinedError,
    RejectedError,
    ServiceClosedError,
    ServiceError,
)
from .metrics import METRICS_SCHEMA, collect_metrics, render_prometheus
from .service import DEFAULT_BATCH_TARGET_ROWS, SortService, TenantQuota
from .stats import ServiceStats, StatsRecorder, TenantStats
from .traffic import (
    TenantLoad,
    TrafficReport,
    parse_size_mix,
    run_multi_tenant_traffic,
    run_service_traffic,
    run_unbatched_traffic,
)

__all__ = [
    "DEFAULT_BATCH_TARGET_ROWS",
    "ChaosReport",
    "ChaosScenario",
    "ChaosTenant",
    "DeadlineExceededError",
    "DynamicBatcher",
    "Lane",
    "METRICS_SCHEMA",
    "QuarantinedError",
    "QueuedRequest",
    "RejectedError",
    "ServiceClosedError",
    "ServiceError",
    "ServiceStats",
    "SortService",
    "StatsRecorder",
    "TenantLoad",
    "TenantQuota",
    "TenantStats",
    "TrafficReport",
    "collect_metrics",
    "evaluate_slos",
    "parse_size_mix",
    "render_prometheus",
    "run_multi_tenant_traffic",
    "run_scenario",
    "run_service_traffic",
    "run_unbatched_traffic",
]
