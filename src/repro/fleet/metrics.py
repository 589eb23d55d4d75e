"""Fleet metrics export: per-worker and aggregate, JSON + Prometheus.

The fleet's scrape surface follows the service's
(:mod:`repro.service.metrics`) shape exactly, one level up:

* :func:`collect_fleet_metrics` — one JSON-ready dict (schema
  ``repro-fleet-metrics/v1``) with three views:

  - ``fleet`` — the aggregate caller-facing counters (admission,
    completion, failover tallies, in-flight depth, latency
    percentiles, per-tenant slices) of ``FleetStats.frontend``, plus
    the shared-memory slab pools' created/retired counts and held
    bytes;
  - ``workers`` — one block per worker process: liveness, outstanding
    work, dispatch/failover counters, and the ``ServiceStats`` snapshot
    of the worker's parent-side service (its batch occupancy, its
    queue, its latency);
  - ``aggregate`` — the workers' service counters summed, the "what is
    the whole fleet's sort plane doing" view.

* :func:`render_fleet_prometheus` — the same snapshot as text
  exposition under the ``repro_fleet_*`` families.  Per-worker series
  carry a ``worker="N"`` label; tenant series carry ``tenant=``; every
  interpolated label value goes through the shared
  :func:`~repro.service.metrics.escape_label_value`, so hostile tenant
  names (quotes, newlines, backslashes) cannot corrupt the exposition.
"""

from __future__ import annotations

from typing import Dict, List

from ..service.metrics import escape_label_value

__all__ = [
    "FLEET_METRICS_SCHEMA",
    "collect_fleet_metrics",
    "render_fleet_prometheus",
]

FLEET_METRICS_SCHEMA = "repro-fleet-metrics/v1"

#: Fleet-level counters exported 1:1 from the frontend ServiceStats.
_FRONTEND_COUNTERS = (
    "submitted",
    "completed",
    "rejected",
    "shed",
    "deadline_missed",
    "failed",
)

#: Worker-service counters summed into the aggregate view.
_WORKER_SERVICE_COUNTERS = (
    "submitted",
    "completed",
    "rejected",
    "shed",
    "deadline_missed",
    "failed",
    "batches",
    "batched_rows",
)


def collect_fleet_metrics(fleet) -> Dict[str, object]:
    """One structured, JSON-ready snapshot of a :class:`~repro.fleet.SortFleet`."""
    stats = fleet.stats()
    frontend = stats.frontend
    workers: Dict[str, object] = {}
    aggregate: Dict[str, int] = {
        name: 0 for name in _WORKER_SERVICE_COUNTERS
    }
    for worker_id, state in sorted(stats.workers.items()):
        service = state.service or {}
        for name in _WORKER_SERVICE_COUNTERS:
            value = service.get(name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                aggregate[name] += int(value)
        workers[str(worker_id)] = {
            "pid": state.pid,
            "alive": state.alive,
            "outstanding_rows": state.outstanding_rows,
            "outstanding_requests": state.outstanding_requests,
            "dispatched": state.dispatched,
            "completed": state.completed,
            "failed": state.failed,
            "redispatched": state.redispatched,
            "heartbeat_age_s": state.heartbeat_age_s,
            "service": dict(service),
        }
    return {
        "schema": FLEET_METRICS_SCHEMA,
        "fleet": {
            **{name: getattr(frontend, name) for name in _FRONTEND_COUNTERS},
            "workers_total": stats.workers_total,
            "workers_alive": stats.workers_alive,
            "failovers": stats.failovers,
            "redispatched": stats.redispatched,
            "parent_fallbacks": stats.parent_fallbacks,
            "slabs_created": stats.slabs_created,
            "slabs_retired": stats.slabs_retired,
            "slab_pool_bytes": stats.slab_pool_bytes,
            "inflight_requests": frontend.queue_depth_requests,
            "inflight_rows": frontend.queue_depth_rows,
        },
        "latency_ms": dict(frontend.latency_ms),
        "tenants": {
            name: tenant.as_dict()
            for name, tenant in frontend.tenants.items()
        },
        "workers": workers,
        "aggregate": aggregate,
    }


def render_fleet_prometheus(
    metrics: Dict[str, object], prefix: str = "repro_fleet"
) -> str:
    """Render a :func:`collect_fleet_metrics` snapshot as Prometheus text.

    Families: ``repro_fleet_<counter>_total`` (aggregate front-end),
    ``repro_fleet_workers_alive``/``_total`` and ``repro_fleet_inflight_*``
    gauges, the slab pools' ``repro_fleet_slab_created_total``,
    ``repro_fleet_slab_retired_total`` and ``repro_fleet_slab_pool_bytes``,
    ``repro_fleet_latency_ms{quantile=}``, per-tenant
    ``repro_fleet_tenant_*_total{tenant=}``, per-worker
    ``repro_fleet_worker_*{worker="N"}`` (including the worker's own
    service counters as ``repro_fleet_worker_service_*``), and the
    summed ``repro_fleet_aggregate_*_total`` families.
    """
    lines: List[str] = []
    fleet = metrics.get("fleet", {})
    if isinstance(fleet, dict):
        for name in _FRONTEND_COUNTERS + (
            "failovers", "redispatched", "parent_fallbacks",
        ):
            if name in fleet:
                lines.append(f"{prefix}_{name}_total {fleet[name]}")
        for name in (
            "workers_total", "workers_alive",
            "inflight_requests", "inflight_rows",
        ):
            if name in fleet:
                lines.append(f"{prefix}_{name} {fleet[name]}")
        for name, family in (
            ("slabs_created", "slab_created_total"),
            ("slabs_retired", "slab_retired_total"),
            ("slab_pool_bytes", "slab_pool_bytes"),
        ):
            if name in fleet:
                lines.append(f"{prefix}_{family} {fleet[name]}")
    latency = metrics.get("latency_ms", {})
    if isinstance(latency, dict):
        for quantile in sorted(latency):
            lines.append(
                f'{prefix}_latency_ms'
                f'{{quantile="{escape_label_value(quantile)}"}} '
                f"{latency[quantile]}"
            )
    tenants = metrics.get("tenants", {})
    if isinstance(tenants, dict):
        for tenant in sorted(tenants):
            block = tenants[tenant]
            if not isinstance(block, dict):
                continue
            label = f'{{tenant="{escape_label_value(tenant)}"}}'
            for name in (
                "admitted", "rows_admitted", "rejected", "shed",
                "deadline_missed", "completed", "failed",
            ):
                if name in block:
                    lines.append(
                        f"{prefix}_tenant_{name}_total{label} {block[name]}"
                    )
    workers = metrics.get("workers", {})
    if isinstance(workers, dict):
        for worker_id in sorted(workers, key=str):
            block = workers[worker_id]
            if not isinstance(block, dict):
                continue
            label = f'{{worker="{escape_label_value(worker_id)}"}}'
            alive = block.get("alive")
            if alive is not None:
                lines.append(f"{prefix}_worker_alive{label} {int(bool(alive))}")
            for name in ("outstanding_rows", "outstanding_requests"):
                if name in block:
                    lines.append(f"{prefix}_worker_{name}{label} {block[name]}")
            for name in ("dispatched", "completed", "failed", "redispatched"):
                if name in block:
                    lines.append(
                        f"{prefix}_worker_{name}_total{label} {block[name]}"
                    )
            age = block.get("heartbeat_age_s")
            if isinstance(age, (int, float)) and not isinstance(age, bool):
                lines.append(f"{prefix}_worker_heartbeat_age_s{label} {age}")
            service = block.get("service", {})
            if isinstance(service, dict):
                for name in _WORKER_SERVICE_COUNTERS:
                    value = service.get(name)
                    if isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ):
                        lines.append(
                            f"{prefix}_worker_service_{name}_total{label} "
                            f"{value}"
                        )
    aggregate = metrics.get("aggregate", {})
    if isinstance(aggregate, dict):
        for name in sorted(aggregate):
            lines.append(f"{prefix}_aggregate_{name}_total {aggregate[name]}")
    return "\n".join(lines) + "\n"
