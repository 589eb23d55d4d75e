"""Metrics export surface: the sort service as a scrape target.

A production SLO story needs numbers an operator can scrape, diff, and
alert on — not a Python object behind a REPL.  This module turns a
:class:`~repro.service.SortService`'s :class:`~repro.service.stats.ServiceStats`
(plus the per-tenant QoS counters, the queue's per-tenant backlog, and
— when the backend is a :class:`~repro.resilience.ResilientSorter` — the
resilience roll-up and fault-injection counters) into two structured
forms:

* :func:`collect_metrics` — one JSON-ready dict (schema
  ``repro-service-metrics/v1``), what ``repro serve-bench
  --metrics-json`` dumps and what ``BENCH_chaos.json`` embeds;
* :func:`render_prometheus` — the same snapshot as Prometheus
  text-exposition lines (``repro_service_submitted_total 42``,
  per-tenant series labelled ``{tenant="alpha"}``), so the service can
  sit behind any standard scrape pipeline without new dependencies.

Collection is read-only and lock-consistent: everything is derived from
one ``service.stats()`` snapshot plus point-in-time queue/backend reads,
so scraping never perturbs serving beyond one lock acquisition.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = [
    "METRICS_SCHEMA",
    "collect_metrics",
    "escape_label_value",
    "render_prometheus",
]

METRICS_SCHEMA = "repro-service-metrics/v1"

#: Service-level counter fields exported 1:1 from ServiceStats.
_SERVICE_COUNTERS = (
    "submitted",
    "completed",
    "rejected",
    "shed",
    "deadline_missed",
    "failed",
    "batches",
    "batched_rows",
)

#: Per-tenant counter fields exported 1:1 from TenantStats.
_TENANT_COUNTERS = (
    "admitted",
    "rows_admitted",
    "rejected",
    "rejected_quota",
    "shed",
    "deadline_missed",
    "completed",
    "failed",
    "quarantined_rows",
)

#: Capacity-tier fields exported as monotonically increasing counters
#: (``_total`` suffix in the Prometheus render); the remaining
#: CapacityStats fields render as plain gauges.
_CAPACITY_TOTALS = (
    "spill_bytes_written",
    "chunks_committed",
    "chunks_resumed",
)


def collect_metrics(service, *, capacity=None) -> Dict[str, object]:
    """One structured, JSON-ready snapshot of a :class:`SortService`.

    The returned dict is self-describing (``schema`` key) and contains
    only plain JSON types, so it can be written verbatim to disk,
    embedded in a benchmark artifact, or rendered to Prometheus text
    with :func:`render_prometheus`.

    ``capacity`` optionally attaches an out-of-core capacity run to the
    snapshot — a :class:`~repro.outofcore.CapacityStats`, or anything
    carrying one on a ``stats`` attribute (a
    :class:`~repro.outofcore.CapacitySorter` or
    :class:`~repro.outofcore.CapacityResult`).  Its counters
    (``spill_bytes_written``, ``chunks_committed``, ``chunks_resumed``,
    the degradation events, …) land under a ``"capacity"`` key and in
    the Prometheus render as ``<prefix>_capacity_*`` series.
    """
    stats = service.stats()
    payload: Dict[str, object] = {
        "schema": METRICS_SCHEMA,
        "service": {name: getattr(stats, name) for name in _SERVICE_COUNTERS},
        "queue": {
            "depth_requests": stats.queue_depth_requests,
            "depth_rows": stats.queue_depth_rows,
            "max_queue_rows": service.max_queue_rows,
            "tenant_backlog_rows": service.tenant_backlog(),
        },
        "latency_ms": dict(stats.latency_ms),
        "occupancy_histogram": dict(stats.occupancy_histogram),
        "mean_occupancy_rows": stats.mean_occupancy_rows,
        "tenants": {
            name: tenant.as_dict() for name, tenant in stats.tenants.items()
        },
    }
    backend = _describe_backend(service)
    if backend is not None:
        payload["backend"] = backend
    capacity_block = _describe_capacity(capacity)
    if capacity_block is not None:
        payload["capacity"] = capacity_block
    return payload


def _describe_capacity(capacity) -> Optional[Dict[str, object]]:
    """Normalize a capacity run (stats / sorter / result) to a dict."""
    if capacity is None:
        return None
    stats = getattr(capacity, "stats", capacity)
    as_dict = getattr(stats, "as_dict", None)
    block = as_dict() if callable(as_dict) else dict(stats)
    return {key: value for key, value in block.items()
            if isinstance(value, (int, float))}


def _describe_backend(service) -> Optional[Dict[str, object]]:
    """Resilience/fault counters when the backend exposes them."""
    sorter = getattr(service, "sorter", None)
    if sorter is None:
        return None
    info: Dict[str, object] = {"type": type(sorter).__name__}
    resilience = getattr(sorter, "stats", None)
    if resilience is not None and hasattr(resilience, "as_dict"):
        info["resilience"] = resilience.as_dict()
    plan = getattr(sorter, "fault_plan", None)
    if plan is not None and hasattr(plan, "stats"):
        info["fault_plan"] = {
            "seed": plan.seed,
            "kernel_fault_rate": plan.kernel_fault_rate,
            "corruption_rate": plan.corruption_rate,
            "oom_windows": [list(window) for window in plan.oom_windows],
            "injected": plan.stats.as_dict(),
        }
    if len(info) == 1:
        return None  # a bare GpuArraySort: nothing beyond the type name
    return info


def escape_label_value(value: str) -> str:
    """Escape one Prometheus label value for text exposition.

    The text format allows any UTF-8 inside ``label="..."`` except that
    backslash, double-quote, and line-feed must be escaped as ``\\\\``,
    ``\\"``, and ``\\n`` — in that order, backslash first, or an input
    like ``a"b`` would double-escape.  Tenant names are caller-supplied
    strings, so every interpolated label value in this module (and in
    :mod:`repro.fleet.metrics`) goes through here; the property tests in
    ``tests/test_metrics_escaping.py`` feed quotes/newlines/backslashes
    through a real render and assert the exposition stays parseable and
    the value round-trips.
    """
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


# Internal alias, kept short at the many interpolation sites below.
_label = escape_label_value


def _flatten(payload: object, prefix: str, lines: List[str],
             labels: str = "") -> None:
    """Emit ``prefix{labels} value`` lines for every numeric leaf."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            _flatten(payload[key], f"{prefix}_{key}", lines, labels)
    elif isinstance(payload, bool):
        lines.append(f"{prefix}{labels} {int(payload)}")
    elif isinstance(payload, (int, float)):
        lines.append(f"{prefix}{labels} {payload}")
    # strings / lists are descriptive, not scrapeable — skipped


def render_prometheus(metrics: Dict[str, object],
                      prefix: str = "repro_service") -> str:
    """Render a :func:`collect_metrics` snapshot as Prometheus text.

    Scalar counters become ``<prefix>_<path> value`` lines; per-tenant
    counters carry a ``tenant`` label; latency percentiles carry a
    ``quantile`` label.  The output ends with a newline, ready to serve
    from a ``/metrics`` endpoint or write to a textfile-collector drop
    directory.
    """
    lines: List[str] = []
    service = metrics.get("service", {})
    if isinstance(service, dict):
        for name in sorted(service):
            lines.append(f"{prefix}_{name}_total {service[name]}")
    queue = metrics.get("queue", {})
    if isinstance(queue, dict):
        for name in ("depth_requests", "depth_rows", "max_queue_rows"):
            if name in queue:
                lines.append(f"{prefix}_queue_{name} {queue[name]}")
        backlog = queue.get("tenant_backlog_rows", {})
        if isinstance(backlog, dict):
            for tenant in sorted(backlog):
                lines.append(
                    f'{prefix}_queue_tenant_backlog_rows'
                    f'{{tenant="{_label(tenant)}"}} {backlog[tenant]}'
                )
    latency = metrics.get("latency_ms", {})
    if isinstance(latency, dict):
        for quantile in sorted(latency):
            lines.append(
                f'{prefix}_latency_ms{{quantile="{_label(quantile)}"}} '
                f"{latency[quantile]}"
            )
    tenants = metrics.get("tenants", {})
    if isinstance(tenants, dict):
        for tenant in sorted(tenants):
            block = tenants[tenant]
            if not isinstance(block, dict):
                continue
            label = f'{{tenant="{_label(tenant)}"}}'
            for name in _TENANT_COUNTERS:
                if name in block:
                    lines.append(
                        f"{prefix}_tenant_{name}_total{label} {block[name]}"
                    )
            if "rejection_rate" in block:
                lines.append(
                    f"{prefix}_tenant_rejection_rate{label} "
                    f"{block['rejection_rate']}"
                )
            tenant_latency = block.get("latency_ms", {})
            if isinstance(tenant_latency, dict):
                for quantile in sorted(tenant_latency):
                    lines.append(
                        f'{prefix}_tenant_latency_ms{{tenant='
                        f'"{_label(tenant)}",quantile="{_label(quantile)}"}} '
                        f"{tenant_latency[quantile]}"
                    )
    backend = metrics.get("backend")
    if isinstance(backend, dict):
        _flatten(backend.get("resilience", {}), f"{prefix}_resilience", lines)
        fault_plan = backend.get("fault_plan")
        if isinstance(fault_plan, dict):
            _flatten(fault_plan.get("injected", {}),
                     f"{prefix}_faults_injected", lines)
    capacity = metrics.get("capacity")
    if isinstance(capacity, dict):
        for name in sorted(capacity):
            value = capacity[name]
            if not isinstance(value, (int, float)):
                continue
            suffix = "_total" if name in _CAPACITY_TOTALS else ""
            lines.append(f"{prefix}_capacity_{name}{suffix} {value}")
    return "\n".join(lines) + "\n"
