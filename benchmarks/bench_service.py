#!/usr/bin/env python
"""Serving harness: batched SortService vs per-request baseline under load.

Standalone (no pytest-benchmark): drives synthetic closed-loop traffic
through :class:`repro.service.SortService` across a ladder of load cells
and emits ``BENCH_service.json`` (schema ``bench-service/v1``) — the
artifact ``make service-gate`` re-checks.

What each cell measures
-----------------------
A fleet of client threads issues small sort requests (rows-per-request
mix defaults to 70% single-row, 30% four-row) against

``batched``    the sort service — dynamic batcher coalesces queued
               requests into one fused sort per lane, results are
               demultiplexed back to per-caller futures;
``unbatched``  the baseline an adopter without the service layer gets:
               each client thread calls ``GpuArraySort.sort`` once per
               request, paying the ~150 us per-launch fixed cost every
               time.

Load scales with the client count (closed loop: a client only issues
its next request after the previous one resolves), which is exactly the
paper's amortization story replayed at the serving layer: the unbatched
baseline is pinned near ``1 / fixed_cost`` requests/s regardless of
concurrency, while the service's per-batch cost is shared by every
request in the batch.

Gates
-----
``--gate`` (and ``--check-gate FILE`` on a committed artifact) exits
non-zero unless, at the **mid** load cell,

* batched throughput is at least 2.0× the unbatched baseline, and
* batched p99 latency stays within the cell's latency budget:
  ``linger_ms + deadline_ms`` when the cell sets a deadline, else
  ``linger_ms + 25 ms``.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_service.py --grid smoke
    PYTHONPATH=src python benchmarks/bench_service.py --grid load --gate
    PYTHONPATH=src python benchmarks/bench_service.py --grid load --out BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service.py --check-gate BENCH_service.json
"""

from __future__ import annotations

import sys
from pathlib import Path

# Runnable straight from a checkout: python benchmarks/bench_service.py
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import _artifact
from _artifact import NUM, Gate
from repro.core.config import SortConfig
from repro.service import (
    SortService,
    parse_size_mix,
    run_service_traffic,
    run_unbatched_traffic,
)

SCHEMA = "bench-service/v1"
DEFAULT_SIZE_MIX = "1:0.7,4:0.3"

# (name, clients, total_requests, array_size, linger_ms, deadline_ms).
# ``load-mid`` is the gated cell: enough concurrency that batches fill
# before the linger expires, small enough to run in CI.  ``load-low``
# documents the regime where batching cannot win (too few outstanding
# requests to coalesce — throughput is linger-bound); it is reported,
# never gated.
GRIDS = {
    "smoke": [
        ("smoke", 8, 400, 128, 0.3, None),
    ],
    "load": [
        ("load-low", 4, 1200, 256, 0.3, None),
        ("load-mid", 16, 2400, 256, 0.3, 50.0),
        ("load-high", 32, 3200, 256, 0.3, None),
    ],
}
GATE_CELL = "load-mid"


def run_cell(name, clients, total_requests, array_size, linger_ms,
             deadline_ms, *, size_mix, seed, planner=None):
    config = SortConfig()
    service = SortService(
        config=config, planner=planner, linger_ms=linger_ms
    )
    with service:
        batched = run_service_traffic(
            service,
            clients=clients,
            total_requests=total_requests,
            array_size=array_size,
            size_mix=size_mix,
            deadline_s=deadline_ms / 1e3 if deadline_ms is not None else None,
            seed=seed,
        )
        stats = service.stats()
    baseline = run_unbatched_traffic(
        clients=clients,
        total_requests=total_requests,
        array_size=array_size,
        size_mix=size_mix,
        seed=seed,
        config=config,
    )
    speedup = (batched.throughput_rps / baseline.throughput_rps
               if baseline.throughput_rps > 0 else 0.0)
    return {
        "name": name,
        "clients": clients,
        "total_requests": total_requests,
        "array_size": array_size,
        "linger_ms": linger_ms,
        "deadline_ms": deadline_ms,
        "batched": batched.as_dict(),
        "unbatched": baseline.as_dict(),
        "service_stats": stats.as_dict(),
        "speedup_batched_vs_unbatched": speedup,
    }


def run_grid(grid: str, *, size_mix, seed: int, planner=None) -> dict:
    results = []
    for cell in GRIDS[grid]:
        name, clients, total_requests, array_size, linger_ms, deadline_ms = cell
        result = run_cell(
            name, clients, total_requests, array_size, linger_ms,
            deadline_ms, size_mix=size_mix, seed=seed, planner=planner,
        )
        results.append(result)
        pct = result["batched"]["latency_ms"]
        print(
            f"  {name:10s} clients={clients:<3d} n={array_size:<5d}"
            f"  batched {result['batched']['throughput_rps']:8.0f} req/s"
            f"  unbatched {result['unbatched']['throughput_rps']:8.0f} req/s"
            f"  ({result['speedup_batched_vs_unbatched']:.2f}x)"
            f"  p99 {pct.get('p99', float('nan')):.2f} ms",
            flush=True,
        )
    return {
        "schema": SCHEMA,
        "grid": grid,
        "size_mix": [[rows, weight] for rows, weight in size_mix],
        "seed": seed,
        "host": _artifact.host_block(),
        "results": results,
        "speedups": {
            "batched_vs_unbatched_max": max(
                r["speedup_batched_vs_unbatched"] for r in results
            ),
            "batched_vs_unbatched_by_cell": {
                r["name"]: r["speedup_batched_vs_unbatched"] for r in results
            },
        },
    }


SIDE = {
    "requests_issued": int,
    "completed": int,
    "wall_seconds": NUM,
    "throughput_rps": NUM,
    "throughput_rows_per_s": NUM,
    "latency_ms": {"p50": NUM, "p95": NUM, "p99": NUM},
}
CELL = {
    "name": str,
    "clients": int,
    "total_requests": int,
    "array_size": int,
    "linger_ms": NUM,
    "batched": SIDE,
    "unbatched": SIDE,
    "service_stats": dict,
    "speedup_batched_vs_unbatched": NUM,
}
REPORT = {
    "schema": SCHEMA,
    "results": [CELL],
    "speedups": {"batched_vs_unbatched_max": NUM},
}


def _batched_speedup(report: dict, t) -> list:
    cell = _artifact.find_cell(report, t["cell"])
    if cell is None or cell["speedup_batched_vs_unbatched"] >= t["min_speedup"]:
        return []
    return [
        f"{t['cell']}: batched "
        f"{cell['batched']['throughput_rps']:.0f} req/s vs unbatched "
        f"{cell['unbatched']['throughput_rps']:.0f} req/s "
        f"({cell['speedup_batched_vs_unbatched']:.2f}x "
        f"< {t['min_speedup']:.2f}x)"
    ]


def _p99_in_budget(report: dict, t) -> list:
    """Budget: linger + the cell's deadline, else linger + p99_budget_ms
    (queueing + one batch sort + demux copies on a loaded host)."""
    cell = _artifact.find_cell(report, t["cell"])
    if cell is None:
        return []
    budget_ms = cell["linger_ms"] + (
        cell["deadline_ms"] if cell.get("deadline_ms") is not None
        else t["p99_budget_ms"]
    )
    p99 = cell["batched"]["latency_ms"].get("p99")
    if not isinstance(p99, NUM):
        return [f"{t['cell']}: no batched p99 recorded"]
    if p99 > budget_ms:
        return [f"{t['cell']}: batched p99 {p99:.2f} ms exceeds budget "
                f"{budget_ms:.2f} ms (linger + deadline)"]
    return []


GATES = (
    Gate(
        "gate",
        {"cell": GATE_CELL, "min_speedup": 2.0, "p99_budget_ms": 25.0},
        (_artifact.cells_present, _batched_speedup, _p99_in_budget),
    ),
)


def check_schema(report: dict) -> list:
    """Return a list of schema violations (empty == valid)."""
    return _artifact.check_schema(report, REPORT, GATES)


def _options(parser) -> None:
    parser.add_argument("--size-mix", default=DEFAULT_SIZE_MIX,
                        metavar="R:W,...")
    parser.add_argument(
        "--planner", choices=["auto", "fused", "radix"], default=None,
        help="execution planner handed to the service's backing sorter",
    )


def _run(args) -> dict:
    print(f"bench_service grid={args.grid} size_mix={args.size_mix} "
          f"seed={args.seed}", flush=True)
    return run_grid(args.grid, size_mix=parse_size_mix(args.size_mix),
                    seed=args.seed, planner=args.planner)


def main(argv=None) -> int:
    return _artifact.main(
        argv, description=__doc__.splitlines()[0], grids=GRIDS,
        default_grid="load", check=check_schema, gates=GATES, run=_run,
        options=_options,
    )


if __name__ == "__main__":
    raise SystemExit(main())
