#!/usr/bin/env python
"""Serving harness: batched SortService vs per-request baseline under load.

Standalone (no pytest-benchmark): drives synthetic closed-loop traffic
through :class:`repro.service.SortService` across a ladder of load cells
and emits ``BENCH_service.json`` (schema ``bench-service/v1``) — the
artifact ``make service-gate`` checks.

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
``--gate`` exits non-zero unless, at the **mid** load cell,

* batched throughput is at least ``--min-speedup``× (default 2.0) the
  unbatched baseline, and
* batched p99 latency stays within the cell's latency budget:
  ``linger_ms + deadline_ms`` when the cell sets a deadline, else
  ``linger_ms + --p99-budget-ms``.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_service.py --grid smoke
    PYTHONPATH=src python benchmarks/bench_service.py --grid load --gate
    PYTHONPATH=src python benchmarks/bench_service.py --grid load --out BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service.py --check-schema BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# Runnable straight from a checkout: python benchmarks/bench_service.py
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.core.config import SortConfig
from repro.service import (
    SortService,
    parse_size_mix,
    run_service_traffic,
    run_unbatched_traffic,
)

SCHEMA = "bench-service/v1"
DEFAULT_MIN_SPEEDUP = 2.0
#: p99 allowance past the linger for cells without an explicit deadline:
#: queueing + one batch sort + demux copies on a loaded host.
DEFAULT_P99_BUDGET_MS = 25.0
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
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
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


def check_schema(report: dict) -> list:
    """Return a list of schema violations (empty == valid)."""
    errors = []
    if report.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {report.get('schema')!r}")
    results = report.get("results")
    if not isinstance(results, list) or not results:
        errors.append("results must be a non-empty list")
        results = []
    required = {
        "name": str,
        "clients": int,
        "total_requests": int,
        "array_size": int,
        "linger_ms": (int, float),
        "batched": dict,
        "unbatched": dict,
        "service_stats": dict,
        "speedup_batched_vs_unbatched": (int, float),
    }
    side_required = {
        "requests_issued": int,
        "completed": int,
        "wall_seconds": (int, float),
        "throughput_rps": (int, float),
        "throughput_rows_per_s": (int, float),
        "latency_ms": dict,
    }
    for i, cell in enumerate(results):
        for key, typ in required.items():
            if not isinstance(cell.get(key), typ):
                errors.append(f"results[{i}].{key} missing or not {typ}")
        for side in ("batched", "unbatched"):
            block = cell.get(side)
            if not isinstance(block, dict):
                continue
            for key, typ in side_required.items():
                if not isinstance(block.get(key), typ):
                    errors.append(
                        f"results[{i}].{side}.{key} missing or not {typ}"
                    )
            latency = block.get("latency_ms")
            if isinstance(latency, dict):
                for pkey in ("p50", "p95", "p99"):
                    if not isinstance(latency.get(pkey), (int, float)):
                        errors.append(
                            f"results[{i}].{side}.latency_ms.{pkey} "
                            "missing or non-numeric"
                        )
    speedups = report.get("speedups")
    if not isinstance(speedups, dict) or not isinstance(
        speedups.get("batched_vs_unbatched_max"), (int, float)
    ):
        errors.append("speedups.batched_vs_unbatched_max missing or non-numeric")
    if "gate" in report:
        gate = report["gate"]
        if not isinstance(gate, dict) or not isinstance(gate.get("passed"), bool):
            errors.append("gate must be a dict with a boolean 'passed'")
    return errors


def apply_gate(report: dict, min_speedup: float,
               p99_budget_ms: float = DEFAULT_P99_BUDGET_MS,
               cell_name: str = GATE_CELL) -> bool:
    """Gate the mid load cell: speedup and p99-within-budget."""
    failures = []
    cell = next(
        (r for r in report["results"] if r["name"] == cell_name), None
    )
    if cell is None:
        failures.append(f"gate cell {cell_name!r} not in results "
                        "(run with a grid that includes it)")
    else:
        speedup = cell["speedup_batched_vs_unbatched"]
        if speedup < min_speedup:
            failures.append(
                f"{cell_name}: batched "
                f"{cell['batched']['throughput_rps']:.0f} req/s vs unbatched "
                f"{cell['unbatched']['throughput_rps']:.0f} req/s "
                f"({speedup:.2f}x < {min_speedup:.2f}x)"
            )
        budget_ms = cell["linger_ms"] + (
            cell["deadline_ms"] if cell.get("deadline_ms") is not None
            else p99_budget_ms
        )
        p99 = cell["batched"]["latency_ms"].get("p99")
        if not isinstance(p99, (int, float)):
            failures.append(f"{cell_name}: no batched p99 recorded")
        elif p99 > budget_ms:
            failures.append(
                f"{cell_name}: batched p99 {p99:.2f} ms exceeds budget "
                f"{budget_ms:.2f} ms (linger + deadline)"
            )
    report["gate"] = {
        "cell": cell_name,
        "min_speedup": min_speedup,
        "p99_budget_ms": p99_budget_ms,
        "passed": not failures,
        "failures": failures,
    }
    return not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", choices=sorted(GRIDS), default="load")
    parser.add_argument("--size-mix", default=DEFAULT_SIZE_MIX,
                        metavar="R:W,...")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--planner", choices=["auto", "fused", "radix"], default=None,
        help="execution planner handed to the service's backing sorter",
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 unless the mid cell hits --min-speedup x unbatched "
             "with p99 inside the latency budget",
    )
    parser.add_argument("--min-speedup", type=float,
                        default=DEFAULT_MIN_SPEEDUP)
    parser.add_argument(
        "--p99-budget-ms", type=float, default=DEFAULT_P99_BUDGET_MS,
        help="p99 allowance past the linger for cells without a deadline",
    )
    parser.add_argument(
        "--check-schema", type=Path, metavar="JSON",
        help="validate an existing report file and exit (no benchmarking)",
    )
    args = parser.parse_args(argv)

    if args.check_schema is not None:
        report = json.loads(args.check_schema.read_text())
        errors = check_schema(report)
        for err in errors:
            print(f"schema error: {err}", file=sys.stderr)
        print(f"{args.check_schema}: " + ("INVALID" if errors else "ok"))
        return 1 if errors else 0

    size_mix = parse_size_mix(args.size_mix)
    print(f"bench_service grid={args.grid} size_mix={args.size_mix} "
          f"seed={args.seed}", flush=True)
    report = run_grid(args.grid, size_mix=size_mix, seed=args.seed,
                      planner=args.planner)
    ok = (apply_gate(report, args.min_speedup, args.p99_budget_ms)
          if args.gate else True)

    errors = check_schema(report)
    if errors:  # self-check: the emitter must satisfy its own schema
        for err in errors:
            print(f"schema error: {err}", file=sys.stderr)
        return 2

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)

    if args.gate:
        gate = report["gate"]
        for failure in gate["failures"]:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        print(f"gate: {'passed' if gate['passed'] else 'FAILED'} "
              f"(cell={gate['cell']}, min_speedup={gate['min_speedup']})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
