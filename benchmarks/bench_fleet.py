#!/usr/bin/env python
"""Fleet scaling harness: the multi-process serving tier under load.

Standalone (no pytest-benchmark): drives the same closed-loop traffic
generator that exercises the in-process service
(:func:`repro.service.traffic.run_service_traffic` — the fleet keeps the
service's ``submit`` contract, so the driver is reused unchanged)
through :class:`repro.fleet.SortFleet` at 1, 2, and 4 workers, plus a
p99-under-overload cell and a live worker-kill failover-drain cell, and
emits ``BENCH_fleet.json`` (schema ``bench-fleet/v1``) — the artifact
``make fleet-gate`` re-checks.

What the scaling cells measure — and what they do not
-----------------------------------------------------
Each ``load-mid-{1,2,4}w`` cell offers an identical closed-loop load and
measures completed request throughput.  The cells are deliberately
**SLO-bound, not CPU-bound**: the router's per-worker admission bound
(``--worker-bound`` rows) is set *below* the worker's batch target, so a
worker's batcher never fills and every batch waits out the full linger
before sorting.  Per-worker capacity is then
``worker_bound / (linger + sort)`` rows/s — a latency-SLO budget, the
regime a deadline-driven serving tier actually runs in — and adding
workers multiplies admission capacity because N workers' linger windows
overlap.  On a single-core host (where this benchmark is developed and
gated in CI) that overlap is the *only* honest source of scaling:
aggregate sort FLOPS cannot exceed one core, and a CPU-saturated fleet
would show ~1.0x regardless of worker count.  The ``3x at 4 workers``
gate therefore certifies the serving-tier property (admission/batching
windows shard and overlap across worker processes; the router spreads
lanes without starving any worker), not a parallel-compute speedup.  On
a multi-core host the same cells additionally scale the compute.

``p99-2x`` measures overload absorption: it offers **twice the
throughput the single-worker cell just measured**, open-loop (paced
arrivals), to the full 4-worker fleet and gates p99 latency (which
*includes* backpressure retry sleeps) against a 400 ms budget.  One
worker at that rate diverges — its queue grows without bound — so the
cell certifies that the fleet absorbs a single worker's overload with
bounded delay rather than latency collapse.

``failover-drain`` submits a burst to a 2-worker fleet whose long
linger keeps every request in flight, SIGKILLs the worker holding them,
and requires 100% completion with byte-correct results and zero drops —
the two-region-slab re-dispatch path measured end to end.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_fleet.py --grid smoke
    PYTHONPATH=src python benchmarks/bench_fleet.py --grid load --gate
    PYTHONPATH=src python benchmarks/bench_fleet.py --grid load --out BENCH_fleet.json
    PYTHONPATH=src python benchmarks/bench_fleet.py --check-gate BENCH_fleet.json
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# Runnable straight from a checkout: python benchmarks/bench_fleet.py
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

import _artifact
from _artifact import NUM, ByKind, Gate
from repro.fleet import SortFleet
from repro.service import parse_size_mix, run_service_traffic

SCHEMA = "bench-fleet/v1"
DEFAULT_SIZE_MIX = "64:1.0"
#: Router-side per-worker outstanding-rows bound for the load cells.
#: Kept below the worker batch target so capacity is linger-bound (see
#: module docstring).
DEFAULT_WORKER_BOUND = 512
#: Worker batch target > worker bound: the batcher never fills early.
DEFAULT_BATCH_TARGET = 1024
DEFAULT_LINGER_MS = 40.0

GATE_CELL_1W = "load-mid-1w"
GATE_CELL_4W = "load-mid-4w"
P99_CELL = "p99-2x"
FAILOVER_CELL = "failover-drain"

# Load cells: (name, workers, clients, total_requests, array_size).
# Every load-mid-* cell offers the identical load; only the worker
# count changes.  p99-2x doubles the clients against the 4-worker
# fleet.  The smoke grid is a fast sanity pass writing to a temp path.
GRIDS = {
    "smoke": [
        ("smoke-1w", 1, 8, 64, 64),
        ("smoke-2w", 2, 8, 64, 64),
    ],
    "load": [
        ("load-mid-1w", 1, 96, 1920, 64),
        ("load-mid-2w", 2, 96, 1920, 64),
        ("load-mid-4w", 4, 96, 1920, 64),
    ],
}
#: Grids that append the failover-drain cell.
FAILOVER_GRIDS = ("load", "smoke")


def _fleet_for_cell(workers: int, *, linger_ms: float, worker_bound: int,
                    batch_target: int, **overrides) -> SortFleet:
    kwargs = dict(
        workers=workers,
        linger_ms=linger_ms,
        max_worker_queue_rows=worker_bound,
        batch_target_rows=batch_target,
        heartbeat_s=0.05,
        liveness_s=2.0,
        retry_jitter_seed=0,
        start_timeout_s=120.0,
    )
    kwargs.update(overrides)
    return SortFleet(**kwargs)


def run_load_cell(name, workers, clients, total_requests, array_size, *,
                  size_mix, seed, linger_ms, worker_bound, batch_target,
                  mode="closed", rate_rps=2000.0):
    fleet = _fleet_for_cell(
        workers, linger_ms=linger_ms, worker_bound=worker_bound,
        batch_target=batch_target,
    )
    with fleet:
        traffic = run_service_traffic(
            fleet,
            mode=mode,
            clients=clients,
            total_requests=total_requests,
            rate_rps=rate_rps,
            array_size=array_size,
            size_mix=size_mix,
            seed=seed,
            stagger=(mode == "open"),
        )
        fleet.flush(timeout=60.0)
        stats = fleet.stats()
    return {
        "name": name,
        "kind": "load",
        "mode": mode,
        "workers": workers,
        "clients": clients,
        "total_requests": total_requests,
        "offered_rate_rps": rate_rps if mode == "open" else None,
        "array_size": array_size,
        "linger_ms": linger_ms,
        "worker_bound_rows": worker_bound,
        "traffic": traffic.as_dict(),
        "fleet_stats": stats.as_dict(),
        "throughput_rps": traffic.throughput_rps,
        "throughput_rows_per_s": traffic.throughput_rows_per_s,
    }


def run_failover_cell(name, *, seed, array_size=64, rows_per_request=8,
                      requests=16):
    """Kill the worker holding a burst of in-flight requests; count the
    drain.  Gate-relevant outputs: issued == completed, drops == 0,
    every result byte-identical to ``np.sort``."""
    rng = np.random.default_rng(seed)
    fleet = _fleet_for_cell(
        2,
        linger_ms=500.0,  # long linger parks the burst in the batcher
        worker_bound=100_000,
        batch_target=1_000_000,
        liveness_s=1.0,
    )
    batches = [
        rng.uniform(0, 1e6, (rows_per_request, array_size)).astype(np.float32)
        for _ in range(requests)
    ]
    t0 = time.perf_counter()
    with fleet:
        futures = [fleet.submit(batch) for batch in batches]
        # Wait until one worker demonstrably holds the burst, then kill it.
        victim = None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            snapshot = fleet._router.snapshot()
            loaded = [w for w, (alive, _, reqs) in snapshot.items()
                      if alive and reqs > 0]
            if loaded:
                victim = loaded[0]
                break
            time.sleep(0.005)
        inflight_at_kill = (
            fleet._router.snapshot()[victim][2] if victim is not None else 0
        )
        if victim is not None:
            fleet.kill_worker(victim)
        completed = 0
        correct = 0
        dropped = 0
        for batch, future in zip(batches, futures):
            try:
                result = future.result(timeout=120.0)
            except Exception:
                dropped += 1
                continue
            completed += 1
            if np.array_equal(result, np.sort(batch, axis=1)):
                correct += 1
        stats = fleet.stats()
    wall = time.perf_counter() - t0
    return {
        "name": name,
        "kind": "failover",
        "workers": 2,
        "requests_issued": requests,
        "rows_per_request": rows_per_request,
        "array_size": array_size,
        "victim_worker": victim,
        "inflight_at_kill": inflight_at_kill,
        "completed": completed,
        "correct": correct,
        "dropped": dropped,
        "failovers": stats.failovers,
        "redispatched": stats.redispatched,
        "wall_seconds": wall,
        "fleet_stats": stats.as_dict(),
    }


def run_grid(grid: str, *, size_mix, seed: int, linger_ms: float,
             worker_bound: int, batch_target: int) -> dict:
    results = []
    for cell in GRIDS[grid]:
        name, workers, clients, total_requests, array_size = cell
        result = run_load_cell(
            name, workers, clients, total_requests, array_size,
            size_mix=size_mix, seed=seed, linger_ms=linger_ms,
            worker_bound=worker_bound, batch_target=batch_target,
        )
        results.append(result)
        pct = result["traffic"]["latency_ms"]
        print(
            f"  {name:14s} workers={workers} clients={clients:<3d}"
            f"  {result['throughput_rps']:8.1f} req/s"
            f"  {result['throughput_rows_per_s']:10.0f} rows/s"
            f"  p99 {pct.get('p99', float('nan')):8.2f} ms",
            flush=True,
        )
    # The overload cell is derived, not static: offer 2x the throughput
    # the single-worker cell just *measured* (open loop, paced arrivals)
    # to the full 4-worker fleet.  One worker at that rate diverges —
    # unbounded queue growth; four must absorb it with bounded p99.
    one_rps = next((r["throughput_rps"] for r in results
                    if r["name"] == GATE_CELL_1W), None)
    if one_rps:
        rate = 2.0 * one_rps
        cell_1w = next(r for r in results if r["name"] == GATE_CELL_1W)
        result = run_load_cell(
            P99_CELL, 4, cell_1w["clients"],
            cell_1w["total_requests"], cell_1w["array_size"],
            size_mix=size_mix, seed=seed, linger_ms=linger_ms,
            worker_bound=worker_bound, batch_target=batch_target,
            mode="open", rate_rps=rate,
        )
        results.append(result)
        pct = result["traffic"]["latency_ms"]
        print(
            f"  {P99_CELL:14s} workers=4 offered={rate:7.1f} req/s"
            f"  {result['throughput_rps']:8.1f} req/s"
            f"  {result['throughput_rows_per_s']:10.0f} rows/s"
            f"  p99 {pct.get('p99', float('nan')):8.2f} ms",
            flush=True,
        )

    if grid in FAILOVER_GRIDS:
        result = run_failover_cell(FAILOVER_CELL, seed=seed)
        results.append(result)
        print(
            f"  {FAILOVER_CELL:14s} issued={result['requests_issued']}"
            f" inflight_at_kill={result['inflight_at_kill']}"
            f" completed={result['completed']}"
            f" correct={result['correct']}"
            f" dropped={result['dropped']}"
            f" redispatched={result['redispatched']}",
            flush=True,
        )

    by_workers = {
        str(r["workers"]): r["throughput_rps"]
        for r in results if r.get("kind") == "load"
        and r["name"].startswith(("load-mid", "smoke"))
    }
    one = next((r["throughput_rps"] for r in results
                if r["name"] == GATE_CELL_1W), None)
    four = next((r["throughput_rps"] for r in results
                 if r["name"] == GATE_CELL_4W), None)
    scaling_4w = (four / one) if one and four else None
    return {
        "schema": SCHEMA,
        "grid": grid,
        "size_mix": [[rows, weight] for rows, weight in size_mix],
        "seed": seed,
        "tuning": {
            "linger_ms": linger_ms,
            "worker_bound_rows": worker_bound,
            "batch_target_rows": batch_target,
        },
        "host": _artifact.host_block(),
        "results": results,
        "scaling": {
            "throughput_rps_by_workers": by_workers,
            "speedup_4w_vs_1w": scaling_4w,
        },
    }


LOAD_SPEC = {
    "name": str,
    "workers": int,
    "clients": int,
    "total_requests": int,
    "array_size": int,
    "linger_ms": NUM,
    "traffic": {
        "requests_issued": int,
        "completed": int,
        "wall_seconds": NUM,
        "throughput_rps": NUM,
        "latency_ms": dict,
    },
    "fleet_stats": dict,
    "throughput_rps": NUM,
}
FAILOVER_SPEC = {
    "name": str,
    "workers": int,
    "requests_issued": int,
    "completed": int,
    "correct": int,
    "dropped": int,
    "failovers": int,
    "redispatched": int,
    "fleet_stats": dict,
}
REPORT = {
    "schema": SCHEMA,
    "results": [ByKind({"load": LOAD_SPEC, "failover": FAILOVER_SPEC})],
    "scaling": {"throughput_rps_by_workers": dict},
}


def _scaling(report: dict, t) -> list:
    one = _artifact.find_cell(report, GATE_CELL_1W)
    four = _artifact.find_cell(report, GATE_CELL_4W)
    if one is None or four is None:
        return []
    base, scaled = one["throughput_rps"], four["throughput_rps"]
    ratio = scaled / base if base > 0 else 0.0
    if ratio >= t["min_scaling_4w"]:
        return []
    return [f"{GATE_CELL_4W}: {scaled:.1f} req/s vs single-worker "
            f"{base:.1f} req/s ({ratio:.2f}x < {t['min_scaling_4w']:.2f}x)"]


def _overload_p99(report: dict, t) -> list:
    """The 2x-overload budget covers admission retry sleeps plus a few
    linger windows of queueing on a saturated single-core host."""
    cell = _artifact.find_cell(report, P99_CELL)
    if cell is None:
        return []
    p99 = cell["traffic"]["latency_ms"].get("p99")
    if not isinstance(p99, NUM):
        return [f"{P99_CELL}: no p99 recorded"]
    if p99 > t["p99_budget_ms"]:
        return [f"{P99_CELL}: p99 {p99:.2f} ms exceeds budget "
                f"{t['p99_budget_ms']:.2f} ms under 2x load"]
    return []


def _failover_drain(report: dict, t) -> list:
    cell = _artifact.find_cell(report, FAILOVER_CELL)
    if cell is None:
        return []
    issued = cell["requests_issued"]
    failures = []
    if cell["dropped"] != 0:
        failures.append(f"{FAILOVER_CELL}: {cell['dropped']} request(s) dropped")
    if cell["completed"] != issued:
        failures.append(f"{FAILOVER_CELL}: completed {cell['completed']} of "
                        f"{issued} issued")
    if cell["correct"] != issued:
        failures.append(f"{FAILOVER_CELL}: only {cell['correct']} of "
                        f"{issued} results byte-correct")
    if cell["failovers"] < 1:
        failures.append(
            f"{FAILOVER_CELL}: no failover recorded (victim never died?)"
        )
    return failures


GATES = (
    Gate(
        "gate",
        {
            "cells": [GATE_CELL_1W, GATE_CELL_4W, P99_CELL, FAILOVER_CELL],
            "min_scaling_4w": 3.0,
            "p99_budget_ms": 400.0,
        },
        (_artifact.cells_present, _scaling, _overload_p99, _failover_drain),
    ),
)


def check_schema(report: dict) -> list:
    """Return a list of schema violations (empty == valid)."""
    errors = _artifact.check_schema(report, REPORT, GATES)
    # A cell that completed nothing has an empty latency block; any other
    # must carry every percentile.
    for i, cell in enumerate(report.get("results") or []):
        traffic = cell.get("traffic") if isinstance(cell, dict) else None
        latency = traffic.get("latency_ms") if isinstance(traffic, dict) else None
        if isinstance(latency, dict) and latency:
            errors += [f"results[{i}].traffic.latency_ms.{key} missing or "
                       "non-numeric" for key in ("p50", "p95", "p99")
                       if not isinstance(latency.get(key), NUM)]
    return errors


def _options(parser) -> None:
    parser.add_argument("--size-mix", default=DEFAULT_SIZE_MIX,
                        metavar="R:W,...")
    parser.add_argument("--linger-ms", type=float, default=DEFAULT_LINGER_MS)
    parser.add_argument(
        "--worker-bound", type=int, default=DEFAULT_WORKER_BOUND,
        help="router per-worker outstanding-rows admission bound",
    )
    parser.add_argument(
        "--batch-target", type=int, default=DEFAULT_BATCH_TARGET,
        help="worker service batch target (kept above --worker-bound so "
             "load cells stay linger-bound; see module docstring)",
    )


def _run(args) -> dict:
    print(f"bench_fleet grid={args.grid} size_mix={args.size_mix} "
          f"seed={args.seed} linger={args.linger_ms}ms "
          f"bound={args.worker_bound} rows/worker", flush=True)
    return run_grid(
        args.grid, size_mix=parse_size_mix(args.size_mix), seed=args.seed,
        linger_ms=args.linger_ms, worker_bound=args.worker_bound,
        batch_target=args.batch_target,
    )


def main(argv=None) -> int:
    return _artifact.main(
        argv, description=__doc__.splitlines()[0], grids=GRIDS,
        default_grid="load", check=check_schema, gates=GATES, run=_run,
        options=_options,
    )


if __name__ == "__main__":
    raise SystemExit(main())
