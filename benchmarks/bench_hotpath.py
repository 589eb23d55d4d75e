#!/usr/bin/env python
"""Hot-path perf harness: fused vs unfused, serial vs sharded vs planned.

Standalone (no pytest-benchmark): measures the vectorized engine's code
paths over a dtype × (N, n) grid and emits ``BENCH_hotpath.json``
(schema ``bench-hotpath/v3``) — the artifact ``make bench-gate`` checks.

Engines measured per cell
-------------------------
``fused``    serial vectorized, phases 2+3 fused (the default);
``unfused``  serial vectorized, paper-faithful separate phases;
``sharded``  ThreadPoolEngine row shards;
``radix``    the flat non-comparison row sort (``planner="radix"``,
             :mod:`repro.core.radix`) — no phase-1 sampling, no bucket
             metadata;
``planner``  the ``planner="auto"`` rule,
             :class:`repro.planner.ExecutionPlanner` (warmed up before
             timing).

All engines are measured round-robin *within* each repeat so slow drifts
in host load (thermal, cache, sibling processes) wash out across engines
instead of biasing whichever engine was measured last.

Gates
-----
``--gate`` exits non-zero unless the fused path is at least
``--min-speedup``× (default 1.0 — "fused must never be slower") faster
than the unfused path on **every** grid cell.  ``--gate-planner`` exits
non-zero unless the planner lands within ``--planner-tolerance`` (default
1.10×) of the best static engine on **every** cell — since the fused
serial engine is one of the static candidates, this also bounds the
planner against serial.  The committed artifact additionally records the
Fig. 4 fused-vs-unfused speedup, pinned ≥ 2 by
``tests/test_bench_hotpath.py``.

``--gate-radix`` exits non-zero unless, on every large-n cell where the
radix engine should win (``radix_expected`` — uniform float32/int32,
n ≥ 2000), radix beats fused by ``--radix-min-speedup`` (default 1.5×)
**and** the ``auto`` planner picked the radix engine there without any
flag.  ``--check-radix-gate FILE`` re-evaluates that gate from a
committed artifact's stored numbers (what ``make radix-gate`` runs), so
CI pins the claim without re-benchmarking.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_hotpath.py --grid smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --grid reference --gate --gate-planner --gate-radix
    PYTHONPATH=src python benchmarks/bench_hotpath.py --grid fig4 --out BENCH_hotpath.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check-schema BENCH_hotpath.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check-radix-gate BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# Runnable straight from a checkout: python benchmarks/bench_hotpath.py
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.core import GpuArraySort, SortConfig
from repro.planner import ExecutionPlanner

SCHEMA = "bench-hotpath/v3"
DEFAULT_PLANNER_TOLERANCE = 1.10
DEFAULT_RADIX_MIN_SPEEDUP = 1.5
# Fixed per-sort planning cost (plan lookup + timing + EMA update) is
# ~50 us; on sub-millisecond cells that fixed cost dwarfs the 10%
# relative tolerance, so the gate allows it as an absolute slack.
DEFAULT_PLANNER_SLACK_MS = 0.25
DEFAULT_PLANNER_WARMUP = 4

# (name, dtype, N, n) cells.  Shapes chosen so the unfused path stays
# tractable on one host core — the fused/unfused ratio, not absolute
# time, is what the gate consumes.
GRIDS = {
    "smoke": [
        ("smoke-f32", "float32", 200, 200),
        ("smoke-f64", "float64", 200, 200),
        ("smoke-i64", "int64", 100, 400),
    ],
    "reference": [
        ("ref-f32-small", "float32", 1000, 500),
        ("ref-f32-mid", "float32", 5000, 1000),
        ("ref-f64-mid", "float64", 2000, 1000),
        ("ref-i32-mid", "int32", 2000, 1000),
        ("ref-i64-small", "int64", 1000, 500),
        ("radix-f32-large", "float32", 1000, 4000),
        ("radix-i32-large", "int32", 1000, 4000),
    ],
    "fig4": [
        ("ref-f32-small", "float32", 1000, 500),
        ("ref-f32-mid", "float32", 5000, 1000),
        ("ref-f64-mid", "float64", 2000, 1000),
        ("ref-i32-mid", "int32", 2000, 1000),
        ("ref-i64-small", "int64", 1000, 500),
        ("radix-f32-large", "float32", 1000, 4000),
        ("radix-i32-large", "int32", 1000, 4000),
        ("fig4-f32", "float32", 100_000, 1000),
    ],
}

#: Cells where the radix engine is *expected* to beat fused (large n,
#: uniform keys — the regime the ROADMAP's radix item names).  The
#: radix gate applies only here; elsewhere radix is merely measured.
RADIX_EXPECTED = frozenset({"radix-f32-large", "radix-i32-large"})

STATIC_ENGINES = ("fused", "unfused", "sharded", "radix")


def _make_batch(dtype: str, num_arrays: int, array_size: int) -> np.ndarray:
    rng = np.random.default_rng(20160814)  # the paper's year+venue, fixed
    if np.dtype(dtype).kind == "f":
        return rng.uniform(0.0, 1e6, (num_arrays, array_size)).astype(dtype)
    return rng.integers(0, 2**30, (num_arrays, array_size)).astype(dtype)


def _measure_round_robin(sorters: dict, batch: np.ndarray, repeats: int):
    """Median wall ms + median per-phase ms per engine, interleaved.

    Each repeat times every engine once before moving to the next repeat,
    so host-load drift hits all engines equally.  Returns
    ``{key: (median_ms, median_phase_ms, last_result)}``.
    """
    totals = {key: [] for key in sorters}
    phases = {key: [] for key in sorters}
    last = {}
    for _ in range(repeats):
        for key, sorter in sorters.items():
            t0 = time.perf_counter()
            result = sorter.sort(batch)  # sort() copies; batch is reusable
            totals[key].append((time.perf_counter() - t0) * 1e3)
            phases[key].append(
                {k: v * 1e3 for k, v in result.phase_seconds.items()}
            )
            last[key] = result
    out = {}
    for key in sorters:
        # The planner may switch engines between repeats; median over the
        # repeats that actually ran each phase (keyed off the last repeat).
        keys = phases[key][-1].keys()
        median_phases = {
            k: statistics.median(p[k] for p in phases[key] if k in p)
            for k in keys
        }
        out[key] = (statistics.median(totals[key]), median_phases, last[key])
    return out


def run_grid(grid: str, repeats: int, workers: int,
             planner_warmup: int = DEFAULT_PLANNER_WARMUP) -> dict:
    cells = GRIDS[grid]
    results = []
    # One planner for the whole grid: per-shape observations never
    # collide (shape-class keys), and a private instance keeps the
    # process-wide default planner untouched.
    planner = ExecutionPlanner()
    for name, dtype, num_arrays, array_size in cells:
        batch = _make_batch(dtype, num_arrays, array_size)
        sorters = {
            "fused": GpuArraySort(SortConfig(fuse_phases=True)),
            "unfused": GpuArraySort(SortConfig(fuse_phases=False)),
            "sharded": GpuArraySort(parallel="thread", workers=workers),
            "radix": GpuArraySort(planner="radix"),
            "planner": GpuArraySort(planner=planner),
        }
        # Warm the planner outside the timed region, so the measured plan
        # is an observed one.
        for _ in range(max(0, planner_warmup)):
            sorters["planner"].sort(batch)
        measured = _measure_round_robin(sorters, batch, repeats)
        fused_ms, fused_phases, _ = measured["fused"]
        unfused_ms, unfused_phases, _ = measured["unfused"]
        sharded_ms, _, _ = measured["sharded"]
        radix_ms, radix_phases, _ = measured["radix"]
        planner_ms, planner_phases, planner_result = measured["planner"]
        plan = getattr(planner_result, "execution_plan", None)
        best_static_ms = min(fused_ms, unfused_ms, sharded_ms, radix_ms)
        results.append(
            {
                "name": name,
                "dtype": dtype,
                "num_arrays": num_arrays,
                "array_size": array_size,
                "repeats": repeats,
                "fused_ms": fused_ms,
                "unfused_ms": unfused_ms,
                "sharded_ms": sharded_ms,
                "radix_ms": radix_ms,
                "planner_ms": planner_ms,
                "fused_phase_ms": fused_phases,
                "unfused_phase_ms": unfused_phases,
                "radix_phase_ms": radix_phases,
                "planner_phase_ms": planner_phases,
                "planner_engine": plan.engine if plan is not None else "serial",
                "planner_plan_source": plan.source if plan is not None else "",
                "radix_expected": name in RADIX_EXPECTED,
                "speedup_fused_vs_unfused": unfused_ms / fused_ms,
                "speedup_sharded_vs_serial": fused_ms / sharded_ms,
                "speedup_radix_vs_fused": fused_ms / radix_ms,
                "planner_vs_best_static": planner_ms / best_static_ms,
            }
        )
        print(
            f"  {name:16s} {dtype:8s} N={num_arrays:<7d} n={array_size:<5d}"
            f"  fused {fused_ms:9.1f} ms  unfused {unfused_ms:9.1f} ms"
            f"  ({unfused_ms / fused_ms:.1f}x)"
            f"  radix {radix_ms:9.1f} ms"
            f"  planner {planner_ms:9.1f} ms"
            f" [{results[-1]['planner_engine']}]",
            flush=True,
        )
    speedups = [r["speedup_fused_vs_unfused"] for r in results]
    radix_expected_speedups = [
        r["speedup_radix_vs_fused"] for r in results if r["radix_expected"]
    ]
    return {
        "schema": SCHEMA,
        "grid": grid,
        "workers": workers,
        "planner_warmup": planner_warmup,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "results": results,
        "speedups": {
            "fused_vs_unfused_min": min(speedups),
            "fused_vs_unfused_median": statistics.median(speedups),
            "sharded_vs_serial_median": statistics.median(
                r["speedup_sharded_vs_serial"] for r in results
            ),
            "planner_vs_best_static_max": max(
                r["planner_vs_best_static"] for r in results
            ),
            "radix_vs_fused_median": statistics.median(
                r["speedup_radix_vs_fused"] for r in results
            ),
            # Over the radix_expected cells only; None on grids (smoke)
            # that carry no such cell.
            "radix_vs_fused_expected_min": (
                min(radix_expected_speedups)
                if radix_expected_speedups
                else None
            ),
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
        "dtype": str,
        "num_arrays": int,
        "array_size": int,
        "repeats": int,
        "fused_ms": (int, float),
        "unfused_ms": (int, float),
        "sharded_ms": (int, float),
        "radix_ms": (int, float),
        "planner_ms": (int, float),
        "fused_phase_ms": dict,
        "unfused_phase_ms": dict,
        "radix_phase_ms": dict,
        "planner_phase_ms": dict,
        "planner_engine": str,
        "radix_expected": bool,
        "speedup_fused_vs_unfused": (int, float),
        "speedup_sharded_vs_serial": (int, float),
        "speedup_radix_vs_fused": (int, float),
        "planner_vs_best_static": (int, float),
    }
    for i, cell in enumerate(results):
        for key, typ in required.items():
            if not isinstance(cell.get(key), typ):
                errors.append(f"results[{i}].{key} missing or not {typ}")
        for key in ("fused_ms", "unfused_ms", "sharded_ms", "radix_ms",
                    "planner_ms"):
            value = cell.get(key)
            if isinstance(value, (int, float)) and value <= 0:
                errors.append(f"results[{i}].{key} must be > 0")
    speedups = report.get("speedups")
    if not isinstance(speedups, dict):
        errors.append("speedups must be a dict")
    else:
        for key in (
            "fused_vs_unfused_min",
            "fused_vs_unfused_median",
            "sharded_vs_serial_median",
            "planner_vs_best_static_max",
            "radix_vs_fused_median",
        ):
            if not isinstance(speedups.get(key), (int, float)):
                errors.append(f"speedups.{key} missing or non-numeric")
        expected_min = speedups.get("radix_vs_fused_expected_min", None)
        has_expected = any(
            isinstance(cell, dict) and cell.get("radix_expected")
            for cell in results
        )
        if has_expected and not isinstance(expected_min, (int, float)):
            errors.append(
                "speedups.radix_vs_fused_expected_min missing or non-numeric "
                "despite radix_expected cells"
            )
    for block in ("gate", "planner_gate", "radix_gate"):
        if block in report:
            gate = report[block]
            if not isinstance(gate, dict) or not isinstance(
                gate.get("passed"), bool
            ):
                errors.append(f"{block} must be a dict with a boolean 'passed'")
    return errors


def apply_gate(report: dict, min_speedup: float) -> bool:
    failures = [
        f"{r['name']}: fused {r['fused_ms']:.1f} ms vs unfused "
        f"{r['unfused_ms']:.1f} ms ({r['speedup_fused_vs_unfused']:.2f}x "
        f"< {min_speedup:.2f}x)"
        for r in report["results"]
        if r["speedup_fused_vs_unfused"] < min_speedup
    ]
    report["gate"] = {
        "min_speedup": min_speedup,
        "passed": not failures,
        "failures": failures,
    }
    return not failures


def apply_planner_gate(report: dict, tolerance: float,
                       slack_ms: float = DEFAULT_PLANNER_SLACK_MS) -> bool:
    """Planner must be within ``tolerance``× (+ ``slack_ms``) of the best
    static engine.

    The fused serial engine is one of the static candidates, so passing
    this gate also guarantees the planner is never materially slower than
    the serial path.  ``slack_ms`` absorbs the fixed per-sort planning
    cost, which is invisible at reference scale but dominates cells that
    finish in well under a millisecond.
    """
    failures = []
    for r in report["results"]:
        best = min(r[f"{engine}_ms"] for engine in STATIC_ENGINES)
        if r["planner_ms"] > tolerance * best + slack_ms:
            failures.append(
                f"{r['name']}: planner {r['planner_ms']:.1f} ms "
                f"[{r['planner_engine']}] vs best static {best:.1f} ms "
                f"({r['planner_ms'] / best:.2f}x > {tolerance:.2f}x "
                f"+ {slack_ms:.2f} ms)"
            )
    report["planner_gate"] = {
        "tolerance": tolerance,
        "slack_ms": slack_ms,
        "passed": not failures,
        "failures": failures,
    }
    return not failures


def apply_radix_gate(
    report: dict, min_speedup: float = DEFAULT_RADIX_MIN_SPEEDUP
) -> bool:
    """On every ``radix_expected`` cell, radix must beat fused by
    ``min_speedup``× **and** the ``auto`` planner must have picked the
    radix engine there on its own.

    Both conditions are recomputed from the stored per-cell numbers, so
    the gate can be re-applied to a committed artifact
    (``--check-radix-gate``) without re-benchmarking — the same pattern
    as the chaos gate.
    """
    failures = []
    expected = [r for r in report["results"] if r.get("radix_expected")]
    if not expected:
        failures.append(
            "no radix_expected cells in this grid - the radix gate needs "
            "at least one large-n cell where radix should win"
        )
    for r in expected:
        if r["speedup_radix_vs_fused"] < min_speedup:
            failures.append(
                f"{r['name']}: radix {r['radix_ms']:.1f} ms vs fused "
                f"{r['fused_ms']:.1f} ms ({r['speedup_radix_vs_fused']:.2f}x "
                f"< {min_speedup:.2f}x)"
            )
        if r["planner_engine"] != "radix":
            failures.append(
                f"{r['name']}: adaptive planner settled on "
                f"{r['planner_engine']!r}, not 'radix'"
            )
    report["radix_gate"] = {
        "min_speedup": min_speedup,
        "passed": not failures,
        "failures": failures,
    }
    return not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", choices=sorted(GRIDS), default="reference")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--workers", type=int, default=0,
        help="thread workers for the sharded column (0 = cpu count)",
    )
    parser.add_argument(
        "--planner-warmup", type=int, default=DEFAULT_PLANNER_WARMUP,
        help="untimed planner repeats per cell before measurement",
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 if fused is slower than --min-speedup x unfused anywhere",
    )
    parser.add_argument("--min-speedup", type=float, default=1.0)
    parser.add_argument(
        "--gate-planner", action="store_true",
        help="exit 1 if the planner exceeds --planner-tolerance x the best "
             "static engine on any cell",
    )
    parser.add_argument(
        "--planner-tolerance", type=float, default=DEFAULT_PLANNER_TOLERANCE,
    )
    parser.add_argument(
        "--planner-slack-ms", type=float, default=DEFAULT_PLANNER_SLACK_MS,
        help="absolute allowance on top of the relative tolerance, "
             "covering fixed planning overhead on sub-millisecond cells",
    )
    parser.add_argument(
        "--gate-radix", action="store_true",
        help="exit 1 unless radix beats fused by --radix-min-speedup x on "
             "every radix_expected cell and the planner picked it there",
    )
    parser.add_argument(
        "--radix-min-speedup", type=float, default=DEFAULT_RADIX_MIN_SPEEDUP,
    )
    parser.add_argument(
        "--check-schema", type=Path, metavar="JSON",
        help="validate an existing report file and exit (no benchmarking)",
    )
    parser.add_argument(
        "--check-radix-gate", type=Path, metavar="JSON",
        help="re-apply the radix gate to a committed report file and exit "
             "(no benchmarking); this is what 'make radix-gate' runs",
    )
    args = parser.parse_args(argv)

    if args.check_schema is not None:
        report = json.loads(args.check_schema.read_text())
        errors = check_schema(report)
        for err in errors:
            print(f"schema error: {err}", file=sys.stderr)
        print(f"{args.check_schema}: " + ("INVALID" if errors else "ok"))
        return 1 if errors else 0

    if args.check_radix_gate is not None:
        report = json.loads(args.check_radix_gate.read_text())
        errors = check_schema(report)
        for err in errors:
            print(f"schema error: {err}", file=sys.stderr)
        if errors:
            print(f"{args.check_radix_gate}: INVALID")
            return 1
        passed = apply_radix_gate(report, args.radix_min_speedup)
        gate = report["radix_gate"]
        for failure in gate["failures"]:
            print(f"RADIX GATE FAIL: {failure}", file=sys.stderr)
        print(f"{args.check_radix_gate}: radix gate "
              f"{'passed' if passed else 'FAILED'} "
              f"(min_speedup={gate['min_speedup']})")
        return 0 if passed else 1

    workers = args.workers or (os.cpu_count() or 1)
    print(f"bench_hotpath grid={args.grid} repeats={args.repeats} "
          f"workers={workers} planner_warmup={args.planner_warmup}",
          flush=True)
    report = run_grid(args.grid, max(1, args.repeats), workers,
                      planner_warmup=args.planner_warmup)
    ok = apply_gate(report, args.min_speedup) if args.gate else True
    if args.gate_planner:
        ok = apply_planner_gate(
            report, args.planner_tolerance, args.planner_slack_ms
        ) and ok
    if args.gate_radix:
        ok = apply_radix_gate(report, args.radix_min_speedup) and ok

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
              f"(min_speedup={gate['min_speedup']})")
    if args.gate_planner:
        gate = report["planner_gate"]
        for failure in gate["failures"]:
            print(f"PLANNER GATE FAIL: {failure}", file=sys.stderr)
        print(f"planner gate: {'passed' if gate['passed'] else 'FAILED'} "
              f"(tolerance={gate['tolerance']})")
    if args.gate_radix:
        gate = report["radix_gate"]
        for failure in gate["failures"]:
            print(f"RADIX GATE FAIL: {failure}", file=sys.stderr)
        print(f"radix gate: {'passed' if gate['passed'] else 'FAILED'} "
              f"(min_speedup={gate['min_speedup']})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
