#!/usr/bin/env python
"""Hot-path perf harness: fused vs unfused vs radix.

Standalone (no pytest-benchmark): measures the vectorized engine's code
paths over a dtype × (N, n) grid and emits ``BENCH_hotpath.json``
(schema ``bench-hotpath/v3``) — the artifact ``make hotpath-gate``
re-checks.

Engines measured per cell
-------------------------
``fused``    serial vectorized, phases 2+3 fused (the default);
``unfused``  serial vectorized, paper-faithful separate phases;
``radix``    the flat in-place row sort (``planner="radix"``,
             :mod:`repro.core.radix`) — no phase-1 sampling, no bucket
             metadata.  ``planner="auto"`` runs this engine for every
             batch, so it is not timed separately.

All engines are measured round-robin *within* each repeat so slow drifts
in host load (thermal, cache, sibling processes) wash out across engines
instead of biasing whichever engine was measured last.

Gates
-----
``--gate`` (and ``--check-gate FILE`` on a committed artifact) writes
two blocks and exits non-zero unless both pass:

``gate``        the fused path is at least 1.0× the unfused path ("fused
                must never be slower") on **every** grid cell;
``radix_gate``  on every large-n cell where the radix engine should win
                (``radix_expected`` — uniform float32/int32, n ≥ 2000),
                radix beats fused by at least 1.5×.

The committed artifact additionally records the Fig. 4 fused-vs-unfused
speedup, pinned ≥ 2 by ``tests/test_bench_hotpath.py``; only the
``fig4`` grid (``make bench-hotpath``) carries that cell.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_hotpath.py --grid smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --grid reference --gate
    PYTHONPATH=src python benchmarks/bench_hotpath.py --grid fig4 --gate --out BENCH_hotpath.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check-schema BENCH_hotpath.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check-gate BENCH_hotpath.json
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

# Runnable straight from a checkout: python benchmarks/bench_hotpath.py
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

import _artifact
from _artifact import NUM, Gate
from repro.core import GpuArraySort, SortConfig

SCHEMA = "bench-hotpath/v3"
#: The paper's year+venue: the fixed seed every committed grid used.
DEFAULT_SEED = 20160814

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


def _make_batch(dtype: str, num_arrays: int, array_size: int,
                seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if np.dtype(dtype).kind == "f":
        return rng.uniform(0.0, 1e6, (num_arrays, array_size)).astype(dtype)
    return rng.integers(0, 2**30, (num_arrays, array_size)).astype(dtype)


def _measure_round_robin(sorters: dict, batch: np.ndarray, repeats: int):
    """Median wall ms + median per-phase ms per engine, interleaved.

    Each repeat times every engine once before moving to the next repeat,
    so host-load drift hits all engines equally.  Returns
    ``{key: (median_ms, median_phase_ms)}``.
    """
    totals = {key: [] for key in sorters}
    phases = {key: [] for key in sorters}
    for _ in range(repeats):
        for key, sorter in sorters.items():
            t0 = time.perf_counter()
            result = sorter.sort(batch)  # sort() copies; batch is reusable
            totals[key].append((time.perf_counter() - t0) * 1e3)
            phases[key].append(
                {k: v * 1e3 for k, v in result.phase_seconds.items()}
            )
    return {
        key: (
            statistics.median(totals[key]),
            {k: statistics.median(p[k] for p in phases[key])
             for k in phases[key][-1]},
        )
        for key in sorters
    }


def run_grid(grid: str, repeats: int, seed: int = DEFAULT_SEED) -> dict:
    results = []
    for name, dtype, num_arrays, array_size in GRIDS[grid]:
        batch = _make_batch(dtype, num_arrays, array_size, seed)
        sorters = {
            "fused": GpuArraySort(SortConfig(fuse_phases=True)),
            "unfused": GpuArraySort(SortConfig(fuse_phases=False)),
            "radix": GpuArraySort(planner="radix"),
        }
        measured = _measure_round_robin(sorters, batch, repeats)
        fused_ms, fused_phases = measured["fused"]
        unfused_ms, unfused_phases = measured["unfused"]
        radix_ms, radix_phases = measured["radix"]
        results.append(
            {
                "name": name,
                "dtype": dtype,
                "num_arrays": num_arrays,
                "array_size": array_size,
                "repeats": repeats,
                "fused_ms": fused_ms,
                "unfused_ms": unfused_ms,
                "radix_ms": radix_ms,
                "fused_phase_ms": fused_phases,
                "unfused_phase_ms": unfused_phases,
                "radix_phase_ms": radix_phases,
                "radix_expected": name in RADIX_EXPECTED,
                "speedup_fused_vs_unfused": unfused_ms / fused_ms,
                "speedup_radix_vs_fused": fused_ms / radix_ms,
            }
        )
        print(
            f"  {name:16s} {dtype:8s} N={num_arrays:<7d} n={array_size:<5d}"
            f"  fused {fused_ms:9.1f} ms  unfused {unfused_ms:9.1f} ms"
            f"  ({unfused_ms / fused_ms:.1f}x)"
            f"  radix {radix_ms:9.1f} ms",
            flush=True,
        )
    speedups = [r["speedup_fused_vs_unfused"] for r in results]
    radix_expected_speedups = [
        r["speedup_radix_vs_fused"] for r in results if r["radix_expected"]
    ]
    return {
        "schema": SCHEMA,
        "grid": grid,
        "seed": seed,
        "host": _artifact.host_block(),
        "results": results,
        "speedups": {
            "fused_vs_unfused_min": min(speedups),
            "fused_vs_unfused_median": statistics.median(speedups),
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


CELL = {
    "name": str,
    "dtype": str,
    "num_arrays": int,
    "array_size": int,
    "repeats": int,
    "fused_ms": NUM,
    "unfused_ms": NUM,
    "radix_ms": NUM,
    "fused_phase_ms": dict,
    "unfused_phase_ms": dict,
    "radix_phase_ms": dict,
    "radix_expected": bool,
    "speedup_fused_vs_unfused": NUM,
    "speedup_radix_vs_fused": NUM,
}
REPORT = {
    "schema": SCHEMA,
    "results": [CELL],
    "speedups": {
        "fused_vs_unfused_min": NUM,
        "fused_vs_unfused_median": NUM,
        "radix_vs_fused_median": NUM,
    },
}


def _fused_not_slower(report: dict, t) -> list:
    return [
        f"{r['name']}: fused {r['fused_ms']:.1f} ms vs unfused "
        f"{r['unfused_ms']:.1f} ms ({r['speedup_fused_vs_unfused']:.2f}x "
        f"< {t['min_speedup']:.2f}x)"
        for r in report["results"]
        if r["speedup_fused_vs_unfused"] < t["min_speedup"]
    ]


def _radix_beats_fused(report: dict, t) -> list:
    expected = [r for r in report["results"] if r.get("radix_expected")]
    if not expected:
        return ["no radix_expected cells in this grid - the radix gate needs "
                "at least one large-n cell where radix should win"]
    return [
        f"{r['name']}: radix {r['radix_ms']:.1f} ms vs fused "
        f"{r['fused_ms']:.1f} ms ({r['speedup_radix_vs_fused']:.2f}x "
        f"< {t['min_speedup']:.2f}x)"
        for r in expected
        if r["speedup_radix_vs_fused"] < t["min_speedup"]
    ]


GATES = (
    Gate("gate", {"min_speedup": 1.0}, (_fused_not_slower,)),
    Gate("radix_gate", {"min_speedup": 1.5}, (_radix_beats_fused,)),
)


def check_schema(report: dict) -> list:
    """Return a list of schema violations (empty == valid)."""
    errors = _artifact.check_schema(report, REPORT, GATES)
    results = report.get("results")
    cells = (
        [c for c in results if isinstance(c, dict)]
        if isinstance(results, list) else []
    )
    for i, cell in enumerate(cells):
        for key in ("fused_ms", "unfused_ms", "radix_ms"):
            value = cell.get(key)
            if isinstance(value, NUM) and value <= 0:
                errors.append(f"results[{i}].{key} must be > 0")
    speedups = report.get("speedups")
    if (any(cell.get("radix_expected") for cell in cells)
            and isinstance(speedups, dict)
            and not isinstance(speedups.get("radix_vs_fused_expected_min"), NUM)):
        errors.append(
            "speedups.radix_vs_fused_expected_min missing or non-numeric "
            "despite radix_expected cells"
        )
    return errors


def _options(parser) -> None:
    parser.add_argument("--repeats", type=int, default=3)


def _run(args) -> dict:
    print(f"bench_hotpath grid={args.grid} repeats={args.repeats}", flush=True)
    return run_grid(args.grid, max(1, args.repeats), seed=args.seed)


def main(argv=None) -> int:
    return _artifact.main(
        argv, description=__doc__.splitlines()[0], grids=GRIDS,
        default_grid="reference", check=check_schema, gates=GATES,
        run=_run, options=_options, default_seed=DEFAULT_SEED,
    )


if __name__ == "__main__":
    raise SystemExit(main())
