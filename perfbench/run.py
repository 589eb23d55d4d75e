#!/usr/bin/env python3
"""The repo benchmark: run one workload, check every output, print metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``batch`` -- closed loop on ``GpuArraySort(planner="auto")`` (core, planner);
* ``serve`` -- open loop on an in-process ``SortService`` (service);
* ``fleet`` -- open loop on a two-worker ``SortFleet`` (fleet, IPC);
* ``spill`` -- ``CapacitySorter.run`` into a spill directory (outofcore).

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice for half the time each -- once
plain, once with timing wrappers on the layers' public seams -- and
prints the per-layer metrics plus ``trace.overhead_pct``, the traced
run's median latency over the plain run's.

Every output is compared byte for byte with ``np.sort(..., axis=1)``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the metrics
``BENCHMARK.json`` declares for the mode); the line before it holds the
host/provenance block, the workload settings and every per-layer metric
measured, including the layer-specific ones.  The exit status is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch", "serve", "fleet", "spill")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith("_pct"):
        return "%"
    if "_ms" in name:
        return "ms"
    if "_us" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("mb_per_s"):
        return "MiB/s"
    if any(word in name for word in ("share", "ratio", "balance")):
        return "fraction"
    if name.endswith(("_mean", "oversubscription")):
        return "rows" if name.endswith("_mean") else "x"
    return "count"


def finite_or_none(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite_or_none(v) for v in value]
    return value


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              "this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import closed_loop
    import open_loop
    from _harness import SETUP_REPEATS, host_block

    setups = {
        "batch": (closed_loop.batch_inputs, closed_loop.batch_phase),
        "spill": (closed_loop.spill_inputs, closed_loop.spill_phase),
        "serve": (lambda seed, _tmp: open_loop.open_inputs(open_loop.SERVE, seed),
                  open_loop.serve_phase),
        "fleet": (lambda seed, _tmp: open_loop.open_inputs(open_loop.FLEET, seed),
                  open_loop.fleet_phase),
    }
    make_inputs, measure = setups[args.workload]

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        inputs = make_inputs(args.seed, tmp)
        if args.trace == 0:
            phases = {"untraced": measure(inputs, tmp, args.seconds,
                                          traced=False, setups=SETUP_REPEATS)}
            values = dict(phases["untraced"].e2e)
            declared = spec["end_to_end"]
        else:
            half = args.seconds / 2
            phases = {
                "untraced": measure(inputs, tmp, half, traced=False, setups=1),
                "traced": measure(inputs, tmp, half, traced=True, setups=1),
            }
            values = dict(phases["traced"].layers)
            values["trace.overhead_pct"] = 100.0 * (
                phases["traced"].e2e["latency_p50_ms"]
                / phases["untraced"].e2e["latency_p50_ms"] - 1.0
            )
            declared = spec["per_layer"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    correct = failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values()
    )
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_block(args.seed, {
            "fleet_workers": open_loop.FLEET_WORKERS,
            "spill_budget": closed_loop.SPILL_BUDGET,
        }),
        "phases": {
            name: {"attempted": p.attempted, "failed": p.failed, "e2e": p.e2e,
                   **p.detail}
            for name, p in phases.items()
        },
    }
    if args.trace:
        detail["per_layer"] = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(values.items())
        }
    print(json.dumps(finite_or_none(detail), default=str))
    print(json.dumps(finite_or_none({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
