#!/usr/bin/env python
"""Chaos harness: multi-tenant SLOs under injected faults.

Standalone (no pytest-benchmark): replays deterministic
:class:`repro.service.ChaosScenario` cells — a fixed tenant mix with one
NaN-poisoning tenant, a seeded :class:`repro.gpusim.faults.FaultPlan`
(transient kernel faults, an OOM window, ECC-style corruption), and a
quota-bounded flooding tenant — and emits ``BENCH_chaos.json`` (schema
``bench-chaos/v1``), the artifact ``make chaos-gate`` checks.

What each cell measures
-----------------------
Every cell runs three phases against fresh resilient-backed services
(see :func:`repro.service.run_scenario`):

``baseline``  the tenant mix with no fault plan — the fault-free SLO
              reference;
``faulted``   the identical mix with the fault plan attached — the only
              variable is the injected faults;
``flood``     the mix plus a flooding tenant offering far more than its
              fair share, probing admission fairness.

Gates
-----
``--gate`` (and ``--check-gate FILE`` on a committed artifact) exits
non-zero unless, at the **chaos-mid** cell,

* **isolation** — quarantined rows failed only the poisoning tenant's
  requests (zero cross-tenant quarantine errors), and the probe
  actually fired (the poison tenant saw at least one quarantine);
* **latency** — faulted p99 is within 2.0× the fault-free p99, over
  non-poison tenants;
* **fairness** — no innocent tenant's rejection rate exceeded 0.05
  during the flood phase.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_chaos.py --grid smoke
    PYTHONPATH=src python benchmarks/bench_chaos.py --grid load --gate
    PYTHONPATH=src python benchmarks/bench_chaos.py --grid load --gate --out BENCH_chaos.json
    PYTHONPATH=src python benchmarks/bench_chaos.py --check-gate BENCH_chaos.json
"""

from __future__ import annotations

import sys
from pathlib import Path

# Runnable straight from a checkout: python benchmarks/bench_chaos.py
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import _artifact
from _artifact import NUM, Gate, Opt
from repro.service import (
    ChaosScenario,
    ChaosTenant,
    evaluate_slos,
    run_scenario,
)
from repro.service.chaos import (
    DEFAULT_MAX_REJECTION_RATE,
    DEFAULT_P99_BUDGET_FACTOR,
)

SCHEMA = "bench-chaos/v1"

# (name, requests_per_tenant, rate_rps, array_size).  ``chaos-mid`` is
# the gated cell — enough traffic that faults land mid-stream and the
# flooder genuinely contends, small enough for CI.  ``chaos-low`` is
# reported, never gated.
GRIDS = {
    "smoke": [
        ("chaos-smoke", 40, 400.0, 64),
    ],
    "load": [
        ("chaos-low", 80, 400.0, 128),
        ("chaos-mid", 160, 600.0, 128),
        ("chaos-high", 240, 800.0, 128),
    ],
}
GATE_CELL = "chaos-mid"

#: The poisoning tenant's name in every scenario (the blast-radius probe).
POISON_TENANT = "poison"
FLOOD_TENANT = "flood"


def make_scenario(name: str, requests: int, rate_rps: float,
                  array_size: int, *, seed: int) -> ChaosScenario:
    """One deterministic chaos cell.

    Three well-behaved-ish tenants (``alpha`` weighted 2×, ``beta`` and
    ``poison`` at 1×; ``poison`` NaN-poisons a quarter of its requests)
    plus a quota-bounded flooder offering ~8× the per-tenant rate.  The
    fault schedule is fixed per seed: a 10 % transient kernel-fault
    rate, one OOM-pressure window early on, and 2 % ECC-style output
    corruption — all retried/recovered by the resilient backend, which
    is exactly the latency tax the gate budgets.
    """
    return ChaosScenario(
        name=name,
        tenants=(
            ChaosTenant(
                name="alpha", weight=2.0, clients=2,
                total_requests=requests, rate_rps=rate_rps,
            ),
            ChaosTenant(
                name="beta", weight=1.0, clients=2,
                total_requests=requests, rate_rps=rate_rps,
            ),
            ChaosTenant(
                name=POISON_TENANT, weight=1.0, clients=1,
                total_requests=max(20, requests // 2), rate_rps=rate_rps / 2,
                poison_nan_rate=0.25,
            ),
        ),
        flood_tenant=ChaosTenant(
            name=FLOOD_TENANT, weight=1.0, clients=2,
            total_requests=requests * 3, rate_rps=rate_rps * 8,
            quota_rows=96,
        ),
        fault_seed=seed,
        kernel_fault_rate=0.10,
        oom_windows=((8, 14),),
        corruption_rate=0.02,
        batch_target_rows=64,
        linger_ms=1.0,
        max_queue_rows=2048,
        array_size=array_size,
        seed=seed,
    )


def run_cell(name: str, requests: int, rate_rps: float, array_size: int,
             *, seed: int) -> dict:
    scenario = make_scenario(
        name, requests, rate_rps, array_size, seed=seed
    )
    report = run_scenario(scenario)
    slos = evaluate_slos(report)
    return {
        "name": name,
        "requests_per_tenant": requests,
        "rate_rps": rate_rps,
        "array_size": array_size,
        "poison_tenant": POISON_TENANT,
        "flood_tenant": FLOOD_TENANT,
        "report": report.as_dict(),
        "slos": slos,
    }


def run_grid(grid: str, *, seed: int) -> dict:
    results = []
    for name, requests, rate_rps, array_size in GRIDS[grid]:
        result = run_cell(name, requests, rate_rps, array_size, seed=seed)
        results.append(result)
        slos = result["slos"]
        ratio = slos["p99_ratio"]
        print(
            f"  {name:11s} reqs/tenant={requests:<4d}"
            f"  cross-quarantines={slos['cross_tenant_quarantines']}"
            f"  p99 ratio={ratio if ratio is None else format(ratio, '.2f')}"
            f"  innocents' max rejection="
            f"{max(slos['innocent_rejection_rates'].values(), default=0.0):.3f}"
            f"  {'ok' if slos['ok'] else 'VIOLATED'}",
            flush=True,
        )
    return {
        "schema": SCHEMA,
        "grid": grid,
        "seed": seed,
        "host": _artifact.host_block(),
        "results": results,
    }


CELL = {
    "name": str,
    "requests_per_tenant": int,
    "poison_tenant": str,
    "flood_tenant": str,
    "report": {"baseline": dict, "faulted": dict, "flood": dict},
    "slos": {
        "cross_tenant_quarantines": int,
        "isolation_ok": bool,
        "latency_ok": bool,
        "fairness_ok": bool,
        "innocent_rejection_rates": dict,
        "ok": bool,
        "baseline_p99_ms": Opt(NUM),
        "faulted_p99_ms": Opt(NUM),
        "p99_ratio": Opt(NUM),
    },
}
REPORT = {"schema": SCHEMA, "results": [CELL]}


def _poison_quarantined(cell: dict) -> int:
    """Quarantine count the poison tenant saw in the faulted phase."""
    try:
        traffic = cell["report"]["faulted"]["traffic"]
        return int(traffic[cell["poison_tenant"]]["quarantined"])
    except (KeyError, TypeError, ValueError):
        return 0


# The gate checks recompute from the *stored numbers*
# (``cross_tenant_quarantines`` / ``p99_ratio`` /
# ``innocent_rejection_rates``), never from the cell's stored ``ok``
# verdicts, so a hand-edited ``ok: true`` cannot sneak past.
def _isolation(report: dict, t) -> list:
    cell = _artifact.find_cell(report, t["cell"])
    if cell is None:
        return []
    failures = []
    cross = cell["slos"].get("cross_tenant_quarantines")
    if cross != 0:
        failures.append(
            f"{t['cell']}: {cross} quarantine failures outside the "
            f"poison tenant (isolation contract broken)"
        )
    if _poison_quarantined(cell) == 0:
        failures.append(
            f"{t['cell']}: poison tenant saw no quarantines in the "
            "faulted phase — the isolation probe never fired"
        )
    return failures


def _latency(report: dict, t) -> list:
    cell = _artifact.find_cell(report, t["cell"])
    if cell is None:
        return []
    slos = cell["slos"]
    ratio = slos.get("p99_ratio")
    if not isinstance(ratio, NUM):
        return [f"{t['cell']}: no faulted/baseline p99 ratio recorded"]
    if ratio > t["p99_budget_factor"]:
        return [
            f"{t['cell']}: faulted p99 {slos.get('faulted_p99_ms'):.2f} ms "
            f"is {ratio:.2f}x the fault-free "
            f"{slos.get('baseline_p99_ms'):.2f} ms "
            f"(budget {t['p99_budget_factor']:.2f}x)"
        ]
    return []


def _fairness(report: dict, t) -> list:
    cell = _artifact.find_cell(report, t["cell"])
    if cell is None:
        return []
    rates = cell["slos"].get("innocent_rejection_rates") or {}
    if not rates:
        return [f"{t['cell']}: no innocent rejection rates recorded "
                "(flood phase missing?)"]
    return [
        f"{t['cell']}: tenant {tenant!r} rejection rate "
        f"{rate:.3f} exceeds {t['max_rejection_rate']:.3f} under flood"
        for tenant, rate in sorted(rates.items())
        if rate > t["max_rejection_rate"]
    ]


GATES = (
    Gate(
        "gate",
        {
            "cell": GATE_CELL,
            # The thresholds each cell's stored ``slos`` verdicts use.
            "p99_budget_factor": DEFAULT_P99_BUDGET_FACTOR,
            "max_rejection_rate": DEFAULT_MAX_REJECTION_RATE,
        },
        (_artifact.cells_present, _isolation, _latency, _fairness),
    ),
)


def check_schema(report: dict) -> list:
    """Return a list of schema violations (empty == valid)."""
    return _artifact.check_schema(report, REPORT, GATES)


def _run(args) -> dict:
    print(f"bench_chaos grid={args.grid} seed={args.seed}", flush=True)
    return run_grid(args.grid, seed=args.seed)


def main(argv=None) -> int:
    return _artifact.main(
        argv, description=__doc__.splitlines()[0], grids=GRIDS,
        default_grid="load", check=check_schema, gates=GATES, run=_run,
    )


if __name__ == "__main__":
    raise SystemExit(main())
