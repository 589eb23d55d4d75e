"""One artifact envelope for the ``BENCH_*.json`` benchmark drivers.

Each driver (``bench_{hotpath,service,chaos,fleet,capacity}.py``) holds
its grids, its run code, its schema as data and its gates as data; this
module owns what they share:

* :func:`host_block` — the host fields every committed artifact records,
  with the affinity CPU count and a same-run two-process parallelism
  probe (:func:`parallelism_probe`), so a multi-core claim can be read
  against the cores the run really had;
* :func:`check_schema` — one walker over a nested spec of required keys
  and types, reporting each error by path
  (``results[3].batched.latency_ms.p99 missing or non-numeric``);
* :class:`Gate` and :func:`apply_gates` — a gate is a block name, its
  thresholds and a list of checks; the block is written back as
  ``{**thresholds, "passed", "failures"}``;
* :func:`main` — the shared CLI: ``--grid``, ``--seed``, ``--out``,
  ``--gate``, ``--check-schema FILE`` and ``--check-gate FILE``.

Spec language for :func:`check_schema`:

* a ``str`` is a literal the value must equal (the schema tag);
* a type or tuple of types is an ``isinstance`` check (:data:`NUM` for
  numbers);
* a ``dict`` requires a dict holding every listed key, each walked by
  its own spec;
* a one-element ``list`` requires a non-empty list whose items all
  match that element;
* :class:`Opt` marks a key that may be absent or null;
* :class:`ByKind` picks a cell's spec by its ``kind`` value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

NUM = (int, float)


@dataclass(frozen=True)
class Opt:
    """A key that may be absent or null; when set it must match ``spec``."""

    spec: Any


@dataclass(frozen=True)
class ByKind:
    """A cell whose spec is chosen by its ``kind`` value."""

    specs: Mapping[str, Any]


#: The probe's job: a fixed pure-Python loop, started at a shared
#: ``time.monotonic()`` instant (one system-wide clock on Linux) so that
#: concurrent copies overlap; prints its own elapsed time.
_PROBE_JOB = (
    "import sys, time\n"
    "time.sleep(max(0.0, float(sys.argv[1]) - time.monotonic()))\n"
    "t0 = time.perf_counter()\n"
    "x = 0\n"
    "for i in range(int(sys.argv[2])):\n"
    "    x += i * i\n"
    "print(time.perf_counter() - t0)\n"
)


#: Iterations of the probe's loop: about 0.15 s alone on a 2-vCPU VM.
_PROBE_LOOPS = 1_000_000


def parallelism_probe() -> Dict[str, Any]:
    """Same-run parallelism probe: one CPU-bound job timed alone, then two
    copies timed together.  ``parallelism`` is ``2 × solo / slowest`` —
    about 2 when two cores are free, about 1 on one core or on a host
    busy elsewhere."""

    def timed(count: int) -> List[float]:
        start = repr(time.monotonic() + 0.1)  # past every child's start-up
        children = [
            subprocess.Popen(
                [sys.executable, "-S", "-c", _PROBE_JOB, start,
                 str(_PROBE_LOOPS)],
                stdout=subprocess.PIPE, text=True,
            )
            for _ in range(count)
        ]
        return [float(child.communicate()[0]) for child in children]

    solo = timed(1)[0]
    together = max(timed(2))
    return {
        "processes": 2,
        "solo_s": solo,
        "together_s": together,
        "parallelism": 2 * solo / together,
    }


def host_block() -> Dict[str, Any]:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "parallelism": parallelism_probe(),
    }


#: The host block's schema; artifacts written before the affinity count
#: and the parallelism probe were recorded lack those two fields.
HOST_SPEC = {
    "platform": str,
    "python": str,
    "numpy": str,
    "cpu_count": int,
    "cpu_affinity": Opt(int),
    "parallelism": Opt({
        "processes": int,
        "solo_s": NUM,
        "together_s": NUM,
        "parallelism": NUM,
    }),
}


def _walk(value: Any, spec: Any, path: str) -> List[str]:
    if isinstance(spec, str):
        return [] if value == spec else [f"{path} must be {spec!r}, got {value!r}"]
    if isinstance(spec, list):
        if not isinstance(value, list) or not value:
            return [f"{path} must be a non-empty list"]
        return [err for i, item in enumerate(value)
                for err in _walk(item, spec[0], f"{path}[{i}]")]
    if isinstance(spec, ByKind):
        kind = value.get("kind") if isinstance(value, dict) else None
        if kind not in spec.specs:
            return [f"{path}.kind must be one of {sorted(spec.specs)}, "
                    f"got {kind!r}"]
        return _walk(value, spec.specs[kind], path)
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            return [f"{path or 'report'} missing or not a dict"]
        errors = []
        for key, sub in spec.items():
            item = value.get(key)
            if isinstance(sub, Opt):
                if item is None:
                    continue
                sub = sub.spec
            errors += _walk(item, sub, f"{path}.{key}" if path else key)
        return errors
    if isinstance(value, spec):
        return []
    kind = "non-numeric" if spec == NUM else f"not {spec.__name__}"
    return [f"{path} missing or {kind}"]


Check = Callable[[dict, Mapping[str, Any]], List[str]]


@dataclass(frozen=True)
class Gate:
    """One gate block: ``checks`` each return failure messages, given the
    report and ``thresholds``; ``derive`` adds computed fields (never a
    verdict) to the stored block."""

    block: str
    thresholds: Mapping[str, Any]
    checks: Sequence[Check]
    derive: Optional[Callable[[dict], Dict[str, Any]]] = None


def check_schema(report: dict, spec: Mapping[str, Any],
                 gates: Sequence[Gate] = ()) -> List[str]:
    """Schema violations of ``report`` against ``spec`` (empty == valid).

    Each gate's block is optional; when present it must carry a boolean
    ``passed``.
    """
    full = {"host": Opt(HOST_SPEC), **spec}
    for gate in gates:
        full[gate.block] = Opt({"passed": bool})
    return _walk(report, full, "")


def apply_gates(report: dict, gates: Sequence[Gate]) -> bool:
    """Write every gate's block into ``report``; True when all passed.

    Verdicts are recomputed from the report's stored numbers, so applying
    the gates to a committed artifact enforces today's thresholds and a
    hand-edited ``passed`` cannot stand.
    """
    ok = True
    for gate in gates:
        failures = [f for check in gate.checks
                    for f in check(report, gate.thresholds)]
        report[gate.block] = {
            **gate.thresholds,
            **(gate.derive(report) if gate.derive else {}),
            "passed": not failures,
            "failures": failures,
        }
        ok = ok and not failures
    return ok


def find_cell(report: dict, name: str) -> Optional[dict]:
    return next((c for c in report["results"] if c.get("name") == name), None)


def cells_present(report: dict, t: Mapping[str, Any]) -> List[str]:
    """Gate check: every cell the thresholds name (``cell`` or ``cells``)
    is in the report, so a gate never passes on a grid that lacks it."""
    names = t["cells"] if "cells" in t else [t["cell"]]
    return [f"gate cell {name!r} not in results "
            "(run with a grid that includes it)"
            for name in names if find_cell(report, name) is None]


def _print_errors(errors: Iterable[str]) -> bool:
    errors = list(errors)
    for err in errors:
        print(f"schema error: {err}", file=sys.stderr)
    return bool(errors)


def _print_gates(report: dict, gates: Sequence[Gate]) -> None:
    for gate in gates:
        block = report[gate.block]
        for failure in block["failures"]:
            print(f"GATE FAIL ({gate.block}): {failure}", file=sys.stderr)
        settings = ", ".join(f"{k}={v}" for k, v in block.items()
                             if k not in ("passed", "failures"))
        print(f"{gate.block}: {'passed' if block['passed'] else 'FAILED'} "
              f"({settings})")


def main(argv: Optional[Sequence[str]], *, description: str,
         grids: Iterable[str], default_grid: str,
         check: Callable[[dict], List[str]], gates: Sequence[Gate],
         run: Callable[[argparse.Namespace], dict],
         options: Optional[Callable[[argparse.ArgumentParser], None]] = None,
         default_seed: int = 0) -> int:
    """The drivers' shared CLI.

    Exit codes: 0 pass; 1 a failed gate or an invalid file; 2 when a
    fresh report breaks its own schema (the emitter's self-check).
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--grid", choices=sorted(grids), default=default_grid)
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--gate", action="store_true",
        help="apply every gate to the new report; exit 1 if one fails",
    )
    checks = parser.add_mutually_exclusive_group()
    checks.add_argument(
        "--check-schema", type=Path, metavar="JSON",
        help="validate an existing report file and exit (no benchmarking)",
    )
    checks.add_argument(
        "--check-gate", type=Path, metavar="JSON",
        help="validate an existing report file and re-apply every gate to "
             "its stored numbers; exit 1 on a violation (no benchmarking)",
    )
    if options is not None:
        options(parser)
    args = parser.parse_args(argv)

    path = args.check_schema or args.check_gate
    if path is not None:
        report = json.loads(path.read_text())
        if _print_errors(check(report)):
            print(f"{path}: INVALID")
            return 1
        print(f"{path}: schema ok")
        if args.check_gate is None:
            return 0
        ok = apply_gates(report, gates)
        _print_gates(report, gates)
        return 0 if ok else 1

    report = run(args)
    ok = apply_gates(report, gates) if args.gate else True
    if _print_errors(check(report)):
        return 2

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    if args.gate:
        _print_gates(report, gates)
    return 0 if ok else 1
