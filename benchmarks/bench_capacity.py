#!/usr/bin/env python
"""Out-of-core capacity harness: sorting past the memory budget.

Standalone (no pytest-benchmark): drives the capacity tier
(:class:`repro.outofcore.CapacitySorter`) over a budget x batch-size
grid and emits ``BENCH_capacity.json`` (schema ``bench-capacity/v1``) —
the artifact ``make capacity-gate`` re-checks.

Two cell kinds:

* **oversubscription** — write a file-backed input batch several times
  larger than the declared memory budget, sort it through the spill
  path, and verify **byte-identity**: every committed chunk is compared
  against ``np.sort`` of the corresponding input window (chunk-sized
  reads, so verification itself stays in budget).  Reported
  ``rows_per_gb`` is the budget model's max sortable rows per GB of
  budget at that array size — the paper's Table 1 capacity question
  asked of the host.
* **kill-resume** — a child process (this script, ``--child-run``)
  starts the same spill run with a per-chunk delay; the parent polls
  the spill journal until some chunks are durably committed, SIGKILLs
  the child mid-run, then reruns it with ``--resume``.  The gate
  requires the resumed run to complete from the journal with **zero
  re-emitted chunks** (no committed index is ever rewritten) and a
  byte-identical final result.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_capacity.py --grid smoke
    PYTHONPATH=src python benchmarks/bench_capacity.py --grid load --gate
    PYTHONPATH=src python benchmarks/bench_capacity.py --grid load --gate --out BENCH_capacity.json
    PYTHONPATH=src python benchmarks/bench_capacity.py --check-gate BENCH_capacity.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Runnable straight from a checkout: python benchmarks/bench_capacity.py
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

import _artifact
from _artifact import NUM, ByKind, Gate
from repro.outofcore import (
    BatchFile,
    CapacitySorter,
    parse_memory_size,
    plan_budget,
    read_journal,
    write_batch_file,
)

SCHEMA = "bench-capacity/v1"

#: The gate's oversubscription floor: the committed artifact must show a
#: batch at least this many times larger than its budget sorted
#: byte-identically.
GATE_MIN_RATIO = 4.0

KILL_CELL = "kill-resume"

# Oversubscription cells: (name, budget, rows, row_len, dtype).
# Budgets use binary units; every cell's batch is >= 4x its budget so
# any of them can carry the gate (the gate picks the best).
GRIDS = {
    "smoke": [
        ("smoke-4x", "256K", 2200, 64, "float64"),
    ],
    "load": [
        ("oversub-n1000-8M", "8M", 4500, 1000, "float64"),
        ("oversub-n1000-16M", "16M", 9000, 1000, "float64"),
        ("oversub-n256-4M", "4M", 9000, 256, "float64"),
        ("oversub-n256-f32-2M", "2M", 9000, 256, "float32"),
    ],
}

# Kill-resume cell parameters (shared by parent and child).
KILL_BUDGET = "64K"
KILL_ROWS = 600
KILL_COLS = 64
KILL_DELAY_MS = 60.0


def _input_block(seed: int, row_len: int, dtype) -> "callable":
    """Deterministic block generator: seeded per block, bounded memory."""

    def block(block_index: int, start: int, take: int) -> np.ndarray:
        rng = np.random.default_rng([seed, block_index])
        return rng.uniform(0.0, 2**31 - 1, (take, row_len)).astype(dtype)

    return block


def _write_input(path: Path, *, rows: int, row_len: int, dtype,
                 seed: int) -> BatchFile:
    dtype = np.dtype(dtype)
    expected = rows * row_len * dtype.itemsize
    if path.exists() and path.stat().st_size >= expected:
        return BatchFile(path=path, rows=rows, row_len=row_len, dtype=dtype)
    return write_batch_file(
        path, _input_block(seed, row_len, dtype),
        rows=rows, row_len=row_len, dtype=dtype,
    )


def _verify_chunks(store, source: BatchFile) -> bool:
    """Chunkwise byte-identity against ``np.sort`` of the input window."""
    for record in store.committed:
        reference = source.read(record.start_row,
                                record.start_row + record.rows)
        reference.sort(axis=1)
        chunk = store.open_chunk(record, verify=True)
        if not np.array_equal(np.asarray(chunk), reference):
            return False
    return True


def run_oversub_cell(name, budget, rows, row_len, dtype, *, seed,
                     work_dir: Path) -> dict:
    budget_bytes = parse_memory_size(budget)
    cell_dir = work_dir / name
    cell_dir.mkdir(parents=True, exist_ok=True)
    source = _write_input(
        cell_dir / "input.bin", rows=rows, row_len=row_len, dtype=dtype,
        seed=seed,
    )
    sorter = CapacitySorter(budget_bytes)
    plan = sorter.plan(rows, row_len, np.dtype(dtype))
    t0 = time.perf_counter()
    result = sorter.run(source, spill_dir=cell_dir / "spill")
    wall = time.perf_counter() - t0
    byte_identical = _verify_chunks(result.store, source)
    completed = result.store.complete and result.rows == rows
    return {
        "name": name,
        "kind": "oversubscription",
        "budget": budget,
        "budget_bytes": budget_bytes,
        "rows": rows,
        "row_len": row_len,
        "dtype": str(np.dtype(dtype)),
        "total_bytes": plan.total_bytes,
        "oversubscription": plan.oversubscription,
        "chunk_rows": plan.chunk_rows,
        "num_chunks": plan.num_chunks,
        "rows_per_gb": int(plan.chunk_rows * (1024**3 / budget_bytes)),
        "completed": bool(completed),
        "verified": True,
        "byte_identical": bool(byte_identical),
        "wall_seconds": wall,
        "rows_per_s": rows / max(wall, 1e-9),
        "stats": result.stats.as_dict(),
    }


# -- kill-resume: child side ---------------------------------------------
def run_child(args) -> int:
    """One spill run with a per-chunk delay; stats JSON on the last line."""
    run_dir = Path(args.child_run)
    run_dir.mkdir(parents=True, exist_ok=True)
    dtype = np.dtype("float64")
    source = _write_input(
        run_dir / "input.bin", rows=args.child_rows, row_len=args.child_cols,
        dtype=dtype, seed=args.seed,
    )

    def pace(info):
        if args.child_delay_ms > 0:
            time.sleep(args.child_delay_ms / 1e3)

    sorter = CapacitySorter(args.child_budget, progress=pace)
    result = sorter.run(
        source, spill_dir=run_dir / "spill", resume=args.child_resume
    )
    print("CHILD_STATS " + json.dumps(result.stats.as_dict()), flush=True)
    return 0


# -- kill-resume: parent side --------------------------------------------
def _journal_chunks(spill_dir: Path) -> list:
    # read_journal ignores a record torn mid-append, so polling is safe.
    return [record.as_dict() for record in read_journal(spill_dir)]


def _child_argv(run_dir: Path, *, seed: int, delay_ms: float,
                resume: bool) -> list:
    argv = [
        sys.executable, os.fspath(Path(__file__).resolve()),
        "--child-run", os.fspath(run_dir),
        "--child-budget", KILL_BUDGET,
        "--child-rows", str(KILL_ROWS),
        "--child-cols", str(KILL_COLS),
        "--child-delay-ms", str(delay_ms),
        "--seed", str(seed),
    ]
    if resume:
        argv.append("--child-resume")
    return argv


def run_kill_resume_cell(*, seed, work_dir: Path, timeout_s: float = 90.0) -> dict:
    run_dir = work_dir / KILL_CELL
    spill_dir = run_dir / "spill"
    plan = plan_budget(KILL_ROWS, KILL_COLS, "float64", KILL_BUDGET)

    # First run: paced so the parent can observe committed chunks and
    # kill mid-run with work both behind and ahead of the journal.
    child = subprocess.Popen(
        _child_argv(run_dir, seed=seed, delay_ms=KILL_DELAY_MS, resume=False),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + timeout_s
    pre_kill = []
    while time.monotonic() < deadline:
        chunks = _journal_chunks(spill_dir)
        if 2 <= len(chunks) < plan.num_chunks:
            pre_kill = chunks
            break
        if child.poll() is not None:
            break  # finished before we could kill: cell fails the gate
        time.sleep(0.01)
    killed = child.poll() is None and bool(pre_kill)
    if killed:
        child.send_signal(signal.SIGKILL)
    child.wait(timeout=timeout_s)
    pre_kill_indices = sorted(int(c["index"]) for c in pre_kill)

    # Resume run: no pacing; must finish from the journal.
    t0 = time.perf_counter()
    resumed = subprocess.run(
        _child_argv(run_dir, seed=seed, delay_ms=0.0, resume=True),
        capture_output=True, text=True, timeout=timeout_s,
    )
    resume_wall = time.perf_counter() - t0
    stats = {}
    for line in resumed.stdout.splitlines():
        if line.startswith("CHILD_STATS "):
            stats = json.loads(line[len("CHILD_STATS "):])

    final = _journal_chunks(spill_dir)
    final_indices = sorted(int(c["index"]) for c in final)
    rows_final = sum(int(c["rows"]) for c in final)
    # Zero re-emission: every pre-kill index survives untouched
    # (recommit counter zero) and the resumed run only appended new,
    # strictly higher indices.
    new_indices = [i for i in final_indices if i not in set(pre_kill_indices)]
    overlap = (
        min(new_indices) <= max(pre_kill_indices)
        if new_indices and pre_kill_indices else False
    )
    reemitted = int(stats.get("chunks_recommitted", -1))
    if reemitted < 0 or overlap:
        reemitted = max(reemitted, 0) + int(overlap)

    byte_identical = False
    completed = (
        resumed.returncode == 0
        and rows_final == KILL_ROWS
        and final_indices == list(range(len(final_indices)))
    )
    if completed:
        from repro.outofcore import SpillStore

        store = SpillStore(
            spill_dir, array_size=KILL_COLS, dtype="float64", resume=True
        )
        source = BatchFile(
            path=run_dir / "input.bin", rows=KILL_ROWS, row_len=KILL_COLS,
            dtype="float64",
        )
        byte_identical = _verify_chunks(store, source)

    return {
        "name": KILL_CELL,
        "kind": "kill-resume",
        "budget": KILL_BUDGET,
        "budget_bytes": parse_memory_size(KILL_BUDGET),
        "rows": KILL_ROWS,
        "row_len": KILL_COLS,
        "dtype": "float64",
        "num_chunks": plan.num_chunks,
        "killed_mid_run": bool(killed),
        "pre_kill_chunks": len(pre_kill_indices),
        "chunks_resumed": int(stats.get("chunks_resumed", 0)),
        "resumed_committed": int(stats.get("chunks_committed", 0)),
        "reemitted_chunks": reemitted,
        "completed": bool(completed),
        "byte_identical": bool(byte_identical),
        "resume_wall_seconds": resume_wall,
        "resume_stats": stats,
    }


def run_grid(grid: str, *, seed: int, work_dir: Path) -> dict:
    results = []
    for name, budget, rows, row_len, dtype in GRIDS[grid]:
        cell = run_oversub_cell(
            name, budget, rows, row_len, dtype, seed=seed, work_dir=work_dir
        )
        results.append(cell)
        print(
            f"  {name:20s} budget={budget:>5s}"
            f"  {cell['oversubscription']:5.1f}x over"
            f"  {cell['num_chunks']:4d} chunks"
            f"  {cell['rows_per_s']:9.0f} rows/s"
            f"  byte_identical={cell['byte_identical']}",
            flush=True,
        )
    kill = run_kill_resume_cell(seed=seed, work_dir=work_dir)
    results.append(kill)
    print(
        f"  {KILL_CELL:20s} killed={kill['killed_mid_run']}"
        f" pre_kill={kill['pre_kill_chunks']}"
        f" resumed={kill['chunks_resumed']}"
        f" reemitted={kill['reemitted_chunks']}"
        f" byte_identical={kill['byte_identical']}",
        flush=True,
    )
    return {
        "schema": SCHEMA,
        "grid": grid,
        "seed": seed,
        "host": _artifact.host_block(),
        "results": results,
    }


OVERSUB_SPEC = {
    "name": str,
    "budget_bytes": int,
    "rows": int,
    "row_len": int,
    "total_bytes": int,
    "oversubscription": NUM,
    "chunk_rows": int,
    "num_chunks": int,
    "rows_per_gb": int,
    "completed": bool,
    "byte_identical": bool,
    "stats": dict,
}
KILL_SPEC = {
    "name": str,
    "budget_bytes": int,
    "rows": int,
    "killed_mid_run": bool,
    "pre_kill_chunks": int,
    "chunks_resumed": int,
    "reemitted_chunks": int,
    "completed": bool,
    "byte_identical": bool,
}
REPORT = {
    "schema": SCHEMA,
    "results": [ByKind({"oversubscription": OVERSUB_SPEC,
                        "kill-resume": KILL_SPEC})],
}


def _oversubscribed(report: dict, t) -> list:
    """A completed, byte-identical cell at >= the floor's oversubscription."""
    if any(
        c.get("kind") == "oversubscription"
        and c.get("completed") and c.get("byte_identical")
        and c.get("oversubscription", 0) >= t["min_oversubscription"]
        for c in report["results"]
    ):
        return []
    return [f"no completed byte-identical oversubscription cell at >= "
            f"{t['min_oversubscription']}x budget"]


def _kill_resume(report: dict, t) -> list:
    """The resumed run completes from the journal with zero re-emits."""
    kill = next((c for c in report["results"]
                 if c.get("kind") == "kill-resume"), None)
    if kill is None:
        return ["kill-resume cell missing"]
    failures = []
    if not kill.get("killed_mid_run"):
        failures.append(
            "kill-resume: child was not killed mid-run (no committed "
            "chunks observed before exit)"
        )
    if not kill.get("completed"):
        failures.append("kill-resume: resumed run did not complete")
    if kill.get("chunks_resumed", 0) < 1:
        failures.append("kill-resume: resumed run adopted no chunks")
    if kill.get("reemitted_chunks", 1) != 0:
        failures.append(
            f"kill-resume: {kill.get('reemitted_chunks')} committed "
            "chunk(s) re-emitted after resume"
        )
    if not kill.get("byte_identical"):
        failures.append("kill-resume: final output not byte-identical")
    return failures


def _best_oversubscription(report: dict) -> dict:
    return {"best_oversubscription": max(
        (c.get("oversubscription", 0) for c in report["results"]
         if c.get("kind") == "oversubscription"),
        default=0,
    )}


GATES = (
    Gate(
        "gate",
        {"min_oversubscription": GATE_MIN_RATIO},
        (_oversubscribed, _kill_resume),
        derive=_best_oversubscription,
    ),
)


def check_schema(report: dict) -> list:
    """Return a list of schema violations (empty == valid)."""
    return _artifact.check_schema(report, REPORT, GATES)


def _options(parser) -> None:
    parser.add_argument(
        "--work-dir", type=Path, default=None,
        help="scratch directory for inputs/spill (default: a temp dir)",
    )
    # Child-mode flags (internal: the kill-resume cell's subprocess).
    parser.add_argument("--child-run", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--child-budget", default=KILL_BUDGET,
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-rows", type=int, default=KILL_ROWS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-cols", type=int, default=KILL_COLS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-delay-ms", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-resume", action="store_true",
                        help=argparse.SUPPRESS)


def _run(args) -> dict:
    if args.child_run is not None:
        # The kill-resume cell's subprocess: one spill run, then exit.
        raise SystemExit(run_child(args))
    print(f"bench_capacity grid={args.grid} seed={args.seed}", flush=True)
    if args.work_dir is not None:
        args.work_dir.mkdir(parents=True, exist_ok=True)
        return run_grid(args.grid, seed=args.seed, work_dir=args.work_dir)
    with tempfile.TemporaryDirectory(prefix="bench_capacity_") as tmp:
        return run_grid(args.grid, seed=args.seed, work_dir=Path(tmp))


def main(argv=None) -> int:
    return _artifact.main(
        argv, description=__doc__.splitlines()[0], grids=GRIDS,
        default_grid="load", check=check_schema, gates=GATES, run=_run,
        options=_options,
    )


if __name__ == "__main__":
    raise SystemExit(main())
