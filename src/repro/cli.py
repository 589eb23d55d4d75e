"""Command-line front end: ``gpu-arraysort`` / ``python -m repro``.

Subcommands:

* ``sort``     — generate a workload, sort it with a chosen technique,
  report timings and (optionally) verify correctness;
* ``figures``  — print the model-reproduced series for Fig 2 and Figs 4-7;
* ``table1``   — print the Table 1 capacity reproduction;
* ``devices``  — list the simulated device catalog.

All output is plain text via :mod:`repro.analysis.reporting`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]

#: ``--planner`` values shared by every subcommand that takes one.
PLANNER_CHOICES = ("auto", "fused", "radix")


def _add_planner_arg(parser: argparse.ArgumentParser, default, help_text: str) -> None:
    parser.add_argument(
        "--planner", choices=PLANNER_CHOICES, default=default, help=help_text
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-arraysort",
        description="GPU-ArraySort reproduction (Awan & Saeed, 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="sort a generated batch and report timing")
    p_sort.add_argument("--num-arrays", "-N", type=int, default=10_000)
    p_sort.add_argument("--array-size", "-n", type=int, default=1000)
    p_sort.add_argument(
        "--technique",
        choices=["arraysort", "sta", "segmented", "sequential"],
        default="arraysort",
    )
    p_sort.add_argument(
        "--engine", choices=["vectorized", "sim", "model"], default="vectorized",
        help="execution engine for the arraysort technique",
    )
    p_sort.add_argument(
        "--workload",
        choices=["uniform", "normal", "clustered", "duplicates", "spectra"],
        default="uniform",
    )
    p_sort.add_argument("--seed", type=int, default=0)
    p_sort.add_argument("--bucket-size", type=int, default=20)
    p_sort.add_argument("--sampling-rate", type=float, default=0.10)
    p_sort.add_argument("--verify", action="store_true")
    p_sort.add_argument(
        "--no-fuse", action="store_true",
        help="run the paper-faithful separate phase 2/3 passes instead of "
             "the fused single-pass engine",
    )
    _add_planner_arg(
        p_sort, None,
        "per-batch engine planning (vectorized engine only): 'auto' picks "
        "the radix row sort for every dtype, 'fused'/'radix' force one "
        "engine",
    )

    p_fig = sub.add_parser("figures", help="print model-reproduced figure series")
    p_fig.add_argument(
        "--which", choices=["fig2", "fig4", "fig5", "fig6", "fig7", "all"],
        default="all",
    )

    p_tab = sub.add_parser("table1", help="print the Table 1 capacity reproduction")
    p_tab.add_argument("--no-measure", action="store_true",
                       help="skip the empirical allocator probe")

    sub.add_parser("devices", help="list the simulated device catalog")

    p_pairs = sub.add_parser(
        "pairs", help="key-value sort demo: spectra by m/z carrying intensity"
    )
    p_pairs.add_argument("--num-spectra", "-N", type=int, default=2000)
    p_pairs.add_argument("--peaks", "-n", type=int, default=1000)
    p_pairs.add_argument("--by", choices=["mz", "intensity"], default="mz")
    p_pairs.add_argument("--seed", type=int, default=0)

    p_ooc = sub.add_parser(
        "outofcore", help="out-of-core sorting plan + modeled timeline"
    )
    p_ooc.add_argument("--num-arrays", "-N", type=int, default=5_000_000)
    p_ooc.add_argument("--array-size", "-n", type=int, default=1000)
    p_ooc.add_argument("--device", default="k40c")
    p_ooc.add_argument("--pcie-gbps", type=float, default=12.0)

    p_cap = sub.add_parser(
        "capacity",
        help="sort a batch larger than a declared memory budget "
             "(out-of-core, spill-to-disk, resumable)",
    )
    p_cap.add_argument("--num-arrays", "-N", type=int, default=100_000)
    p_cap.add_argument("--array-size", "-n", type=int, default=1000)
    p_cap.add_argument("--dtype", choices=["float64", "float32", "int64",
                                           "int32"], default="float64")
    p_cap.add_argument(
        "--memory-budget", default="256M", metavar="SIZE",
        help="working-memory ceiling, e.g. 256M, 2G (binary units)",
    )
    p_cap.add_argument(
        "--spill-dir", required=True,
        help="run directory for input, sorted chunks, manifest, checkpoint",
    )
    p_cap.add_argument(
        "--resume", action="store_true",
        help="continue a killed run from its manifest/checkpoint",
    )
    p_cap.add_argument(
        "--reclaim", action="store_true",
        help="delete stale state from a previous run before starting",
    )
    p_cap.add_argument("--workload", choices=["uniform", "normal"],
                       default="uniform")
    p_cap.add_argument("--seed", type=int, default=0)
    _add_planner_arg(p_cap, "auto", "execution planner for each chunk's sorter")
    p_cap.add_argument("--verify", action="store_true",
                       help="verify each chunk after sorting")
    p_cap.add_argument(
        "--max-chunk-rows", type=int, default=0,
        help="cap chunk rows below what the budget allows (0 = uncapped)",
    )

    p_cal = sub.add_parser(
        "calibrate", help="refit the model constants from the paper anchors"
    )
    p_cal.add_argument("--show-anchors", action="store_true")

    sub.add_parser("workloads", help="list the standard workload suite")

    p_topk = sub.add_parser(
        "topk", help="keep the K largest elements per array (MS-REDUCE style)"
    )
    p_topk.add_argument("--num-arrays", "-N", type=int, default=5000)
    p_topk.add_argument("--array-size", "-n", type=int, default=2000)
    p_topk.add_argument("--k", "-k", type=int, default=200)
    p_topk.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser(
        "export", help="write every reproduced series as CSV for plotting"
    )
    p_exp.add_argument("--output-dir", "-o", default="reproduction_csv")

    p_res = sub.add_parser(
        "resilience",
        help="streaming sort under injected faults; print ResilienceStats",
    )
    p_res.add_argument("--num-arrays", "-N", type=int, default=500)
    p_res.add_argument("--array-size", "-n", type=int, default=200)
    p_res.add_argument("--batch-arrays", type=int, default=100)
    p_res.add_argument(
        "--workload",
        choices=["uniform", "normal", "clustered", "duplicates", "spectra"],
        default="uniform",
    )
    p_res.add_argument("--engine", choices=["vectorized", "sim", "model"],
                       default="vectorized")
    p_res.add_argument("--seed", type=int, default=0)
    p_res.add_argument("--fault-rate", type=float, default=0.2,
                       help="per-attempt transient KernelFault probability")
    p_res.add_argument("--corruption-rate", type=float, default=0.0,
                       help="per-attempt output bit-flip probability")
    p_res.add_argument(
        "--oom-window", action="append", default=[], metavar="START:STOP",
        help="half-open launch-index window of OOM pressure (repeatable)",
    )
    p_res.add_argument("--max-retries", type=int, default=3)
    p_res.add_argument("--real-backoff", action="store_true",
                       help="actually sleep the backoff (default: record only)")

    p_mc = sub.add_parser(
        "memcheck",
        help="run the kernel pipeline under the race detector (micro scale)",
    )
    p_mc.add_argument("--num-arrays", "-N", type=int, default=3)
    p_mc.add_argument("--array-size", "-n", type=int, default=96)
    p_mc.add_argument("--seed", type=int, default=0)

    p_srv = sub.add_parser(
        "serve-bench",
        help="drive synthetic traffic through the sort service and report "
             "throughput/latency (optionally vs the unbatched baseline)",
    )
    p_srv.add_argument("--array-size", "-n", type=int, default=256)
    p_srv.add_argument("--requests", type=int, default=2000,
                       help="total requests across all clients")
    p_srv.add_argument("--clients", type=int, default=8)
    p_srv.add_argument(
        "--arrival", choices=["closed", "open"], default="closed",
        help="closed: each client waits for its previous request; "
             "open: paced arrivals at --rate req/s",
    )
    p_srv.add_argument("--rate", type=float, default=2000.0,
                       help="offered load in req/s (open arrival only)")
    p_srv.add_argument(
        "--size-mix", default="1:0.6,4:0.3,16:0.1", metavar="R:W,...",
        help="rows-per-request mix as ROWS:WEIGHT pairs",
    )
    p_srv.add_argument("--batch-target", type=int, default=None,
                       help="coalesce target in rows (default 4096)")
    p_srv.add_argument("--linger-ms", type=float, default=2.0,
                       help="max time the oldest queued request waits for "
                            "batch-mates")
    p_srv.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline; late work is shed")
    p_srv.add_argument(
        "--backend", choices=["plain", "resilient"], default="plain",
        help="resilient wraps the sorter in retry/quarantine handling",
    )
    _add_planner_arg(p_srv, None, "execution planner handed to the backing sorter")
    p_srv.add_argument(
        "--unbatched", action="store_true",
        help="also run the per-request baseline and report the speedup",
    )
    p_srv.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="dump the post-run metrics snapshot (schema "
             "repro-service-metrics/v1: counters, queue, per-tenant "
             "stats, resilience/fault counters) as JSON; '-' for stdout",
    )
    p_srv.add_argument(
        "--metrics-prom", metavar="PATH", default=None,
        help="also render the snapshot as Prometheus text-exposition "
             "lines to PATH ('-' for stdout)",
    )
    p_srv.add_argument("--seed", type=int, default=0)

    p_flt = sub.add_parser(
        "fleet-bench",
        help="drive synthetic traffic through the multi-process sort "
             "fleet and report throughput/latency per worker count",
    )
    p_flt.add_argument("--workers", type=int, default=2,
                       help="worker processes behind the fleet front-end")
    p_flt.add_argument("--array-size", "-n", type=int, default=64)
    p_flt.add_argument("--requests", type=int, default=512,
                       help="total requests across all clients")
    p_flt.add_argument("--clients", type=int, default=16)
    p_flt.add_argument(
        "--arrival", choices=["closed", "open"], default="closed",
        help="closed: each client waits for its previous request; "
             "open: paced arrivals at --rate req/s",
    )
    p_flt.add_argument("--rate", type=float, default=500.0,
                       help="offered load in req/s (open arrival only)")
    p_flt.add_argument(
        "--size-mix", default="64:1.0", metavar="R:W,...",
        help="rows-per-request mix as ROWS:WEIGHT pairs",
    )
    p_flt.add_argument("--linger-ms", type=float, default=40.0,
                       help="per-worker batch linger window")
    p_flt.add_argument("--batch-target", type=int, default=1024,
                       help="per-worker coalesce target in rows")
    p_flt.add_argument("--worker-bound", type=int, default=512,
                       help="router per-worker outstanding-rows admission "
                            "bound (the fleet capacity knob)")
    p_flt.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline; late work is shed")
    _add_planner_arg(
        p_flt, None, "execution planner spec handed to each worker's sorter"
    )
    p_flt.add_argument("--jitter-seed", type=int, default=None,
                       help="seed the router's retry_after jitter RNG "
                            "(deterministic backpressure hints)")
    p_flt.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="dump the post-run fleet metrics snapshot (schema "
             "repro-fleet-metrics/v1: fleet counters, per-worker and "
             "aggregate views, tenants) as JSON; '-' for stdout",
    )
    p_flt.add_argument(
        "--metrics-prom", metavar="PATH", default=None,
        help="also render the snapshot as Prometheus repro_fleet_* "
             "text-exposition lines to PATH ('-' for stdout)",
    )
    p_flt.add_argument("--seed", type=int, default=0)

    p_rep = sub.add_parser(
        "report", help="regenerate the full reproduction report"
    )
    p_rep.add_argument("--output", "-o", default=None,
                       help="write to a file instead of stdout")
    p_rep.add_argument("--claims-only", action="store_true",
                       help="skip the figure series")

    p_statan = sub.add_parser(
        "statan",
        help="project-native static analysis: guarded-by locks, "
             "scratch escapes, determinism audit",
    )
    from .statan.cli import add_statan_arguments

    add_statan_arguments(p_statan)
    return parser


def _make_batch(args) -> np.ndarray:
    from .workloads import (
        clustered_arrays,
        duplicate_heavy_arrays,
        generate_spectra,
        normal_arrays,
        uniform_arrays,
    )

    if args.workload == "uniform":
        return uniform_arrays(args.num_arrays, args.array_size, seed=args.seed)
    if args.workload == "normal":
        return normal_arrays(args.num_arrays, args.array_size, seed=args.seed)
    if args.workload == "clustered":
        return clustered_arrays(args.num_arrays, args.array_size, seed=args.seed)
    if args.workload == "duplicates":
        return duplicate_heavy_arrays(args.num_arrays, args.array_size, seed=args.seed)
    if args.workload == "spectra":
        return generate_spectra(
            args.num_arrays, min(args.array_size, 4000), seed=args.seed
        ).intensity
    raise ValueError(f"unknown workload {args.workload}")


def _cmd_sort(args) -> int:
    from .baselines import segmented_sort, sequential_sort
    from .baselines.sta import StaSorter
    from .core import GpuArraySort, SortConfig
    from .core.validation import assert_batch_sorted

    batch = _make_batch(args)
    ref = batch.copy() if args.verify else None
    config = SortConfig(
        bucket_size=args.bucket_size,
        sampling_rate=args.sampling_rate,
        fuse_phases=not args.no_fuse,
    )

    t0 = time.perf_counter()
    if args.technique == "arraysort":
        if args.planner is not None and args.engine != "vectorized":
            print("--planner applies to the vectorized engine only",
                  file=sys.stderr)
            return 2
        sorter = GpuArraySort(config, engine=args.engine, planner=args.planner)
        result = sorter.sort(batch)
        out = result.batch
        elapsed = time.perf_counter() - t0
        # fuse_phases only selects a path inside the vectorized engine
        label = args.engine
        if args.engine == "vectorized":
            label += ", fused" if config.fuse_phases else ", unfused"
        print(f"GPU-ArraySort ({label}) on {batch.shape}: "
              f"{elapsed:.3f} s wall")
        for phase, secs in result.phase_seconds.items():
            print(f"  {phase}: {secs:.3f} s")
        plan = getattr(result, "execution_plan", None)
        if plan is not None:
            print(f"  planner: chose {plan.engine} (source={plan.source})")
        if result.modeled_ms is not None:
            print(f"  modeled device time: {result.modeled_ms:.1f} ms")
    elif args.technique == "sta":
        result = StaSorter().sort(batch)
        out = result.batch
        elapsed = time.perf_counter() - t0
        print(f"STA on {batch.shape}: {elapsed:.3f} s wall")
        for phase, secs in result.phase_seconds.items():
            print(f"  {phase}: {secs:.3f} s")
    elif args.technique == "segmented":
        out = segmented_sort(batch)
        print(f"segmented sort on {batch.shape}: {time.perf_counter() - t0:.3f} s wall")
    else:
        out = sequential_sort(batch)
        print(f"sequential sort on {batch.shape}: {time.perf_counter() - t0:.3f} s wall")

    if args.verify:
        assert_batch_sorted(out, ref)
        print("verification: OK (sorted + permutation)")
    return 0


def _cmd_figures(args) -> int:
    from .analysis.perfmodel import model_arraysort_ms, model_sta_ms
    from .analysis.reporting import ascii_plot, render_series
    from .gpusim.device import K40C

    which = args.which

    if which in ("fig2", "all"):
        from .analysis.complexity import fit_scale

        sizes = list(range(100, 2001, 100))
        measured = [model_arraysort_ms(K40C, 50_000, n) for n in sizes]
        fit = fit_scale(sizes, measured)
        print(render_series(
            "n", sizes,
            {"modeled_ms": measured, "theory_ms": list(fit.predicted)},
            title=f"Fig 2 — time vs array size (N=50000), R^2={fit.r_squared:.4f}",
        ))
        print()

    fig_sizes = {"fig4": 1000, "fig5": 2000, "fig6": 3000, "fig7": 4000}
    for fig, n in fig_sizes.items():
        if which not in (fig, "all"):
            continue
        n_values = [25_000, 50_000, 100_000, 150_000, 200_000]
        if n == 4000:
            n_values = [25_000, 50_000, 100_000, 150_000]
        gas = [model_arraysort_ms(K40C, N, n) for N in n_values]
        sta = [model_sta_ms(K40C, N, n) for N in n_values]
        print(render_series(
            "N", n_values, {"GPU-ArraySort_ms": gas, "STA_ms": sta},
            title=f"{fig.upper()} — runtime vs number of arrays (n={n})",
        ))
        print(ascii_plot(n_values, {"GAS": gas, "STA": sta}))
        print()
    return 0


def _cmd_table1(args) -> int:
    from .analysis.memory_model import table1_rows
    from .analysis.reporting import render_table

    rows = table1_rows(measure=not args.no_measure)
    print(render_table(
        ["n", "paper GAS", "model GAS", "measured GAS",
         "paper STA", "model STA", "measured STA", "advantage"],
        [
            [r.array_size, r.paper_arraysort, r.model_arraysort,
             r.measured_arraysort or "-", r.paper_sta, r.model_sta,
             r.measured_sta or "-", f"{r.model_advantage:.2f}x"]
            for r in rows
        ],
        title="Table 1 — maximum arrays sortable on a Tesla K40c",
    ))
    return 0


def _cmd_devices() -> int:
    from .analysis.reporting import render_table
    from .gpusim.device import DEVICE_CATALOG

    rows = [
        [key, spec.name, spec.sm_count, spec.cuda_cores,
         f"{spec.global_mem_bytes // (1024 * 1024)} MiB",
         f"{spec.shared_mem_per_block // 1024} KiB"]
        for key, spec in sorted(DEVICE_CATALOG.items())
    ]
    print(render_table(
        ["key", "name", "SMs", "cores", "global mem", "shared/block"],
        rows, title="Simulated device catalog",
    ))
    return 0


def _cmd_pairs(args) -> int:
    from .core.pairs import sort_pairs
    from .workloads import generate_spectra

    spectra = generate_spectra(args.num_spectra, args.peaks, seed=args.seed)
    keys = spectra.view(args.by)
    values = spectra.view("intensity" if args.by == "mz" else "mz")
    t0 = time.perf_counter()
    result = sort_pairs(keys, values)
    elapsed = time.perf_counter() - t0
    print(f"Sorted {args.num_spectra} spectra ({args.peaks} peaks) by "
          f"{args.by}, carrying the paired column: {elapsed:.3f} s")
    print(f"first spectrum, first 3 pairs: "
          f"{list(zip(result.keys[0, :3].tolist(), result.values[0, :3].tolist()))}")
    return 0


def _cmd_outofcore(args) -> int:
    from .core.pipeline import OutOfCoreSorter, plan_chunks
    from .analysis.perfmodel import model_arraysort_ms
    from .gpusim.device import DEVICE_CATALOG

    spec = DEVICE_CATALOG[args.device.lower()]
    plan = plan_chunks(args.num_arrays, args.array_size, device=spec)
    print(f"{args.num_arrays} arrays x {args.array_size} on {spec.name}: "
          f"{plan.num_chunks} chunks of {plan.arrays_per_chunk} arrays "
          f"({plan.chunk_bytes / 1e9:.2f} GB each, double-buffered)")
    sorter = OutOfCoreSorter(device=spec, pcie_gbps=args.pcie_gbps)
    per_chunk_arrays = plan.arrays_per_chunk
    # Model-only timeline (no host data needed at this scale).
    chunk_sizes = [per_chunk_arrays] * (plan.num_chunks - 1) if plan.num_chunks else []
    if plan.num_chunks:
        chunk_sizes.append(args.num_arrays - per_chunk_arrays * (plan.num_chunks - 1))
    itembytes = 4
    uploads = [c * args.array_size * itembytes / (args.pcie_gbps * 1e9) * 1e3
               for c in chunk_sizes]
    computes = [model_arraysort_ms(spec, c, args.array_size) for c in chunk_sizes]
    from .core.pipeline import pipeline_timeline

    total = pipeline_timeline(uploads, computes, uploads, overlap=True)
    serial = pipeline_timeline(uploads, computes, uploads, overlap=False)
    print(f"modeled timeline: overlapped {total:.0f} ms vs serialized "
          f"{serial:.0f} ms ({serial / max(total, 1e-9):.2f}x hidden)")
    return 0


def _cmd_capacity(args) -> int:
    from pathlib import Path

    from .outofcore import (
        BatchFile,
        CapacitySorter,
        format_memory_size,
        parse_memory_size,
        write_batch_file,
    )

    spill_dir = Path(args.spill_dir)
    spill_dir.mkdir(parents=True, exist_ok=True)
    dtype = np.dtype(args.dtype)
    rows, row_len = args.num_arrays, args.array_size
    input_path = spill_dir / "input.bin"
    expected = rows * row_len * dtype.itemsize
    if args.resume and input_path.exists() and \
            input_path.stat().st_size >= expected:
        print(f"reusing input {input_path} ({expected} bytes)")
    else:
        def block(block_index: int, start: int, take: int) -> np.ndarray:
            # Per-block generator seeded by (seed, block): bounded memory
            # and reproducible regardless of block size or resume point.
            rng = np.random.default_rng([args.seed, block_index])
            if args.workload == "normal":
                data = rng.normal(0.0, 1.0, (take, row_len))
            else:
                data = rng.uniform(0.0, 2**31 - 1, (take, row_len))
            return data.astype(dtype)

        write_batch_file(input_path, block, rows=rows, row_len=row_len,
                         dtype=dtype)
        print(f"wrote input {input_path} ({expected} bytes)")
    source = BatchFile(path=input_path, rows=rows, row_len=row_len,
                       dtype=dtype)

    budget = parse_memory_size(args.memory_budget)
    sorter = CapacitySorter(
        budget,
        planner=args.planner,
        verify=args.verify,
        max_chunk_rows=args.max_chunk_rows,
        progress=lambda info: print(
            f"  chunk {info['index']:>6}: {info['rows']} rows "
            f"({info['rows_done']}/{info['total_rows']})"
        ),
    )
    plan = sorter.plan(rows, row_len, dtype)
    print(
        f"budget {format_memory_size(budget)}: "
        f"{plan.num_chunks} chunk(s) of {plan.chunk_rows} rows "
        f"({format_memory_size(plan.working_set_bytes)} working set, "
        f"batch {format_memory_size(plan.total_bytes)}, "
        f"{plan.oversubscription:.1f}x over budget)"
    )
    result = sorter.run(
        source, spill_dir=spill_dir / "spill",
        resume=args.resume, reclaim=args.reclaim,
    )
    stats = result.stats
    throughput = stats.rows_sorted / max(stats.wall_seconds, 1e-9)
    print(
        f"done: {stats.chunks_committed} committed "
        f"(+{stats.chunks_resumed} resumed), "
        f"{stats.rows_sorted} rows in {stats.wall_seconds:.2f}s "
        f"({throughput:,.0f} rows/s), "
        f"{format_memory_size(stats.spill_bytes_written)} spilled"
    )
    if stats.shrink_events or stats.serial_fallback_chunks:
        print(
            f"degraded: {stats.shrink_events} shrink(s), "
            f"{stats.serial_fallback_chunks} serial-fallback chunk(s)"
        )
    return 0


def _cmd_calibrate(args) -> int:
    from .analysis.calibration import (
        PAPER_TIME_ANCHORS,
        fit_memory_fraction,
        fit_time_calibration,
    )
    from .analysis.perfmodel import CALIBRATION
    from .gpusim.device import K40C

    time_fit = fit_time_calibration(PAPER_TIME_ANCHORS)
    mem_fit = fit_memory_fraction()
    print(f"time calibration : fitted {time_fit.value:.2f} "
          f"(shipped {CALIBRATION})")
    print(f"memory fraction  : fitted {mem_fit.value:.3f} "
          f"(shipped {K40C.usable_mem_fraction})")
    if args.show_anchors:
        print("\nper-anchor residuals (prediction vs figure reading):")
        for key, residual in time_fit.residuals.items():
            print(f"  {key:<28} {residual:+.1%}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sort":
        return _cmd_sort(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "devices":
        return _cmd_devices()
    if args.command == "pairs":
        return _cmd_pairs(args)
    if args.command == "outofcore":
        return _cmd_outofcore(args)
    if args.command == "capacity":
        return _cmd_capacity(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "workloads":
        return _cmd_workloads()
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "topk":
        return _cmd_topk(args)
    if args.command == "memcheck":
        return _cmd_memcheck(args)
    if args.command == "resilience":
        return _cmd_resilience(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "fleet-bench":
        return _cmd_fleet_bench(args)
    if args.command == "statan":
        from .statan.cli import run_statan

        return run_statan(args)
    if args.command == "export":
        from .analysis.export import export_all

        written = export_all(args.output_dir)
        for artifact, path in sorted(written.items()):
            print(f"{artifact:<8} -> {path}")
        return 0
    return 2  # pragma: no cover - argparse enforces choices


def _cmd_memcheck(args) -> int:
    import numpy as np

    from .core.config import SortConfig
    from .core.kernels import (
        bucket_sort_kernel,
        bucketing_kernel,
        splitter_selection_kernel,
    )
    from .core.splitters import regular_sample_indices, splitter_pick_indices
    from .gpusim import GpuDevice, Tracer
    from .gpusim.memcheck import check_races
    from .workloads import uniform_arrays

    gpu = GpuDevice.micro()
    cfg = SortConfig()
    batch = uniform_arrays(args.num_arrays, args.array_size, seed=args.seed)
    N, n = batch.shape
    p = cfg.num_buckets(n)
    q = p - 1
    sample_idx = regular_sample_indices(n, cfg)
    pick_idx = splitter_pick_indices(len(sample_idx), p)

    tracer = Tracer(max_records=1_000_000)
    d_data = gpu.memory.alloc_like(batch.ravel())
    d_split = gpu.memory.alloc(max(N * q, 1), np.float32)
    d_sizes = gpu.memory.alloc(N * p, np.int32)
    gpu.launch(
        splitter_selection_kernel, grid=N, block=1,
        args=(d_data, d_split, n, q, sample_idx, pick_idx),
        shared_setup=lambda sm: sm.alloc(len(sample_idx), np.float32),
        trace=tracer, name="phase1",
    )
    gpu.launch(
        bucketing_kernel, grid=N, block=p,
        args=(d_data, d_split, d_sizes, n, p),
        shared_setup=lambda sm: {
            "row": sm.alloc(n, np.float32, "row"),
            "splitters": sm.alloc(p + 1, np.float64, "splitters"),
            "counts": sm.alloc(p, np.int32, "counts"),
            "offsets": sm.alloc(p, np.int32, "offsets"),
        },
        trace=tracer, name="phase2",
    )
    gpu.launch(
        bucket_sort_kernel, grid=N, block=p,
        args=(d_data, d_sizes, n, p),
        shared_setup=lambda sm: {
            "sizes": sm.alloc(p, np.int32, "sizes"),
            "offsets": sm.alloc(p, np.int32, "offsets"),
        },
        trace=tracer, name="phase3",
    )
    assert np.array_equal(
        d_data.copy_to_host().reshape(N, n), np.sort(batch, axis=1)
    )
    report = check_races(tracer)
    print(f"traced {report.records_analyzed} warp-step accesses across "
          f"3 kernels on a {N} x {n} batch")
    if report.clean:
        print("memcheck: CLEAN — no intra-block or cross-block races; the "
              "in-place write-back is conflict-free")
        rc = 0
    else:
        print(f"memcheck: {len(report.findings)} finding(s):")
        for finding in report.findings[:10]:
            print(f"  {finding}")
        rc = 1
    for arr in (d_data, d_split, d_sizes):
        gpu.memory.free(arr)
    return rc


def _cmd_resilience(args) -> int:
    import time as _time

    from .analysis.reporting import render_table
    from .core import StreamingSorter
    from .core.config import SortConfig
    from .core.validation import is_sorted_rows, rows_are_permutations
    from .gpusim.faults import FaultPlan
    from .resilience import ResilientSorter, RetryPolicy

    windows = []
    for spec in args.oom_window:
        try:
            start, stop = spec.split(":")
            windows.append((int(start), int(stop)))
        except ValueError:
            print(f"bad --oom-window {spec!r}; expected START:STOP", file=sys.stderr)
            return 2

    batch = _make_batch(args)
    plan = FaultPlan(
        seed=args.seed,
        kernel_fault_rate=args.fault_rate,
        corruption_rate=args.corruption_rate,
        oom_windows=windows,
    )
    resilient = ResilientSorter(
        SortConfig(),
        engine=args.engine,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=args.max_retries),
        sleep=_time.sleep if args.real_backoff else None,
    )
    streamer = StreamingSorter(
        batch.shape[1], batch_arrays=args.batch_arrays, sorter=resilient
    )
    t0 = time.perf_counter()
    streamer.push_slab(batch)
    streamer.flush()
    elapsed = time.perf_counter() - t0

    emitted = np.vstack(streamer.results) if streamer.results else np.empty((0, 0))
    quarantined = streamer.stats.arrays_quarantined
    corrupted_emitted = 0
    if emitted.size:
        corrupted_emitted = int((~is_sorted_rows(emitted)).sum())
    stats = resilient.stats
    print(
        f"streamed {batch.shape[0]} arrays x {batch.shape[1]} under "
        f"fault_rate={args.fault_rate} corruption_rate={args.corruption_rate} "
        f"oom_windows={windows or '[]'} (seed {args.seed}): {elapsed:.3f} s"
    )
    print(render_table(
        ["counter", "value"],
        [[key, value] for key, value in stats.as_dict().items()],
        title="ResilienceStats",
    ))
    print(f"batches emitted : {streamer.stats.batches_out} "
          f"(ids {streamer.emitted_batch_ids[:8]}{'...' if len(streamer.emitted_batch_ids) > 8 else ''})")
    print(f"rows emitted    : {streamer.stats.arrays_out}")
    print(f"rows quarantined: {quarantined}")
    if streamer.dead_letters is not None:
        print(f"dead letters    : {dict(streamer.dead_letters.reasons())}")
    # Cross-check: emitted rows must be permutations of the non-quarantined
    # inputs, in arrival order (batches are pushed and emitted in order).
    keep = np.ones(batch.shape[0], dtype=bool)
    if streamer.dead_letters is not None:
        for letter in streamer.dead_letters:
            keep[letter.batch_id * args.batch_arrays + letter.row_index] = False
    expected = batch[keep]
    if emitted.shape != expected.shape or not bool(
        np.all(rows_are_permutations(emitted, expected))
    ):
        corrupted_emitted += 1
    if corrupted_emitted:
        print(f"CORRUPTED EMITTED ROWS: {corrupted_emitted}")
        return 1
    print("verification: OK (every emitted row sorted; zero corrupted rows)")
    return 0


def _cmd_serve_bench(args) -> int:
    from .analysis.reporting import render_table
    from .core.config import SortConfig
    from .service import (
        SortService,
        collect_metrics,
        parse_size_mix,
        render_prometheus,
        run_service_traffic,
        run_unbatched_traffic,
    )

    try:
        size_mix = parse_size_mix(args.size_mix)
    except ValueError as exc:
        print(f"--size-mix: {exc}", file=sys.stderr)
        return 2
    deadline_s = args.deadline_ms / 1e3 if args.deadline_ms is not None else None

    config = SortConfig()
    service = SortService(
        config=config,
        planner=args.planner,
        backend="resilient" if args.backend == "resilient" else None,
        batch_target_rows=args.batch_target,
        linger_ms=args.linger_ms,
    )
    with service:
        report = run_service_traffic(
            service,
            mode=args.arrival,
            clients=args.clients,
            total_requests=args.requests,
            rate_rps=args.rate,
            array_size=args.array_size,
            size_mix=size_mix,
            deadline_s=deadline_s,
            seed=args.seed,
        )
        stats = service.stats()
        metrics = collect_metrics(service)

    def _emit(path: str, text: str) -> None:
        if path == "-":
            print(text, end="" if text.endswith("\n") else "\n")
        else:
            with open(path, "w") as handle:
                handle.write(text if text.endswith("\n") else text + "\n")
            print(f"wrote {path}")

    if args.metrics_json is not None:
        _emit(args.metrics_json,
              json.dumps(metrics, indent=2, sort_keys=True))
    if args.metrics_prom is not None:
        _emit(args.metrics_prom, render_prometheus(metrics))

    pct = report.latency_percentiles()
    print(f"service traffic ({report.mode} loop, {report.clients} clients, "
          f"n={args.array_size}): {report.completed}/{report.requests_issued} "
          f"completed in {report.wall_seconds:.3f} s")
    print(f"  throughput : {report.throughput_rps:.0f} req/s "
          f"({report.throughput_rows_per_s:.0f} rows/s)")
    if pct:
        print(f"  latency ms : p50={pct['p50']:.2f} p95={pct['p95']:.2f} "
              f"p99={pct['p99']:.2f} mean={pct['mean']:.2f}")
    print(f"  shed={report.shed} deadline_missed={report.deadline_missed} "
          f"failed={report.failed} reject_retries={report.rejected_retries}")
    print(f"  batches={stats.batches} mean_occupancy="
          f"{stats.mean_occupancy_rows:.1f} rows")
    if stats.occupancy_histogram:
        print(render_table(
            ["batch rows", "count"],
            [[bucket, count]
             for bucket, count in sorted(stats.occupancy_histogram.items())],
            title="Batch occupancy",
        ))

    if args.unbatched:
        baseline = run_unbatched_traffic(
            mode=args.arrival,
            clients=args.clients,
            total_requests=args.requests,
            rate_rps=args.rate,
            array_size=args.array_size,
            size_mix=size_mix,
            seed=args.seed,
            config=config,
        )
        speedup = (report.throughput_rps / baseline.throughput_rps
                   if baseline.throughput_rps else float("inf"))
        print(f"unbatched baseline: {baseline.throughput_rps:.0f} req/s in "
              f"{baseline.wall_seconds:.3f} s -> batched speedup "
              f"{speedup:.2f}x")
    return 0


def _cmd_fleet_bench(args) -> int:
    from .fleet import (
        SortFleet,
        collect_fleet_metrics,
        render_fleet_prometheus,
    )
    from .service import parse_size_mix, run_service_traffic

    try:
        size_mix = parse_size_mix(args.size_mix)
    except ValueError as exc:
        print(f"--size-mix: {exc}", file=sys.stderr)
        return 2
    deadline_s = args.deadline_ms / 1e3 if args.deadline_ms is not None else None

    fleet = SortFleet(
        workers=args.workers,
        planner=args.planner,
        batch_target_rows=args.batch_target,
        linger_ms=args.linger_ms,
        max_worker_queue_rows=args.worker_bound,
        retry_jitter_seed=args.jitter_seed,
    )
    with fleet:
        report = run_service_traffic(
            fleet,
            mode=args.arrival,
            clients=args.clients,
            total_requests=args.requests,
            rate_rps=args.rate,
            array_size=args.array_size,
            size_mix=size_mix,
            deadline_s=deadline_s,
            seed=args.seed,
            stagger=(args.arrival == "open"),
        )
        stats = fleet.stats()
        metrics = collect_fleet_metrics(fleet)

    def _emit(path: str, text: str) -> None:
        if path == "-":
            print(text, end="" if text.endswith("\n") else "\n")
        else:
            with open(path, "w") as handle:
                handle.write(text if text.endswith("\n") else text + "\n")
            print(f"wrote {path}")

    if args.metrics_json is not None:
        _emit(args.metrics_json,
              json.dumps(metrics, indent=2, sort_keys=True))
    if args.metrics_prom is not None:
        _emit(args.metrics_prom, render_fleet_prometheus(metrics))

    pct = report.latency_percentiles()
    print(f"fleet traffic ({report.mode} loop, {report.clients} clients, "
          f"{args.workers} workers, n={args.array_size}): "
          f"{report.completed}/{report.requests_issued} completed in "
          f"{report.wall_seconds:.3f} s")
    print(f"  throughput : {report.throughput_rps:.0f} req/s "
          f"({report.throughput_rows_per_s:.0f} rows/s)")
    if pct:
        print(f"  latency ms : p50={pct['p50']:.2f} p95={pct['p95']:.2f} "
              f"p99={pct['p99']:.2f} mean={pct['mean']:.2f}")
    print(f"  shed={report.shed} deadline_missed={report.deadline_missed} "
          f"failed={report.failed} reject_retries={report.rejected_retries}")
    print(f"  workers alive={stats.workers_alive}/{stats.workers_total} "
          f"failovers={stats.failovers} redispatched={stats.redispatched} "
          f"parent_fallbacks={stats.parent_fallbacks}")
    for worker_id in sorted(stats.workers):
        worker = stats.workers[worker_id]
        print(f"  worker {worker_id}: dispatched={worker.dispatched} "
              f"completed={worker.completed} failed={worker.failed} "
              f"{'alive' if worker.alive else 'DEAD'}")
    return 0


def _cmd_topk(args) -> int:
    from .core.topk import top_k, top_k_via_sort
    from .workloads import generate_spectra

    spectra = generate_spectra(
        args.num_arrays, min(args.array_size, 4000), seed=args.seed
    )
    t0 = time.perf_counter()
    kept = top_k(spectra.intensity, args.k)
    bucket_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle = top_k_via_sort(spectra.intensity, args.k)
    sort_s = time.perf_counter() - t0
    assert (kept == oracle).all()
    total = spectra.intensity.sum()
    kept_signal = kept.sum() / total if total else 0.0
    print(f"kept top {args.k}/{spectra.peaks_per_spectrum} peaks of "
          f"{args.num_arrays} spectra: {kept_signal:.0%} of total signal")
    print(f"bucket top-k: {bucket_s:.3f} s | sort-then-slice: {sort_s:.3f} s "
          "(results identical)")
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import build_report, evaluate_claims

    text = build_report(include_figures=not args.claims_only)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    claims = evaluate_claims()
    return 0 if all(c.passed for c in claims) else 1


def _cmd_workloads() -> int:
    from .analysis.reporting import render_table
    from .workloads import STANDARD_SUITE

    print(render_table(
        ["name", "N", "n", "description"],
        [[name, spec.num_arrays, spec.array_size, spec.description]
         for name, spec in sorted(STANDARD_SUITE.items())],
        title="Standard workload suite",
    ))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
