"""Closed-loop workloads: ``batch`` (the facade alone) and ``spill`` (the
out-of-core capacity tier).  One caller sends its next operation only
after the previous one returned.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

from _harness import (
    LATENCY_LIMIT_MS,
    REFERENCE_NPSORT_MS,
    TAIL_PERCENTILE,
    CoreTrace,
    Phase,
    TimedSorter,
    fresh_planner,
    npsort_ms_p50,
    npsort_seconds,
    peak_rss_mb,
    percentile,
    ratio,
    reference_scale,
    same_bytes,
    samples_beyond,
    warm_planner,
)

#: The ``batch`` pool: (name, dtype, rows, cols, share of rows carrying a
#: NaN).  Every dtype meets every row length once, 2 MiB per batch, plus
#: the ROADMAP's ``ref-f32-small`` shape.  Equal sizes keep the per-call
#: latencies close together, so their median does not jump from one
#: shape to another when the host slows some shapes more than others.
#: Shapes are fixed; the seed draws the values, the NaN positions and
#: the call order.
BATCH_POOL = (
    ("f32-n256", "float32", 2048, 256, 0.0),
    ("f32-n1000", "float32", 524, 1000, 0.02),
    ("f32-n4000", "float32", 131, 4000, 0.0),
    ("f64-n256", "float64", 1024, 256, 0.02),
    ("f64-n1000", "float64", 262, 1000, 0.0),
    ("f64-n4000", "float64", 65, 4000, 0.02),
    ("i32-n256", "int32", 2048, 256, 0.0),
    ("i32-n1000", "int32", 524, 1000, 0.0),
    ("i32-n4000", "int32", 131, 4000, 0.0),
    ("i64-n256", "int64", 1024, 256, 0.0),
    ("i64-n1000", "int64", 262, 1000, 0.0),
    ("i64-n4000", "int64", 65, 4000, 0.0),
    ("ref-f32-small", "float32", 1000, 500, 0.0),
)

#: The ``spill`` input: a float64 batch file 4.6x the memory budget.
SPILL_ROWS, SPILL_COLS, SPILL_BUDGET = 6000, 1000, "10M"


def random_batch(rng, dtype, rows: int, cols: int, nan_share: float = 0.0):
    """Seeded ``(rows, cols)`` batch: normal floats (no exact zeros, so
    the byte oracle never meets a -0.0/+0.0 tie) or full-range ints."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        batch = (rng.standard_normal((rows, cols)) * 1e3).astype(dtype)
        nan_rows = int(round(nan_share * rows))
        if nan_rows:
            picked = rng.choice(rows, size=nan_rows, replace=False)
            batch[picked, rng.integers(0, cols, size=nan_rows)] = np.nan
        return batch
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=(rows, cols), dtype=dtype,
                        endpoint=True)


# -- batch -------------------------------------------------------------------
@dataclasses.dataclass
class _PoolItem:
    name: str
    batch: np.ndarray
    expected: np.ndarray
    has_nan: bool


@dataclasses.dataclass
class BatchInputs:
    seed: int
    pool: List[_PoolItem]


def batch_inputs(seed: int, tmp: Path) -> BatchInputs:
    rng = np.random.default_rng([seed, 1])
    pool = []
    for name, dtype, rows, cols, nan_share in BATCH_POOL:
        batch = random_batch(rng, dtype, rows, cols, nan_share)
        pool.append(_PoolItem(name, batch, np.sort(batch, axis=1), nan_share > 0))
    return BatchInputs(seed, pool)


def batch_phase(inputs: BatchInputs, tmp: Path, seconds: float, *,
                traced: bool, setups: int) -> Phase:
    """``GpuArraySort(SortConfig(nan_policy="sort_to_end"), planner="auto")``
    sorting the pool round-robin (a fresh seeded order each round).
    Each call is timed alone; the oracle check and the interleaved
    ``np.sort`` anchor run between calls, outside the timed span."""
    from repro.core import GpuArraySort, SortConfig

    config = SortConfig(nan_policy="sort_to_end")
    batches = [item.batch for item in inputs.pool]
    setup_s, scaled_setup_s, warm_s = [], [], []
    for _ in range(setups):
        fresh_planner(tmp)
        t0 = time.perf_counter()
        sorter = GpuArraySort(config, planner="auto")
        t1 = time.perf_counter()
        warm_planner(sorter, batches)
        t2 = time.perf_counter()
        setup_s.append(t2 - t0)
        scaled_setup_s.append(
            (t2 - t0) * reference_scale("batch", npsort_seconds(batches)))
        warm_s.append(t2 - t1)

    target = sorter
    if traced:
        log_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=tmp))
        target = TimedSorter(lambda: sorter, log_dir)

    order_rng = np.random.default_rng([inputs.seed, 2])
    sort_s, anchor_s, round_npsort_ms = [], [], []
    scaled_ms: List[float] = []
    nan_calls = rows_ok = failed = slo_ok = 0
    cpu = scaled_cpu = 0.0
    start = time.perf_counter()
    # Whole rounds only, so every call is scaled by its own round's anchor.
    while time.perf_counter() - start < seconds:
        round_sort, round_anchor, round_cpu = [], [], 0.0
        for index in order_rng.permutation(len(inputs.pool)):
            item = inputs.pool[index]
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = target.sort(item.batch)
            t1 = time.perf_counter()
            round_cpu += time.process_time() - c0
            ok = same_bytes(result.batch, item.expected)
            t2 = time.perf_counter()
            np.sort(item.batch, axis=1)
            round_anchor.append(time.perf_counter() - t2)
            round_sort.append(t1 - t0)
            nan_calls += item.has_nan
            if ok:
                rows_ok += item.batch.shape[0]
                slo_ok += (t1 - t0) * 1e3 <= LATENCY_LIMIT_MS["batch"]
            else:
                failed += 1
        scale = reference_scale("batch", sum(round_anchor))
        sort_s += round_sort
        anchor_s += round_anchor
        round_npsort_ms.append(sum(round_anchor) * 1e3)
        scaled_ms.extend(np.asarray(round_sort) * (scale * 1e3))
        cpu += round_cpu
        scaled_cpu += round_cpu * scale

    calls = len(sort_s)
    lat_ms = np.asarray(sort_s) * 1e3
    tail_q = TAIL_PERCENTILE["batch"]
    phase = Phase(
        attempted=calls,
        failed=failed,
        e2e={
            "rows_per_s": ratio(rows_ok, sum(scaled_ms) / 1e3),
            "latency_p50_ms": percentile(scaled_ms, 50),
            "latency_tail_ms": percentile(scaled_ms, tail_q),
            "slo_ratio": ratio(slo_ok, calls),
            "cpu_ms_per_krow": ratio(scaled_cpu * 1e3, rows_ok / 1e3),
            "x_npsort": ratio(sum(sort_s), sum(anchor_s)),
            "setup_s": statistics.median(scaled_setup_s),
            "peak_rss_mb": peak_rss_mb(),
        },
        detail={
            "calls": calls,
            "tail_percentile": tail_q,
            "tail_samples_beyond": samples_beyond(calls, tail_q),
            "unscaled": {
                "rows_per_s": ratio(rows_ok, sum(sort_s)),
                "latency_p50_ms": percentile(lat_ms, 50),
                "latency_tail_ms": percentile(lat_ms, tail_q),
                "cpu_ms_per_krow": ratio(cpu * 1e3, rows_ok / 1e3),
                "setup_s": statistics.median(setup_s),
            },
            "round_npsort_ms_p50": percentile(round_npsort_ms, 50),
            "reference_npsort_ms": REFERENCE_NPSORT_MS["batch"],
            "latency_limit_ms": LATENCY_LIMIT_MS["batch"],
            "setup_s_all": scaled_setup_s,
            "pool": [
                [item.name, item.batch.dtype.name, *item.batch.shape, item.has_nan]
                for item in inputs.pool
            ],
            "plan_counts": sorter.planner.plan_counts(),
        },
    )
    if traced:
        target.close()
        phase.layers = CoreTrace.load(log_dir).metrics(
            warmup_s=statistics.median(warm_s),
            npsort_ms=percentile(np.asarray(anchor_s) * 1e3, 50),
            nan_batches=nan_calls,
        )
    return phase


# -- spill -------------------------------------------------------------------
@dataclasses.dataclass
class SpillInputs:
    seed: int
    data: np.ndarray
    expected: np.ndarray
    source: object  # repro.outofcore.BatchFile


def spill_inputs(seed: int, tmp: Path) -> SpillInputs:
    from repro.outofcore import write_batch_file

    rng = np.random.default_rng([seed, 3])
    data = random_batch(rng, "float64", SPILL_ROWS, SPILL_COLS)
    source = write_batch_file(
        tmp / "spill-input.bin",
        lambda _index, start, rows: data[start : start + rows],
        rows=SPILL_ROWS, row_len=SPILL_COLS, dtype=data.dtype,
    )
    return SpillInputs(seed, data, np.sort(data, axis=1), source)


def plain_spill_seconds(data: np.ndarray, chunk_rows: int,
                        directory: Path) -> Tuple[float, float]:
    """The spill workload done with numpy and the OS alone: ``np.sort``
    each ``chunk_rows`` slice of ``data``, write it to a file of its own
    in a fresh directory under ``directory`` and fsync it.  Returns the
    sort time and the total wall time; the files are removed."""
    target = Path(tempfile.mkdtemp(prefix="plain-", dir=directory))
    sort_s = 0.0
    t0 = time.perf_counter()
    for first in range(0, data.shape[0], chunk_rows):
        t1 = time.perf_counter()
        rows = np.sort(data[first : first + chunk_rows], axis=1)
        sort_s += time.perf_counter() - t1
        with open(target / f"{first}.bin", "wb") as handle:
            rows.tofile(handle)
            handle.flush()
            os.fsync(handle.fileno())
    total = time.perf_counter() - t0
    shutil.rmtree(target)
    return sort_s, total


def spill_phase(inputs: SpillInputs, tmp: Path, seconds: float, *,
                traced: bool, setups: int) -> Phase:
    """``CapacitySorter(budget, planner="auto").run(BatchFile, spill_dir=...)``
    repeated into a fresh spill directory until ``seconds`` have passed.
    Chunk latency is the interval between ``progress`` callbacks; the
    spilled chunks are compared with ``np.sort`` after each run."""
    from repro.core import DEFAULT_CONFIG, GpuArraySort
    from repro.outofcore import CapacitySorter

    log_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=tmp)) if traced else None
    wrappers: List[TimedSorter] = []

    def traced_factory(_chunk_rows: int) -> TimedSorter:
        # Exactly the sorter CapacitySorter._make_sorter builds.
        wrapper = TimedSorter(
            functools.partial(GpuArraySort, DEFAULT_CONFIG, planner="auto",
                              verify=False, workspace=None),
            log_dir,
        )
        wrappers.append(wrapper)
        return wrapper

    setup_s, scaled_setup_s, warm_s = [], [], []
    for _ in range(setups):
        fresh_planner(tmp)
        t0 = time.perf_counter()
        capacity = CapacitySorter(SPILL_BUDGET, planner="auto",
                                  sorter_factory=traced_factory if traced else None)
        plan = capacity.plan(SPILL_ROWS, SPILL_COLS, inputs.data.dtype)
        t1 = time.perf_counter()
        last_rows = SPILL_ROWS - (plan.num_chunks - 1) * plan.chunk_rows
        warm_planner(
            GpuArraySort(DEFAULT_CONFIG, planner="auto"),
            [inputs.data[: plan.chunk_rows].copy(), inputs.data[:last_rows].copy()],
        )
        t2 = time.perf_counter()
        setup_s.append(t2 - t0)
        _, plain_s = plain_spill_seconds(inputs.data, plan.chunk_rows, tmp)
        scaled_setup_s.append((t2 - t0) * reference_scale("spill", plain_s))
        warm_s.append(t2 - t1)

    chunk_ms: List[float] = []
    scaled_chunk_ms: List[float] = []
    run_s, anchor_s, plain_spill_s = [], [], []
    chunks = failed = slo_ok = rows_ok = 0
    spilled = shrinks = fallbacks = recommits = 0
    cpu = scaled_s = scaled_cpu = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        spill_dir = Path(tempfile.mkdtemp(prefix="spill-", dir=tmp))
        ticks: List[float] = []
        capacity.progress = lambda _info: ticks.append(time.perf_counter())
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = capacity.run(inputs.source, spill_dir=spill_dir)
        t1 = time.perf_counter()
        run_cpu = time.process_time() - c0
        run_s.append(t1 - t0)
        intervals = np.diff([t0] + ticks) * 1e3
        attempted = max(result.plan.num_chunks, len(ticks))
        verified = 0
        for (first, block), interval in zip(result.iter_chunks(), intervals):
            if same_bytes(block, inputs.expected[first : first + block.shape[0]]):
                verified += 1
                rows_ok += block.shape[0]
                slo_ok += interval <= LATENCY_LIMIT_MS["spill"]
        sort_s, plain_s = plain_spill_seconds(inputs.data, plan.chunk_rows, spill_dir)
        anchor_s.append(sort_s)
        plain_spill_s.append(plain_s)
        scale = reference_scale("spill", plain_s)
        chunk_ms.extend(intervals)
        scaled_chunk_ms.extend(intervals * scale)
        cpu += run_cpu
        scaled_s += (t1 - t0) * scale
        scaled_cpu += run_cpu * scale
        chunks += attempted
        failed += attempted - verified
        stats = result.stats
        spilled += stats.spill_bytes_written
        shrinks += stats.shrink_events
        fallbacks += stats.serial_fallback_chunks
        recommits += stats.chunks_recommitted
        shutil.rmtree(spill_dir)

    tail_q = TAIL_PERCENTILE["spill"]
    phase = Phase(
        attempted=chunks,
        failed=failed,
        e2e={
            "rows_per_s": ratio(rows_ok, scaled_s),
            "latency_p50_ms": percentile(scaled_chunk_ms, 50),
            "latency_tail_ms": percentile(scaled_chunk_ms, tail_q),
            "slo_ratio": ratio(slo_ok, chunks),
            "cpu_ms_per_krow": ratio(scaled_cpu * 1e3, rows_ok / 1e3),
            "x_npsort": ratio(sum(run_s), sum(plain_spill_s)),
            "setup_s": statistics.median(scaled_setup_s),
            "peak_rss_mb": peak_rss_mb(),
        },
        detail={
            "runs": len(run_s),
            "x_npsort_sort_only": ratio(sum(run_s), sum(anchor_s)),
            "chunks": chunks,
            "tail_percentile": tail_q,
            "tail_samples_beyond": samples_beyond(len(chunk_ms), tail_q),
            "unscaled": {
                "rows_per_s": ratio(rows_ok, sum(run_s)),
                "latency_p50_ms": percentile(chunk_ms, 50),
                "latency_tail_ms": percentile(chunk_ms, tail_q),
                "cpu_ms_per_krow": ratio(cpu * 1e3, rows_ok / 1e3),
                "setup_s": statistics.median(setup_s),
            },
            "run_npsort_ms_p50": percentile(np.asarray(anchor_s) * 1e3, 50),
            "run_plain_spill_ms_p50": percentile(np.asarray(plain_spill_s) * 1e3, 50),
            "reference_npsort_ms": REFERENCE_NPSORT_MS["spill"],
            "latency_limit_ms": LATENCY_LIMIT_MS["spill"],
            "setup_s_all": scaled_setup_s,
            "input": [SPILL_ROWS, SPILL_COLS, "float64"],
            "budget": SPILL_BUDGET,
        },
    )
    if traced:
        for wrapper in wrappers:
            wrapper.close()
        trace = CoreTrace.load(log_dir)
        layers = trace.metrics(
            warmup_s=statistics.median(warm_s),
            npsort_ms=npsort_ms_p50(lambda rows: inputs.data[:rows], trace.rows),
            nan_batches=0,
        )
        sort_ms = trace.sort_s * 1e3
        commit_ms = (
            np.asarray(chunk_ms) - sort_ms
            if sort_ms.size == len(chunk_ms) else np.asarray([])
        )
        layers.update({
            "outofcore.chunk_sort_ms_p50": percentile(sort_ms, 50),
            "outofcore.commit_ms_p50": percentile(commit_ms, 50),
            "outofcore.spill_mb_per_s": ratio(spilled / 2**20, sum(run_s)),
            "outofcore.chunks": plan.num_chunks,
            "outofcore.chunk_rows": plan.chunk_rows,
            "outofcore.oversubscription": plan.oversubscription,
            "outofcore.shrink_events": shrinks,
            "outofcore.serial_fallback_chunks": fallbacks,
            "outofcore.recommits": recommits,
        })
        phase.layers = layers
    return phase
