"""Device-kernel LSD radix sort — Thrust's engine at kernel granularity.

:mod:`repro.baselines.thrust` models ``stable_sort_by_key``'s *memory*
behaviour on the device but computes the permutation on the host.  This
module closes the loop for micro-scale studies: each radix pass runs as
the three classic kernels on the lock-step simulator —

1. **histogram** — each block counts digit occurrences of its tile into
   shared memory (atomics), then merges to a global digit histogram;
2. **scan** — a single block turns the histogram into exclusive digit
   offsets (the Harris scan of the paper's ref [17]);
3. **scatter** — a single sequential walker emits elements to
   ``offset[digit]++`` positions.  A real GPU computes per-element ranks
   with a block-level scan; the simulator's sequential scatter preserves
   the *stability semantics* and the *memory traffic pattern* (random
   writes, the reason radix sustains ~50 % of peak bandwidth — see
   :data:`repro.analysis.perfmodel.RADIX_SCATTER_EFFICIENCY`), while
   keeping the interpreter tractable.

This is what lets tests compare GPU-ArraySort's and STA's *kernel-level*
hardware behaviour (coalescing, divergence, traffic) on identical data.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..gpusim import GpuDevice, PipelineReport
from .radix import keys_to_values, sortable_keys

__all__ = ["run_radix_pass_on_device", "run_radix_sort_on_device"]


def _histogram_kernel(ctx, shared, d_keys, d_hist, n, shift, mask, radix):
    """Per-block shared histogram of one digit, merged atomically."""
    tid = ctx.thread_idx.x
    bdim = ctx.block_dim.x
    gid = ctx.block_idx.x * bdim + tid
    total = ctx.grid_dim.x * bdim

    for b in range(tid, radix, bdim):
        yield ctx.sstore(shared, b, 0)
    yield ctx.sync()

    i = gid
    while i < n:
        key = yield ctx.gload(d_keys, i)
        yield ctx.alu(2)  # shift + mask
        digit = (int(key) >> shift) & mask
        yield ctx.atomic_add(shared, digit, 1)
        i += total
    yield ctx.sync()

    for b in range(tid, radix, bdim):
        count = yield ctx.sload(shared, b)
        if count:
            yield ctx.atomic_add(d_hist, b, int(count))


def _scan_kernel(ctx, shared, d_hist, d_offsets, radix):
    """Exclusive scan of the digit histogram (single thread; radix=16-256
    is tiny next to n, matching the paper's own single-thread scans)."""
    if ctx.thread_idx.x != 0:
        return
    acc = 0
    for b in range(radix):
        yield ctx.gstore(d_offsets, b, acc)
        count = yield ctx.gload(d_hist, b)
        acc += int(count)


def _scatter_kernel(ctx, shared, d_keys, d_vals, d_out_keys, d_out_vals,
                    d_offsets, n, shift, mask, has_vals):
    """Stable scatter: a sequential walker bumping per-digit cursors.

    Single thread preserves the stable order exactly; the stores land at
    data-dependent addresses — the scattered-write traffic the timing
    model derates radix bandwidth for.
    """
    if ctx.thread_idx.x != 0:
        return
    for i in range(n):
        key = yield ctx.gload(d_keys, i)
        yield ctx.alu(2)
        digit = (int(key) >> shift) & mask
        pos = yield ctx.gload(d_offsets, digit)
        yield ctx.gstore(d_out_keys, int(pos), key)
        if has_vals:
            val = yield ctx.gload(d_vals, i)
            yield ctx.gstore(d_out_vals, int(pos), val)
        yield ctx.gstore(d_offsets, digit, int(pos) + 1)


def run_radix_pass_on_device(
    device: GpuDevice,
    keys: np.ndarray,
    values: np.ndarray = None,
    *,
    shift: int = 0,
    digit_bits: int = 8,
    grid: int = 2,
    block: int = 32,
) -> Tuple[np.ndarray, np.ndarray, PipelineReport]:
    """One LSD pass (histogram/scan/scatter) on the simulated device.

    ``keys`` are unsigned sortable keys (see
    :func:`~repro.baselines.radix.sortable_keys`); other integer kinds
    are read as ``uint32``.
    """
    keys = np.ascontiguousarray(keys)
    if keys.dtype.kind != "u":
        keys = keys.astype(np.uint32)
    n = keys.size
    radix = 1 << digit_bits
    mask = radix - 1
    has_vals = values is not None
    vals = (np.ascontiguousarray(values) if has_vals
            else np.zeros(0, dtype=np.int32))

    pipeline = PipelineReport()
    allocs = []

    def _alloc(fn, *args, **kw):
        arr = fn(*args, **kw)
        allocs.append(arr)
        return arr

    try:
        d_keys = _alloc(device.memory.alloc_like, keys, name="radix_keys")
        d_vals = _alloc(
            device.memory.alloc_like,
            vals if has_vals else np.zeros(1, dtype=np.int32),
            name="radix_vals",
        )
        d_out_keys = _alloc(device.memory.alloc, n, keys.dtype,
                            name="radix_out_keys")
        d_out_vals = _alloc(device.memory.alloc,
                            max(n, 1) if has_vals else 1,
                            vals.dtype if has_vals else np.int32,
                            name="radix_out_vals")
        d_hist = _alloc(device.memory.alloc, radix, np.int64,
                        name="radix_hist")
        d_offsets = _alloc(device.memory.alloc, radix, np.int64,
                           name="radix_offsets")
        d_hist.fill(0)
        pipeline.add(device.launch(
            _histogram_kernel, grid=grid, block=block,
            args=(d_keys, d_hist, n, shift, mask, radix),
            shared_setup=lambda sm: sm.alloc(radix, np.int64),
            name="radix_histogram",
        ))
        pipeline.add(device.launch(
            _scan_kernel, grid=1, block=1,
            args=(d_hist, d_offsets, radix),
            name="radix_scan",
        ))
        pipeline.add(device.launch(
            _scatter_kernel, grid=1, block=1,
            args=(d_keys, d_vals, d_out_keys, d_out_vals, d_offsets, n,
                  shift, mask, has_vals),
            name="radix_scatter",
        ))
        out_keys = d_out_keys.copy_to_host()
        out_vals = d_out_vals.copy_to_host() if has_vals else None
    finally:
        for arr in allocs:
            device.memory.free(arr)
    return out_keys, out_vals, pipeline


def run_radix_sort_on_device(
    device: GpuDevice,
    keys: np.ndarray,
    values: np.ndarray = None,
    *,
    digit_bits: int = 8,
) -> Tuple[np.ndarray, np.ndarray, PipelineReport]:
    """Full stable LSD radix sort on the simulated device.

    Keys of any dtype :func:`~repro.baselines.radix.sortable_keys`
    covers are bit-mapped to unsigned keys, sorted in
    ``ceil(key_bits / digit_bits)`` passes, and mapped back, exactly as
    CUB/Thrust do.
    """
    keys = np.asarray(keys)
    enc = sortable_keys(keys)
    vals = None if values is None else np.ascontiguousarray(values)

    combined = PipelineReport()
    passes = -(-8 * enc.dtype.itemsize // digit_bits)
    for pass_idx in range(passes):
        enc, vals, pipeline = run_radix_pass_on_device(
            device, enc, vals, shift=pass_idx * digit_bits,
            digit_bits=digit_bits,
        )
        for launch in pipeline.launches:
            combined.add(launch)
    return keys_to_values(enc, keys.dtype), vals, combined
