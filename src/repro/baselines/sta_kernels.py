"""STA as device kernels: the full Fig. 3 pipeline on the simulator.

:mod:`repro.baselines.sta` runs STA's sorts on the host (with device
memory accounting); this module executes the whole baseline as kernels
for micro-scale hardware comparisons against GPU-ArraySort's kernels:

1. a **tagging kernel** writes each element's array id (Fig. 3 step I;
   the merge of step II is free — arrays are already contiguous);
2. the optional redundant tag presort (step III),
3. ``stable_sort_by_key(values, tags)`` (step IV),
4. ``stable_sort_by_key(tags, values)`` (step V),

with steps 2-4 running the histogram/scan/scatter kernel pipeline of
:mod:`repro.baselines.radix_kernels`.  The combined
:class:`~repro.gpusim.profiler.PipelineReport` makes claims like "STA
moves an order of magnitude more global data" checkable at the same
granularity as the GPU-ArraySort kernels.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..gpusim import GpuDevice, PipelineReport
from .radix import keys_to_values, sortable_keys
from .radix_kernels import run_radix_sort_on_device

__all__ = ["tagging_kernel", "run_sta_on_device"]


def tagging_kernel(ctx, shared, d_tags, N, n):
    """Fig. 3 step I: element i of array a gets tag a.

    Grid-stride over the N*n tag array; consecutive lanes write
    consecutive tags — fully coalesced.
    """
    total = ctx.grid_dim.x * ctx.block_dim.x
    gid = ctx.block_idx.x * ctx.block_dim.x + ctx.thread_idx.x
    i = gid
    while i < N * n:
        yield ctx.alu(1)  # i // n
        yield ctx.gstore(d_tags, i, i // n)
        i += total


def run_sta_on_device(
    device: GpuDevice,
    batch: np.ndarray,
    *,
    include_redundant_presort: bool = True,
    digit_bits: int = 8,
) -> Tuple[np.ndarray, PipelineReport]:
    """Execute the complete STA baseline as simulator kernels."""
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim != 2:
        raise ValueError(f"expected (N, n) batch, got shape {batch.shape}")
    N, n = batch.shape
    M = N * n
    pipeline = PipelineReport()

    # Step I: tag on device.
    d_tags = device.memory.alloc(max(M, 1), np.uint32, name="sta_tags")
    try:
        pipeline.add(device.launch(
            tagging_kernel, grid=2, block=32, args=(d_tags, N, n),
            name="sta_tagging",
        ))
        tags = d_tags.copy_to_host()[:M]
    finally:
        device.memory.free(d_tags)
    # Values travel as sortable keys from here on, so every sort below
    # is a plain unsigned sort and NaN payloads survive bit for bit.
    values_enc = sortable_keys(batch.ravel())

    def sort_by_key(keys, vals):
        keys, vals, report = run_radix_sort_on_device(
            device, keys, vals, digit_bits=digit_bits
        )
        for launch in report.launches:
            pipeline.add(launch)
        return keys, vals

    # Step III (redundant): stable sort by tags, values ride along.
    if include_redundant_presort:
        tags, values_enc = sort_by_key(tags, values_enc)
    # Step IV: stable sort by values, tags ride along.
    values_enc, tags = sort_by_key(values_enc, tags)
    # Step V: stable sort by tags restores arrays, values stay ordered.
    tags, values_enc = sort_by_key(tags, values_enc)

    out = keys_to_values(values_enc, np.float32).reshape(N, n)
    return out, pipeline
