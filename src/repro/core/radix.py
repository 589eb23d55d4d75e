"""The planner's ``"radix"`` engine: a flat, in-place row sort.

Where the fused engine (:mod:`repro.core.fused`) spends its time on
phase-1 sampling and on recovering bucket metadata with a batched binary
search, this engine sorts rows *flat*: no splitters, no bucket offsets,
no metadata — just the rows, ordered by NumPy's compiled row sort.
NumPy >= 2 dispatches 32/64-bit rows to SIMD kernels at a few
ns/element, which interpreted LSD digit passes cannot approach (each
pass materializes several full-batch temporaries).  Being that sort,
the engine is byte-identical to ``np.sort(axis=1)`` by construction,
NaN placement under ``sort_to_end`` included.

The engine keeps the name ``"radix"`` for the planner and the
``radix_rowsort`` phase timer.  The LSD radix sort itself — the key
bijection and the digit passes — lives once, in
:mod:`repro.baselines.radix`, where it drives the STA baseline and the
device kernels.
"""

from __future__ import annotations

import numpy as np

__all__ = ["radix_sort_rows"]


def radix_sort_rows(work: np.ndarray, *, nan_policy: str = "sort_to_end") -> None:
    """Sort every row of ``work`` in place.

    ``work`` must be a writeable ``(N, n)`` batch of a numeric dtype
    (bool, int, uint, float — ``longdouble`` included).  NaNs follow
    ``nan_policy``: ``"sort_to_end"`` (default, matching ``np.sort``)
    places them after every finite value and ``+inf``; ``"raise"``
    probes for NaN with one ``min()`` reduction and rejects the batch
    before any write.  Callers that have already validated NaN-freeness
    (the sorter boundary) pass ``sort_to_end`` and pay no probe.
    """
    work = np.asarray(work)
    if work.ndim != 2:
        raise ValueError(f"expected (N, n) batch, got shape {work.shape}")
    if work.dtype.kind not in "biuf":
        raise TypeError(
            "row sort needs a numeric dtype (bool, int, uint, float), "
            f"got {work.dtype!r}"
        )
    if nan_policy not in ("raise", "sort_to_end"):
        raise ValueError(
            f"unknown nan_policy {nan_policy!r}; choose from "
            "('raise', 'sort_to_end')"
        )
    if work.dtype.kind == "f" and work.size and nan_policy == "raise":
        # min() propagates NaN, so one cheap reduction is the probe.
        if np.isnan(work.min()):
            raise ValueError(
                "batch contains NaN; no total order (use "
                "nan_policy='sort_to_end' to keep them)"
            )
    work.sort(axis=1)
