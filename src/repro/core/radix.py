"""Non-comparison row-sort engine: batched LSD radix over sortable keys.

This module promotes the :mod:`repro.baselines.radix` machinery into the
hot path as the planner's ``"radix"`` engine.  Where the fused engine
(:mod:`repro.core.fused`) spends its time on phase-1 sampling and on
recovering bucket metadata with a batched binary search, the radix
engine sorts rows *flat*: no splitters, no bucket offsets, no metadata
— just the rows, totally ordered.  On large rows (n >= ~2000) that is
where the fused engine's time actually goes, so dropping it is the win
the bench-hotpath radix gate pins.

Two ingredients, shared by every strategy:

* **Sortable keys** — :func:`sortable_keys` bit-twiddles any supported
  dtype into an unsigned integer space whose unsigned order equals the
  value order (the CUB/Thrust mapping: flip all bits of negative
  floats, flip only the sign bit of the rest; XOR the sign bit of
  signed ints).  :func:`keys_to_values` is the exact inverse; the pair
  is property-tested as a bijection over +-0.0, +-inf, NaN payloads and
  subnormals in ``tests/test_core_radix.py``.
* **NaN key mapping** — ``nan_policy="sort_to_end"`` is honored *in key
  space*, not by splitting the batch or post-processing: every NaN
  (any payload, either sign) maps to the canonical quiet-NaN key, which
  sits above the key of ``+inf``, so NaNs land at the end of their row
  as a side effect of the sort itself.  Decoding yields the canonical
  quiet NaN — exactly the bit pattern ``np.sort`` produces.

Strategies (``radix_sort_rows(strategy=...)``):

``"lsd"``
    The GPU-faithful formulation: ``ceil(key_bits / digit_bits)``
    digit passes, each one NumPy histogram + exclusive scan + stable
    scatter over *all* rows at once.  Rows are kept independent with
    the segment-id trick from :mod:`repro.core.fused`: the histogram
    bins are ``row_index * radix + digit``, so one flat ``bincount`` /
    ``cumsum`` / scatter handles the whole batch per pass.  The double
    buffer comes from the :class:`~repro.core.workspace.ScratchArena`
    when one is passed, so steady state allocates nothing new.
``"direct"``
    The production shortcut on this host: sort each row with NumPy's
    compiled kernel in value space.  The key bijection guarantees this
    is order-equivalent to the LSD passes (the suite cross-pins them
    byte for byte); NumPy >= 2 dispatches 32/64-bit rows to SIMD
    kernels at a few ns/element, which interpreted digit passes cannot
    approach — each pass materializes several full-batch temporaries.
    Needing no keys, it also takes ``longdouble``, which has no
    fixed-width key bijection and so no LSD form.
``"auto"``
    Picks ``"direct"``.  The crossover (``passes * N*n`` linear traffic
    vs ``N*n*log n`` comparisons) never favors interpreted passes on a
    NumPy host; a compiled or device backend would flip it.

Either strategy is byte-identical to ``np.sort(axis=1)`` on every dtype
it accepts, including NaN placement under ``sort_to_end``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

__all__ = [
    "RADIX_STRATEGIES",
    "RadixInfo",
    "supports_dtype",
    "sortable_keys",
    "keys_to_values",
    "radix_sort_rows",
]

#: Accepted values for ``radix_sort_rows(strategy=...)``.
RADIX_STRATEGIES = ("auto", "direct", "lsd")

#: Unsigned key container per item size.
_UINT_BY_SIZE = {
    1: np.dtype(np.uint8),
    2: np.dtype(np.uint16),
    4: np.dtype(np.uint32),
    8: np.dtype(np.uint64),
}

#: Canonical quiet-NaN bit patterns per float item size — the single
#: payload ``np.sort`` emits for any input NaN, and therefore the one
#: every NaN maps to in key space under ``sort_to_end``.
_CANONICAL_NAN_BITS = {2: 0x7E00, 4: 0x7FC00000, 8: 0x7FF8000000000000}


def supports_dtype(dtype) -> bool:
    """True when the key bijection (and so the LSD strategy) covers ``dtype``.

    Covers bool, signed/unsigned integers, and IEEE floats up to 8
    bytes — every numeric dtype ``validate_batch`` admits except
    ``longdouble``, which only the ``direct`` strategy sorts.
    """
    try:
        dtype = np.dtype(dtype)
    except TypeError:
        return False
    return dtype.kind in "biuf" and dtype.itemsize in _UINT_BY_SIZE


def _require_supported(dtype) -> np.dtype:
    dtype = np.dtype(dtype)
    if not supports_dtype(dtype):
        raise TypeError(
            f"radix engine does not support dtype {dtype!r}; supported kinds "
            "are bool, int, uint, and float with itemsize <= 8"
        )
    return dtype


def sortable_keys(values: np.ndarray) -> np.ndarray:
    """Map ``values`` to unsigned keys whose unsigned order == value order.

    Generalizes :func:`repro.baselines.radix.float32_to_sortable_uint32`
    across the numeric dtypes:

    * floats — flip all bits of negatives (reversing their descending
      bit order), set the sign bit of non-negatives (placing them above
      every negative);
    * signed ints — XOR the sign bit (a bias by ``2**(bits-1)``);
    * unsigned ints / bool — already in key order; widened/copied.

    The mapping is a bijection; :func:`keys_to_values` inverts it.  NaN
    payloads are *preserved* here — the ``sort_to_end`` canonical-NaN
    mapping is a separate, deliberate step in :func:`radix_sort_rows`.
    """
    values = np.ascontiguousarray(values)
    dtype = _require_supported(values.dtype)
    utype = _UINT_BY_SIZE[dtype.itemsize]
    if dtype.kind == "b":
        return values.astype(np.uint8)
    if dtype.kind == "u":
        return values.copy()
    bits = values.view(utype)
    top = utype.type(1 << (8 * dtype.itemsize - 1))
    if dtype.kind == "i":
        return bits ^ top
    all_ones = utype.type(~utype.type(0))
    sign = (bits >> utype.type(8 * dtype.itemsize - 1)).astype(bool)
    return bits ^ np.where(sign, all_ones, top)


def keys_to_values(keys: np.ndarray, dtype) -> np.ndarray:
    """Inverse of :func:`sortable_keys`: unsigned keys back to ``dtype``."""
    dtype = _require_supported(dtype)
    utype = _UINT_BY_SIZE[dtype.itemsize]
    keys = np.ascontiguousarray(keys, dtype=utype)
    if dtype.kind == "b":
        return keys.astype(np.bool_)
    if dtype.kind == "u":
        return keys.astype(dtype, copy=True)
    top = utype.type(1 << (8 * dtype.itemsize - 1))
    if dtype.kind == "i":
        return (keys ^ top).view(dtype)
    # Keys with the top bit set were non-negative floats (sign bit was
    # flipped on); the rest were negatives (all bits were flipped).
    all_ones = utype.type(~utype.type(0))
    sign = (keys >> utype.type(8 * dtype.itemsize - 1)).astype(bool)
    return (keys ^ np.where(sign, top, all_ones)).view(dtype)


@dataclasses.dataclass(frozen=True)
class RadixInfo:
    """What one :func:`radix_sort_rows` call actually did."""

    #: ``"direct"`` or ``"lsd"`` (``"auto"`` resolves before recording).
    strategy: str
    #: Digit passes executed (0 for the direct strategy).
    passes: int = 0
    #: Digit width of the LSD passes (0 for the direct strategy).
    digit_bits: int = 0


def radix_sort_rows(
    work: np.ndarray,
    *,
    nan_policy: str = "sort_to_end",
    strategy: str = "auto",
    digit_bits: int = 8,
    workspace=None,
) -> RadixInfo:
    """Sort every row of ``work`` in place; returns a :class:`RadixInfo`.

    ``work`` must be a writeable, C-contiguous ``(N, n)`` numeric batch;
    the ``lsd`` strategy also needs a :func:`supports_dtype` dtype.
    NaNs follow ``nan_policy``:
    ``"sort_to_end"`` (default, matching ``np.sort``) places them after
    every finite value and ``+inf`` via the canonical-NaN key mapping;
    ``"raise"`` probes for NaN and rejects the batch.  Callers that
    have already validated NaN-freeness (the sorter boundary) pass
    ``sort_to_end`` and pay no probe.

    ``workspace`` (a :class:`~repro.core.workspace.ScratchArena`) backs
    the LSD strategy's key/double buffers so repeated same-shape calls
    allocate nothing; the direct strategy is allocation-free by itself.
    """
    work = np.asarray(work)
    if work.ndim != 2:
        raise ValueError(f"expected (N, n) batch, got shape {work.shape}")
    if strategy not in RADIX_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {RADIX_STRATEGIES}"
        )
    if strategy == "lsd":
        _require_supported(work.dtype)
    elif work.dtype.kind not in "biuf":
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
    if strategy == "auto":
        # Interpreted digit passes lose to the compiled row sort by an
        # order of magnitude at every realistic shape (see module
        # docstring); 'auto' exists so a compiled backend can flip this
        # without touching call sites.
        strategy = "direct"
    if work.shape[0] == 0 or work.shape[1] <= 1:
        return RadixInfo(strategy=strategy)
    if strategy == "direct":
        work.sort(axis=1)
        return RadixInfo(strategy="direct")
    passes = int(_lsd_sort_rows(work, digit_bits=digit_bits,
                                workspace=workspace))
    return RadixInfo(strategy="lsd", passes=passes, digit_bits=digit_bits)


def _lsd_sort_rows(
    work: np.ndarray,
    *,
    digit_bits: int,
    workspace=None,
) -> int:
    """Batched LSD digit passes: histogram + exclusive scan + stable scatter.

    Every pass runs over all rows at once.  Row independence comes from
    fusing the row index into the histogram bin (``row * radix +
    digit`` — the segment-id device from :mod:`repro.core.fused`), so
    the per-pass ``bincount``/``cumsum``/scatter is one flat operation
    regardless of N.  Memory: the histogram holds ``N * 2**digit_bits``
    bins, which is why the default digit is a byte.

    Returns the number of digit passes executed.  Every arena view taken
    here stays local — nothing arena-backed escapes this function.
    """
    if not 1 <= digit_bits <= 16:
        raise ValueError(f"digit_bits must be in [1, 16], got {digit_bits}")
    n_rows, row_len = work.shape
    utype = _UINT_BY_SIZE[work.dtype.itemsize]
    key_bits = 8 * utype.itemsize
    num_passes = -(-key_bits // digit_bits)
    radix = 1 << digit_bits

    if workspace is not None:
        keys = workspace.get("radix.keys", work.shape, utype)
        spare = workspace.get("radix.buf", work.shape, utype)
    else:
        keys = np.empty(work.shape, utype)
        spare = np.empty(work.shape, utype)
    keys[...] = sortable_keys(work)
    if work.dtype.kind == "f":
        if workspace is not None:
            nan_mask = workspace.get("radix.nanmask", work.shape, np.bool_)
        else:
            nan_mask = np.empty(work.shape, np.bool_)
        np.isnan(work, out=nan_mask)
        if nan_mask.any():
            # sort_to_end in key space: every NaN payload becomes the
            # canonical quiet NaN, whose key exceeds the key of +inf.
            canonical = sortable_keys(
                np.array([_CANONICAL_NAN_BITS[work.dtype.itemsize]], utype)
                .view(work.dtype)
            )[0]
            np.copyto(keys, canonical, where=nan_mask)

    src = keys.reshape(-1)
    dst = spare.reshape(-1)
    total = src.size
    # Fused (row, digit) histogram bins: digits of row r live in
    # [r * radix, (r + 1) * radix), so one flat bincount + exclusive
    # scan yields per-row digit starts that are already global flat
    # positions (rows are laid out consecutively).
    seg_base = (np.arange(n_rows, dtype=np.int64) * radix).repeat(row_len)
    flat_rank = np.arange(total, dtype=np.int64)
    digit_mask = utype.type(radix - 1)
    for pass_idx in range(num_passes):
        shift = utype.type(pass_idx * digit_bits)
        bins = seg_base + ((src >> shift) & digit_mask).astype(np.int64)
        counts = np.bincount(bins, minlength=n_rows * radix)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        # Stable scatter: element i goes to starts[bin_i] + (its stable
        # rank within bin_i).  The rank term is expressed through the
        # stable order exactly as the count/scan/scatter kernels would
        # compute it per tile.
        order = np.argsort(bins, kind="stable")
        positions = np.empty(total, dtype=np.int64)
        positions[order] = starts[bins[order]] + (
            flat_rank - np.repeat(starts, counts)
        )
        dst[positions] = src
        src, dst = dst, src
    work[...] = keys_to_values(src.reshape(work.shape), work.dtype)
    return num_passes
