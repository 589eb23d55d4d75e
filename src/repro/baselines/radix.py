"""LSD radix sort — the core sorting engine behind simulated Thrust.

Thrust's ``stable_sort_by_key`` dispatches to a least-significant-digit
radix sort for primitive keys.  The STA baseline's cost and memory
behaviour both come from radix sort's structure:

* ``ceil(key_bits / digit_bits)`` passes over *all* N elements,
* each pass does a count, an exclusive scan, and a stable scatter,
* the scatter needs a second buffer of size N for keys **and** for the
  payload — the "almost O(N) more space" the paper cites [26] when it
  argues STA uses ~3x the memory of the data.

Keys of every fixed-width numeric dtype go through one order-preserving
bijection, :func:`sortable_keys` (inverted by :func:`keys_to_values`):
floats flip all bits of negatives and only the sign bit of
non-negatives, signed ints flip the sign bit.  This is exactly what
CUB/Thrust do, and it is the one key encoder the STA baseline, simulated
Thrust and the device kernels of :mod:`repro.baselines.radix_kernels`
share.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "supports_dtype",
    "sortable_keys",
    "keys_to_values",
    "radix_sort",
    "radix_sort_by_key",
    "RadixStats",
]


#: Unsigned key container per item size.
_UINT_BY_SIZE = {
    1: np.dtype(np.uint8),
    2: np.dtype(np.uint16),
    4: np.dtype(np.uint32),
    8: np.dtype(np.uint64),
}


def supports_dtype(dtype) -> bool:
    """True when the key bijection (and so the LSD sort) covers ``dtype``.

    Covers bool, signed/unsigned integers, and IEEE floats up to 8
    bytes — every numeric dtype ``validate_batch`` admits except
    ``longdouble``, which has no fixed-width key.
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
            f"radix sort does not support dtype {dtype!r}; supported kinds "
            "are bool, int, uint, and float with itemsize <= 8"
        )
    return dtype


def sortable_keys(values: np.ndarray) -> np.ndarray:
    """Map ``values`` to unsigned keys whose unsigned order == value order.

    * floats — flip all bits of negatives (reversing their descending
      bit order), set the sign bit of non-negatives (placing them above
      every negative);
    * signed ints — XOR the sign bit (a bias by ``2**(bits-1)``);
    * unsigned ints / bool — already in key order; widened/copied.

    The mapping is a bijection; :func:`keys_to_values` inverts it.  NaN
    payloads are preserved, so a NaN with the sign bit clear keys above
    ``+inf`` and one with it set keys below ``-inf``.

    >>> v = np.array([-1.5, -0.0, 0.0, 2.0], dtype=np.float32)
    >>> keys = sortable_keys(v)
    >>> bool(np.all(np.diff(keys.astype(np.int64)) > 0))
    True
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


@dataclasses.dataclass
class RadixStats:
    """Operation counts of one radix-sort run (drives the cost model)."""

    passes: int = 0
    elements: int = 0
    #: Bytes of auxiliary device memory the double-buffering needed.
    scratch_bytes: int = 0
    #: Total element reads+writes across all passes (keys and payload).
    element_moves: int = 0


def radix_sort_by_key(
    keys: np.ndarray,
    values: Optional[np.ndarray] = None,
    *,
    digit_bits: int = 8,
    stats: Optional[RadixStats] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Stable LSD radix sort of ``keys``, carrying ``values`` alongside.

    Returns ``(sorted_keys, permuted_values)``.  Each digit pass is
    implemented with bincount + exclusive scan + stable scatter, which is
    the classic GPU formulation (count / scan / scatter kernels); the
    NumPy expression of the scatter is an argsort-free cumulative
    placement.

    ``stats`` (optional) accumulates pass counts, element moves, and
    scratch bytes so the perf/memory models can charge STA honestly.
    """
    if not 1 <= digit_bits <= 16:
        raise ValueError("digit_bits must be in [1, 16]")
    keys = np.asarray(keys)
    enc = sortable_keys(keys)
    vals = None if values is None else np.asarray(values).copy()
    if vals is not None and vals.shape[0] != enc.shape[0]:
        raise ValueError(
            f"keys and values length mismatch: {enc.shape[0]} vs {vals.shape[0]}"
        )

    key_bits = enc.dtype.itemsize * 8
    num_passes = -(-key_bits // digit_bits)
    radix = 1 << digit_bits
    mask = radix - 1

    if stats is not None:
        stats.passes += num_passes
        stats.elements = enc.size
        payload_bytes = 0 if vals is None else vals.itemsize * vals.size
        stats.scratch_bytes = max(
            stats.scratch_bytes, enc.nbytes + payload_bytes
        )

    n = enc.size
    for pass_idx in range(num_passes):
        if n == 0:
            break
        shift = pass_idx * digit_bits
        digits = (enc >> enc.dtype.type(shift)).astype(np.int64) & mask
        # count + exclusive scan (the GPU histogram/scan kernels); the
        # stable scatter destination of element i is
        # starts[digit_i] + (stable rank of i within its digit), which is
        # exactly the inverse of a stable argsort of the digits.
        counts = np.bincount(digits, minlength=radix)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        order = np.argsort(digits, kind="stable")
        positions = np.empty(n, dtype=np.int64)
        positions[order] = starts[digits[order]] + (
            np.arange(n) - np.repeat(starts, counts)
        )
        out = np.empty_like(enc)
        out[positions] = enc
        enc = out
        if vals is not None:
            vout = np.empty_like(vals)
            vout[positions] = vals
            vals = vout
        if stats is not None:
            moves = 2 * n  # key read + key write
            if vals is not None:
                moves += 2 * n
            stats.element_moves += moves
    return keys_to_values(enc, keys.dtype), vals


def radix_sort(keys: np.ndarray, *, digit_bits: int = 8,
               stats: Optional[RadixStats] = None) -> np.ndarray:
    """Stable LSD radix sort of ``keys`` alone."""
    out, _ = radix_sort_by_key(keys, None, digit_bits=digit_bits, stats=stats)
    return out
