"""Tests for repro.core.radix: sortable-key bijections and the batched
radix row sort (direct and LSD strategies), including the engine's
byte-level agreement with ``np.sort`` and the fused pipeline.

The bijection grids deliberately cover every IEEE-754 corner the
order-preserving transform has to get right: both zeros, both
infinities, subnormals, NaNs with distinct payloads, and the extreme
finite values of each dtype.
"""

import numpy as np
import pytest

from repro.core import (
    GpuArraySort,
    RADIX_STRATEGIES,
    RadixInfo,
    keys_to_values,
    radix_sort_rows,
    sortable_keys,
)
from repro.core.radix import supports_dtype
from repro.core.workspace import ScratchArena

FLOAT_DTYPES = [np.float16, np.float32, np.float64]
INT_DTYPES = [np.int8, np.int16, np.int32, np.int64]
UINT_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64]
ALL_DTYPES = FLOAT_DTYPES + INT_DTYPES + UINT_DTYPES + [np.bool_]


def special_floats(dtype):
    """Every IEEE-754 corner for ``dtype``, incl. two NaN payloads."""
    info = np.finfo(dtype)
    base = np.array(
        [
            0.0, -0.0, np.inf, -np.inf, np.nan,
            info.max, info.min, info.tiny, -info.tiny,
            info.smallest_subnormal, -info.smallest_subnormal,
            1.0, -1.0, info.eps,
        ],
        dtype=dtype,
    )
    # A second NaN payload: set the lowest mantissa bit of the quiet NaN.
    utype = np.dtype(f"u{np.dtype(dtype).itemsize}")
    payload = base[4:5].view(utype) | np.asarray(1, utype)
    return np.concatenate([base, payload.view(dtype)])


def int_extremes(dtype):
    info = np.iinfo(dtype)
    if np.dtype(dtype).kind == "i":
        vals = [info.min, -1, 0, 1, info.max]
    else:
        vals = [0, 1, info.max // 2, info.max - 1, info.max]
    return np.array(vals, dtype=dtype)


class TestSupportsDtype:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_supported(self, dtype):
        assert supports_dtype(dtype)

    @pytest.mark.parametrize(
        "dtype", ["datetime64[ns]", "complex64", "U4", object]
    )
    def test_unsupported(self, dtype):
        assert not supports_dtype(np.dtype(dtype))


class TestBijection:
    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_float_round_trip_is_byte_exact(self, dtype):
        values = special_floats(dtype)
        back = keys_to_values(sortable_keys(values), dtype)
        # tobytes comparison: NaN payloads and -0.0 must survive exactly.
        assert back.tobytes() == values.tobytes()

    @pytest.mark.parametrize("dtype", INT_DTYPES + UINT_DTYPES)
    def test_int_round_trip_is_byte_exact(self, dtype):
        values = int_extremes(dtype)
        back = keys_to_values(sortable_keys(values), dtype)
        assert back.tobytes() == values.tobytes()

    def test_bool_round_trip(self):
        values = np.array([True, False, True, False])
        back = keys_to_values(sortable_keys(values), np.bool_)
        assert back.tobytes() == values.tobytes()

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_float_key_order_matches_value_order(self, dtype):
        # Drop NaNs: they have no defined comparison order.
        values = special_floats(dtype)
        values = values[~np.isnan(values)]
        keys = sortable_keys(values)
        order_v = np.argsort(values, kind="stable")
        assert np.array_equal(values[np.argsort(keys, kind="stable")],
                              values[order_v])
        # Strictly ordered values give strictly ordered keys.
        distinct = np.unique(values)
        assert np.all(np.diff(sortable_keys(distinct).astype(object)) > 0)

    @pytest.mark.parametrize("dtype", INT_DTYPES + UINT_DTYPES)
    def test_int_key_order_matches_value_order(self, dtype):
        values = int_extremes(dtype)
        keys = sortable_keys(values)
        assert np.all(np.diff(keys[np.argsort(values)].astype(object)) > 0)

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_negative_zero_key_below_positive_zero(self, dtype):
        keys = sortable_keys(np.array([-0.0, 0.0], dtype=dtype))
        assert keys[0] < keys[1]  # total order refines IEEE equality

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_nan_keys_exceed_every_finite_and_inf_key(self, dtype):
        values = special_floats(dtype)
        keys = sortable_keys(values)
        nan_keys = keys[np.isnan(values)]
        other = keys[~np.isnan(values)]
        assert np.all(nan_keys.min() > other.max())

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(TypeError):
            sortable_keys(np.array(["a"], dtype="U1"))
        with pytest.raises(TypeError):
            keys_to_values(np.zeros(3, np.uint64), np.complex128)


class TestRadixSortRows:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("strategy", ["direct", "lsd"])
    def test_matches_numpy_sort_on_random_batches(self, rng, dtype, strategy):
        dtype = np.dtype(dtype)
        if dtype.kind == "f":
            batch = rng.standard_normal((17, 33)).astype(dtype) * 100
        elif dtype == np.bool_:
            batch = rng.integers(0, 2, (17, 33)).astype(dtype)
        else:
            info = np.iinfo(dtype)
            batch = rng.integers(
                info.min, info.max, (17, 33), dtype=dtype, endpoint=True
            )
        expected = np.sort(batch, axis=1)
        work = batch.copy()
        info = radix_sort_rows(work, strategy=strategy)
        assert work.tobytes() == expected.tobytes()
        assert info.strategy == strategy
        if strategy == "lsd":
            assert info.passes == -(-dtype.itemsize * 8 // 8)
            assert info.digit_bits == 8

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    @pytest.mark.parametrize("strategy", ["direct", "lsd"])
    def test_specials_sort_to_total_order(self, dtype, strategy):
        # One row of every special value; avoid mixing -0.0/0.0 with
        # np.sort byte-comparison (np.sort is unstable across equal
        # keys), and assert the documented total order directly.
        row = special_floats(dtype)[None, :].copy()
        radix_sort_rows(row, strategy=strategy)
        out = row[0]
        nan_count = int(np.isnan(special_floats(dtype)).sum())
        assert np.all(np.isnan(out[-nan_count:]))  # NaNs at the end
        finite_and_inf = out[:-nan_count]
        assert np.all(np.diff(finite_and_inf) >= 0)  # sorted
        assert finite_and_inf[0] == -np.inf
        assert finite_and_inf[-1] == np.inf

    @pytest.mark.parametrize("strategy", ["direct", "lsd"])
    def test_nan_payload_handling_matches_numpy(self, rng, strategy):
        # np.sort canonicalizes every NaN payload to the quiet NaN; the
        # radix engine does the same, so batches with exotic payloads
        # still agree byte-for-byte.
        batch = rng.standard_normal((8, 64)).astype(np.float32)
        payload = np.uint32(0x7F800001 + 7)  # signalling-range payload
        batch[rng.integers(0, 8, 20), rng.integers(0, 64, 20)] = (
            payload.view(np.float32)
        )
        expected = np.sort(batch, axis=1)
        work = batch.copy()
        radix_sort_rows(work, strategy=strategy)
        assert work.tobytes() == expected.tobytes()

    def test_nan_policy_raise_rejects_nan(self, rng):
        batch = rng.standard_normal((4, 16)).astype(np.float32)
        batch[2, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            radix_sort_rows(batch, nan_policy="raise")
        clean = rng.standard_normal((4, 16)).astype(np.float32)
        radix_sort_rows(clean, nan_policy="raise")  # NaN-free: accepted
        assert np.all(np.diff(clean, axis=1) >= 0)

    @pytest.mark.parametrize("digit_bits", [1, 4, 8, 11, 16])
    def test_lsd_digit_bits_variants_agree(self, rng, digit_bits):
        batch = rng.integers(-(2**31), 2**31 - 1, (9, 40), dtype=np.int32)
        expected = np.sort(batch, axis=1)
        work = batch.copy()
        info = radix_sort_rows(work, strategy="lsd", digit_bits=digit_bits)
        assert work.tobytes() == expected.tobytes()
        assert info.passes == -(-32 // digit_bits)

    def test_validation_errors(self, rng):
        batch = rng.standard_normal((4, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="strategy"):
            radix_sort_rows(batch.copy(), strategy="msd")
        with pytest.raises(ValueError, match="nan_policy"):
            radix_sort_rows(batch.copy(), nan_policy="drop")
        with pytest.raises(ValueError, match="digit_bits"):
            radix_sort_rows(batch.copy(), strategy="lsd", digit_bits=0)
        with pytest.raises(ValueError, match="digit_bits"):
            radix_sort_rows(batch.copy(), strategy="lsd", digit_bits=17)
        with pytest.raises(ValueError, match="shape"):
            radix_sort_rows(np.zeros(8, np.float32))
        with pytest.raises(TypeError):
            radix_sort_rows(np.zeros((2, 2), np.complex64))
        assert RADIX_STRATEGIES == ("auto", "direct", "lsd")

    def test_longdouble_is_direct_only(self):
        # No fixed-width key bijection: the LSD passes reject it, while
        # the direct strategy sorts it in value space like np.sort.
        batch = np.array([[2.0, np.nan, -0.0, -np.inf, 1.0]], np.longdouble)
        with pytest.raises(TypeError):
            radix_sort_rows(batch.copy(), strategy="lsd")
        work = batch.copy()
        assert radix_sort_rows(work).strategy == "direct"
        assert work.tobytes() == np.sort(batch, axis=1).tobytes()

    def test_degenerate_shapes(self):
        for shape in [(0, 8), (4, 0), (4, 1)]:
            work = np.ones(shape, np.float32)
            info = radix_sort_rows(work, strategy="lsd")
            assert isinstance(info, RadixInfo)
            assert info.passes == 0  # nothing to do

    def test_auto_resolves_to_direct(self, rng):
        work = rng.standard_normal((4, 16)).astype(np.float32)
        info = radix_sort_rows(work, strategy="auto")
        assert info.strategy == "direct"

    def test_arena_reuse_allocates_once(self, rng):
        arena = ScratchArena()
        for _ in range(5):
            work = rng.integers(0, 1000, (16, 64), dtype=np.int64)
            expected = np.sort(work, axis=1)
            radix_sort_rows(work, strategy="lsd", workspace=arena)
            assert work.tobytes() == expected.tobytes()
        stats = arena.stats
        assert stats.allocations > 0
        assert stats.hits >= stats.allocations * 3  # steady state reuses


class TestEngineCrossPin:
    """The radix engine, driven end-to-end through GpuArraySort, must be
    byte-identical to the fused serial engine on every supported dtype,
    with and without NaNs."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32,
                                       np.int64, np.uint16])
    def test_radix_engine_matches_fused(self, rng, dtype):
        dtype = np.dtype(dtype)
        if dtype.kind == "f":
            batch = rng.standard_normal((50, 70)).astype(dtype)
        else:
            info = np.iinfo(dtype)
            batch = rng.integers(info.min, info.max, (50, 70), dtype=dtype)
        fused = GpuArraySort(planner="fused").sort(batch).batch
        radix = GpuArraySort(planner="radix").sort(batch).batch
        assert radix.tobytes() == fused.tobytes()

    def test_radix_engine_matches_fused_with_nans(self, rng):
        from repro.core import SortConfig

        config = SortConfig(nan_policy="sort_to_end")
        batch = rng.standard_normal((30, 40)).astype(np.float32)
        batch[rng.integers(0, 30, 25), rng.integers(0, 40, 25)] = np.nan
        fused = GpuArraySort(planner="fused", config=config).sort(batch).batch
        result = GpuArraySort(planner="radix", config=config).sort(batch)
        assert result.batch.tobytes() == fused.tobytes()
        assert "radix_rowsort" in result.phase_seconds

    def test_radix_engine_nan_policy_raise(self, rng):
        batch = rng.standard_normal((5, 12)).astype(np.float32)
        batch[1, 2] = np.nan
        from repro.core import SortConfig

        sorter = GpuArraySort(
            planner="radix", config=SortConfig(nan_policy="raise")
        )
        with pytest.raises(ValueError):
            sorter.sort(batch)


class TestRadixPlanNanContract:
    """A radix plan sorts NaN-carrying batches whole (no per-row split):
    ``sort_to_end`` must still be byte-identical to ``np.sort``, and
    ``raise`` must reject before touching an in-place caller's batch."""

    @staticmethod
    def _poisoned(rng, dtype, rows=24, cols=40):
        dtype = np.dtype(dtype)
        batch = rng.standard_normal((rows, cols)).astype(dtype)
        specials = special_floats(dtype)  # +-0.0, +-inf, two NaN payloads
        picked = rng.choice(rows, rows // 2, replace=False)
        for row in picked:
            batch[row, rng.choice(cols, specials.size, replace=False)] = specials
        return batch

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_raise_inplace_leaves_batch_untouched(self, rng, dtype):
        from repro.core import SortConfig

        batch = self._poisoned(rng, dtype)
        before = batch.tobytes()
        sorter = GpuArraySort(
            SortConfig(nan_policy="raise"), planner="radix"
        )
        with pytest.raises(ValueError, match="NaN"):
            sorter.sort(batch, inplace=True)
        assert batch.tobytes() == before

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_sort_to_end_matches_numpy(self, rng, dtype, descending):
        from repro.core import SortConfig

        batch = self._poisoned(rng, dtype)
        expected = np.sort(batch, axis=1)
        if descending:
            expected = expected[:, ::-1]
        sorter = GpuArraySort(
            SortConfig(nan_policy="sort_to_end"), planner="radix"
        )
        result = sorter.sort(batch, descending=descending)
        assert result.execution_plan.engine == "radix"
        assert result.batch.tobytes() == np.ascontiguousarray(expected).tobytes()
