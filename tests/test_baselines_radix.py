"""Unit tests for the LSD radix sort substrate and its key bijection.

The bijection grids deliberately cover every IEEE-754 corner the
order-preserving transform has to get right: both zeros, both
infinities, subnormals, NaNs with distinct payloads, and the extreme
finite values of each dtype.
"""

import numpy as np
import pytest

from repro.baselines.radix import (
    RadixStats,
    keys_to_values,
    radix_sort,
    radix_sort_by_key,
    sortable_keys,
    supports_dtype,
)

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


def random_values(rng, dtype, size):
    """NaN-free random values spanning ``dtype``'s range."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return (rng.standard_normal(size) * 100).astype(dtype)
    if dtype == np.bool_:
        return rng.integers(0, 2, size).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size, dtype=dtype, endpoint=True)


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

    def test_float32_order_preserved_on_mixed_signs(self, rng):
        vals = rng.normal(0, 1e6, 1000).astype(np.float32)
        keys = sortable_keys(vals)
        assert keys.dtype == np.uint32
        order_vals = np.argsort(vals, kind="stable")
        order_keys = np.argsort(keys, kind="stable")
        assert np.array_equal(vals[order_vals], vals[order_keys])

    def test_int32_key_is_the_biased_value(self, rng):
        # XOR-ing the sign bit is the +2**31 bias Thrust applies.
        vals = rng.integers(-2**31, 2**31 - 1, 1000, dtype=np.int32)
        expected = (vals.astype(np.int64) + 2**31).astype(np.uint32)
        assert np.array_equal(sortable_keys(vals), expected)

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


class TestRadixSort:
    def test_sorts_uint32(self, rng):
        data = rng.integers(0, 2**32, 5000, dtype=np.uint32)
        assert np.array_equal(radix_sort(data), np.sort(data))

    def test_sorts_float32(self, rng):
        data = rng.normal(0, 1e9, 5000).astype(np.float32)
        assert np.array_equal(radix_sort(data), np.sort(data))

    def test_sorts_int32_negative(self, rng):
        data = rng.integers(-2**31, 2**31 - 1, 5000, dtype=np.int32)
        assert np.array_equal(radix_sort(data), np.sort(data))

    def test_empty(self):
        out = radix_sort(np.empty(0, dtype=np.uint32))
        assert out.size == 0

    def test_single_element(self):
        assert radix_sort(np.array([42], dtype=np.uint32)).tolist() == [42]

    def test_all_equal(self):
        data = np.full(100, 7, dtype=np.uint32)
        assert np.array_equal(radix_sort(data), data)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_matches_numpy_sort_on_every_supported_dtype(self, rng, dtype):
        data = random_values(rng, dtype, 600)
        assert radix_sort(data).tobytes() == np.sort(data).tobytes()

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_specials_without_nan_sort_to_total_order(self, dtype):
        values = special_floats(dtype)
        values = values[~np.isnan(values)]
        out = radix_sort(values)
        assert np.array_equal(out, np.sort(values))
        zeros = out[out == 0]
        assert np.signbit(zeros).tolist() == [True, False]  # -0.0 first

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(TypeError):
            radix_sort(np.zeros(4, dtype=np.longdouble))

    @pytest.mark.parametrize("dtype", [np.uint32, np.int32])
    def test_digit_bits_variants_agree(self, rng, dtype):
        data = random_values(rng, dtype, 1000)
        for bits in (1, 4, 8, 11, 16):
            stats = RadixStats()
            out = radix_sort(data, digit_bits=bits, stats=stats)
            assert out.tobytes() == np.sort(data).tobytes(), bits
            assert stats.passes == -(-32 // bits)

    def test_rejects_bad_digit_bits(self):
        with pytest.raises(ValueError):
            radix_sort(np.zeros(4, dtype=np.uint32), digit_bits=0)
        with pytest.raises(ValueError):
            radix_sort(np.zeros(4, dtype=np.uint32), digit_bits=17)

    def test_input_not_mutated(self, rng):
        data = rng.integers(0, 100, 100, dtype=np.uint32)
        snapshot = data.copy()
        radix_sort(data)
        assert np.array_equal(data, snapshot)


class TestRadixSortByKey:
    def test_payload_follows_keys(self, rng):
        keys = rng.integers(0, 1000, 500, dtype=np.uint32)
        vals = np.arange(500, dtype=np.int32)
        sk, sv = radix_sort_by_key(keys, vals)
        assert np.array_equal(sk, np.sort(keys))
        assert np.array_equal(keys[sv], sk)

    def test_stability(self):
        # Equal keys keep payload order: the property STA's restore pass
        # depends on (Section 7.1.1).
        keys = np.array([1, 0, 1, 0, 1], dtype=np.uint32)
        vals = np.array([10, 20, 11, 21, 12], dtype=np.int32)
        sk, sv = radix_sort_by_key(keys, vals)
        assert sv.tolist() == [20, 21, 10, 11, 12]

    def test_float_keys_with_tag_payload(self, rng):
        keys = rng.normal(0, 1e6, 1000).astype(np.float32)
        tags = rng.integers(0, 50, 1000).astype(np.int32)
        sk, sv = radix_sort_by_key(keys, tags)
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(sk, keys[order])
        assert np.array_equal(sv, tags[order])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            radix_sort_by_key(
                np.zeros(3, dtype=np.uint32), np.zeros(4, dtype=np.int32)
            )

    def test_stats_accounting(self, rng):
        keys = rng.integers(0, 2**32, 1000, dtype=np.uint32)
        vals = np.zeros(1000, dtype=np.int32)
        stats = RadixStats()
        radix_sort_by_key(keys, vals, stats=stats)
        assert stats.passes == 4  # 32-bit keys / 8-bit digits
        assert stats.elements == 1000
        assert stats.element_moves == 4 * 4 * 1000  # (key+val) x (r+w) x passes
        assert stats.scratch_bytes == keys.nbytes + vals.nbytes

    def test_stats_accumulate_across_calls(self, rng):
        keys = rng.integers(0, 100, 100, dtype=np.uint32)
        stats = RadixStats()
        radix_sort_by_key(keys, None, stats=stats)
        radix_sort_by_key(keys, None, stats=stats)
        assert stats.passes == 8
