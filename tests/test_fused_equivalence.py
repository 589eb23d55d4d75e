"""Fused vs unfused equivalence: the pin behind ``SortConfig.fuse_phases``.

The fused fast path (:mod:`repro.core.fused`) must be indistinguishable
from the paper-faithful three-phase pipeline: byte-identical sorted
batches, element-identical bucket ``sizes``/``offsets``, across dtypes,
duplicate-heavy rows, ragged +inf padding, and any shard decomposition.
"""

import numpy as np
import pytest

from repro.core import GpuArraySort, SortConfig, sort_arrays
from repro.core.fused import bucket_ids_rows, fused_bucket_sort, searchsorted_rows
from repro.core.bucketing import bucket_ids_for_row

DTYPES = [np.int32, np.int64, np.float32, np.float64]


def _batch(rng, dtype, num_arrays=60, array_size=257):
    if np.dtype(dtype).kind == "f":
        return rng.uniform(0.0, 1e6, (num_arrays, array_size)).astype(dtype)
    return rng.integers(0, 2**30, (num_arrays, array_size)).astype(dtype)


def _assert_equivalent(batch):
    fused = GpuArraySort(SortConfig(fuse_phases=True)).sort(batch)
    unfused = GpuArraySort(SortConfig(fuse_phases=False)).sort(batch)
    assert fused.batch.tobytes() == unfused.batch.tobytes()
    assert fused.buckets is not None and unfused.buckets is not None
    assert np.array_equal(fused.buckets.sizes, unfused.buckets.sizes)
    assert np.array_equal(fused.buckets.offsets, unfused.buckets.offsets)
    assert np.array_equal(fused.batch, np.sort(batch, axis=1))


class TestSearchsortedRows:
    def test_matches_numpy_per_row(self, rng):
        a = np.sort(rng.uniform(0, 100, (40, 33)), axis=1)
        v = rng.uniform(-10, 110, (40, 7))
        for side in ("left", "right"):
            got = searchsorted_rows(a, v, side=side)
            expected = np.stack(
                [np.searchsorted(a[i], v[i], side=side) for i in range(40)]
            )
            assert np.array_equal(got, expected)

    def test_ties_respect_side(self):
        a = np.array([[1.0, 2.0, 2.0, 2.0, 5.0]])
        v = np.array([[2.0]])
        assert searchsorted_rows(a, v, side="left")[0, 0] == 1
        assert searchsorted_rows(a, v, side="right")[0, 0] == 4

    def test_queries_outside_range(self):
        a = np.array([[10.0, 20.0, 30.0]])
        v = np.array([[-1.0, 100.0]])
        assert searchsorted_rows(a, v).tolist() == [[0, 3]]

    def test_empty_queries_and_rows(self):
        assert searchsorted_rows(
            np.empty((3, 0)), np.ones((3, 2))
        ).tolist() == [[0, 0]] * 3
        assert searchsorted_rows(
            np.ones((2, 4)), np.empty((2, 0))
        ).shape == (2, 0)

    def test_rejects_mismatched_rows_and_bad_side(self):
        with pytest.raises(ValueError):
            searchsorted_rows(np.ones((2, 3)), np.ones((3, 1)))
        with pytest.raises(ValueError):
            searchsorted_rows(np.ones((2, 3)), np.ones((2, 1)), side="up")

    def test_bucket_ids_rows_matches_scalar_rule(self, rng):
        batch = rng.uniform(0, 100, (20, 64)).astype(np.float32)
        splitters = np.sort(rng.uniform(0, 100, (20, 5)), axis=1).astype(
            np.float32
        )
        ids = bucket_ids_rows(batch, splitters)
        for i in range(20):
            expected = bucket_ids_for_row(batch[i], splitters[i])
            assert np.array_equal(ids[i], expected)


class TestFusedEquivalence:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_uniform_batches(self, rng, dtype):
        _assert_equivalent(_batch(rng, dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_duplicate_heavy_rows(self, rng, dtype):
        batch = rng.integers(0, 4, (50, 200)).astype(dtype)
        _assert_equivalent(batch)

    def test_ragged_inf_padding(self, rng):
        batch = rng.uniform(0, 1000, (30, 120)).astype(np.float32)
        lengths = rng.integers(1, 120, 30)
        for i, length in enumerate(lengths):
            batch[i, length:] = np.inf
        _assert_equivalent(batch)

    def test_constant_rows(self):
        _assert_equivalent(np.full((8, 64), 3.25, dtype=np.float64))

    def test_single_column_and_single_row(self, rng):
        _assert_equivalent(rng.uniform(0, 1, (40, 1)))
        _assert_equivalent(rng.uniform(0, 1, (1, 333)))

    def test_negative_and_mixed_sign(self, rng):
        _assert_equivalent(rng.uniform(-1e5, 1e5, (40, 180)).astype(np.float32))

    def test_fused_is_default(self):
        assert SortConfig().fuse_phases is True

    def test_sort_arrays_respects_flag(self, rng):
        batch = _batch(rng, np.float32)
        assert np.array_equal(
            sort_arrays(batch, config=SortConfig(fuse_phases=True)),
            sort_arrays(batch, config=SortConfig(fuse_phases=False)),
        )


class TestFusedBucketSort:
    def test_sorts_in_place_and_aliases_input(self, rng):
        work = rng.uniform(0, 100, (10, 50))
        splitters = np.sort(rng.uniform(0, 100, (10, 4)), axis=1)
        result = fused_bucket_sort(work, splitters, num_buckets=5)
        assert result.bucketed is work
        assert np.all(np.diff(work, axis=1) >= 0)
        assert result.offsets.dtype == np.int64
        assert np.array_equal(result.sizes.sum(axis=1), np.full(10, 50))

    def test_duplicate_splitters_give_empty_buckets(self):
        work = np.array([[5.0, 1.0, 9.0, 1.0]])
        splitters = np.array([[3.0, 3.0, 7.0]])
        result = fused_bucket_sort(work, splitters, num_buckets=4)
        # bucket 1 covers [3, 3) — empty by construction
        assert result.sizes[0].tolist() == [2, 0, 1, 1]

    def test_rejects_inconsistent_splitter_count(self):
        with pytest.raises(ValueError):
            fused_bucket_sort(np.ones((2, 4)), np.ones((2, 3)), num_buckets=2)
        with pytest.raises(ValueError):
            fused_bucket_sort(np.ones(4), np.ones((1, 1)), num_buckets=2)
