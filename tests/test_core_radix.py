"""Tests for repro.core.radix: the planner's in-place row-sort engine,
including its byte-level agreement with ``np.sort`` and with the fused
pipeline.  The key bijection and the LSD radix sort live in
``repro.baselines.radix`` and are tested in ``test_baselines_radix.py``.
"""

import numpy as np
import pytest

from repro.core import GpuArraySort, radix_sort_rows

from .test_baselines_radix import (
    ALL_DTYPES,
    FLOAT_DTYPES,
    random_values,
    special_floats,
)


class TestRadixSortRows:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_matches_numpy_sort_on_random_batches(self, rng, dtype):
        batch = random_values(rng, dtype, (17, 33))
        expected = np.sort(batch, axis=1)
        work = batch.copy()
        assert radix_sort_rows(work) is None  # sorts in place
        assert work.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_specials_sort_to_total_order(self, dtype):
        # One row of every special value; avoid mixing -0.0/0.0 with
        # np.sort byte-comparison (np.sort is unstable across equal
        # keys), and assert the documented order directly.
        row = special_floats(dtype)[None, :].copy()
        radix_sort_rows(row)
        out = row[0]
        nan_count = int(np.isnan(special_floats(dtype)).sum())
        assert np.all(np.isnan(out[-nan_count:]))  # NaNs at the end
        finite_and_inf = out[:-nan_count]
        assert np.all(np.diff(finite_and_inf) >= 0)  # sorted
        assert finite_and_inf[0] == -np.inf
        assert finite_and_inf[-1] == np.inf

    def test_nan_payload_handling_matches_numpy(self, rng):
        # Batches with exotic NaN payloads still agree with np.sort
        # byte for byte.
        batch = rng.standard_normal((8, 64)).astype(np.float32)
        payload = np.uint32(0x7F800001 + 7)  # signalling-range payload
        batch[rng.integers(0, 8, 20), rng.integers(0, 64, 20)] = (
            payload.view(np.float32)
        )
        expected = np.sort(batch, axis=1)
        work = batch.copy()
        radix_sort_rows(work)
        assert work.tobytes() == expected.tobytes()

    def test_nan_policy_raise_rejects_nan(self, rng):
        batch = rng.standard_normal((4, 16)).astype(np.float32)
        batch[2, 3] = np.nan
        before = batch.tobytes()
        with pytest.raises(ValueError, match="NaN"):
            radix_sort_rows(batch, nan_policy="raise")
        assert batch.tobytes() == before  # probe runs before any write
        clean = rng.standard_normal((4, 16)).astype(np.float32)
        radix_sort_rows(clean, nan_policy="raise")  # NaN-free: accepted
        assert np.all(np.diff(clean, axis=1) >= 0)

    def test_validation_errors(self, rng):
        batch = rng.standard_normal((4, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="nan_policy"):
            radix_sort_rows(batch.copy(), nan_policy="drop")
        with pytest.raises(ValueError, match="shape"):
            radix_sort_rows(np.zeros(8, np.float32))
        with pytest.raises(TypeError):
            radix_sort_rows(np.zeros((2, 2), np.complex64))

    def test_longdouble_sorts_like_numpy(self):
        # No fixed-width key bijection covers longdouble; the row sort
        # works in value space, so it takes it like np.sort does.
        batch = np.array([[2.0, np.nan, -0.0, -np.inf, 1.0]], np.longdouble)
        work = batch.copy()
        radix_sort_rows(work)
        assert work.tobytes() == np.sort(batch, axis=1).tobytes()

    def test_degenerate_shapes(self):
        for shape in [(0, 8), (4, 0), (4, 1)]:
            work = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
            before = work.tobytes()
            radix_sort_rows(work)
            assert work.tobytes() == before  # nothing to do


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
