"""The row sort's buffer contract: one owned copy, no arena staging.

A ``radix`` plan (``planner="auto"`` or ``"radix"``) sorts a fresh copy
of the caller's batch when ``inplace=False`` and the batch itself when
``inplace=True``; below 32 MiB it never stages through the sorter's
:class:`~repro.core.workspace.ScratchArena`.  Its result is therefore
not scratch, the caller's batch is never written (not even when
``nan_policy="raise"`` rejects it), and a service's ``copy=False`` view
is never reused by a later dispatch.  Larger batches reuse the arena's
work buffer, as the fused path does.
"""

import numpy as np
import pytest

from repro.core import GpuArraySort, SortConfig
from repro.core import array_sort
from repro.service import SortService

FLOAT_DTYPES = (np.float16, np.float32, np.float64, np.longdouble)
ALL_DTYPES = FLOAT_DTYPES + (np.int8, np.int32, np.int64, np.uint16, np.bool_)
RAISE = SortConfig(nan_policy="raise")
TO_END = SortConfig(nan_policy="sort_to_end")


def _batch(rng, dtype, rows=37, cols=53):
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        return rng.integers(0, 2, (rows, cols)).astype(bool)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, (rows, cols), dtype=dtype,
                            endpoint=True)
    return (rng.standard_normal((rows, cols)) * 100).astype(dtype)


def _with_nan(batch, column):
    poisoned = batch.copy()
    poisoned[[3, 11], column] = np.nan
    return poisoned


@pytest.mark.parametrize("planner", ["auto", "radix"])
class TestOwnedCopy:
    def test_result_is_not_scratch(self, rng, planner):
        sorter = GpuArraySort(planner=planner)
        batch = _batch(rng, np.float32)
        result = sorter.sort(batch)
        assert result.execution_plan.engine == "radix"
        assert result.scratch is False
        assert result.batch.base is None  # a fresh array, not an arena view

    def test_arena_is_never_touched(self, rng, planner):
        sorter = GpuArraySort(TO_END, planner=planner)
        stats = sorter.workspace.stats
        before = (stats.hits, stats.allocations, stats.bytes_held)
        for dtype in ALL_DTYPES:
            for descending in (False, True):
                sorter.sort(_batch(rng, dtype), descending=descending)
        assert (stats.hits, stats.allocations, stats.bytes_held) == before

    def test_results_stay_valid_across_sorts(self, rng, planner):
        sorter = GpuArraySort(planner=planner)
        first_batch = _batch(rng, np.float64)
        first = sorter.sort(first_batch)
        sorter.sort(_batch(rng, np.float64))  # same shape and dtype
        assert first.batch.tobytes() == np.sort(first_batch, axis=1).tobytes()

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("descending", [False, True])
    def test_bytes_match_np_sort_and_caller_batch_unchanged(
        self, rng, planner, dtype, descending
    ):
        sorter = GpuArraySort(TO_END, planner=planner)
        batch = _batch(rng, dtype)
        if batch.dtype.kind == "f":
            batch = _with_nan(batch, 5)
        original = batch.tobytes()
        expected = np.sort(batch, axis=1)
        if descending:
            expected = expected[:, ::-1]
        result = sorter.sort(batch, descending=descending)
        assert result.batch.dtype == batch.dtype
        assert result.batch.tobytes() == np.ascontiguousarray(expected).tobytes()
        assert batch.tobytes() == original

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    @pytest.mark.parametrize("column", [0, 26, 52])
    def test_raise_leaves_caller_batch_unchanged(
        self, rng, planner, dtype, column
    ):
        sorter = GpuArraySort(RAISE, planner=planner)
        batch = _with_nan(_batch(rng, dtype), column)
        original = batch.tobytes()
        with pytest.raises(ValueError, match="contains NaN"):
            sorter.sort(batch)
        assert batch.tobytes() == original

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_raise_passes_clean_float_batches(self, rng, planner, dtype):
        batch = _batch(rng, dtype)
        result = GpuArraySort(RAISE, planner=planner).sort(batch)
        assert result.batch.tobytes() == np.sort(batch, axis=1).tobytes()

    @pytest.mark.parametrize("column", [0, 26, 52])
    def test_inplace_raise_probes_before_any_write(self, rng, planner, column):
        batch = _with_nan(_batch(rng, np.float32), column)
        original = batch.tobytes()
        with pytest.raises(ValueError, match="contains NaN"):
            GpuArraySort(RAISE, planner=planner).sort(batch, inplace=True)
        assert batch.tobytes() == original

    def test_inplace_sorts_the_callers_storage(self, rng, planner):
        sorter = GpuArraySort(planner=planner)
        batch = _batch(rng, np.int32)
        expected = np.sort(batch, axis=1)
        result = sorter.sort(batch, inplace=True)
        assert result.batch is batch
        assert result.scratch is False
        assert batch.tobytes() == expected.tobytes()

    def test_large_batches_stage_through_the_arena(
        self, rng, planner, monkeypatch
    ):
        # Past the fresh-copy ceiling each copy would fault its pages in
        # anew, so the work copy is the arena's reused buffer instead.
        batch = _batch(rng, np.float32)
        monkeypatch.setattr(array_sort, "_FRESH_COPY_MAX_BYTES", batch.nbytes)
        sorter = GpuArraySort(planner=planner)
        first = sorter.sort(batch)
        assert first.execution_plan.engine == "radix"
        assert first.scratch is True
        address = first.batch.__array_interface__["data"][0]
        second = sorter.sort(batch)
        assert second.scratch is True
        assert second.batch.__array_interface__["data"][0] == address
        assert second.batch.tobytes() == np.sort(batch, axis=1).tobytes()

    def test_verify_checks_the_owned_copy(self, rng, planner):
        sorter = GpuArraySort(TO_END, planner=planner, verify=True)
        batch = _with_nan(_batch(rng, np.float64), 9)
        result = sorter.sort(batch)
        assert result.batch.tobytes() == np.sort(batch, axis=1).tobytes()


@pytest.mark.service
@pytest.mark.timeout(60)
def test_service_copy_false_view_survives_next_dispatch(rng):
    """With ``planner="auto"`` the service backend's radix result is a
    fresh array per dispatch, so a ``copy=False`` view keeps its rows
    after the next dispatch.

    The documented contract stays "valid until the next dispatch", and
    the sanitizer enforces it on the view itself; this test reads a plain
    alias of the storage taken while the view was still valid."""
    first = _batch(rng, np.float32, rows=3, cols=64)
    with SortService(planner="auto", batch_target_rows=2,
                     linger_ms=0.5) as service:
        view = service.submit(first, copy=False).result(timeout=30)
        storage = view.view(np.ndarray)
        for _ in range(3):
            later = _batch(rng, np.float32, rows=3, cols=64)
            out = service.submit(later, copy=False).result(timeout=30)
            assert out.tobytes() == np.sort(later, axis=1).tobytes()
        assert service.stats().batches >= 4
    assert storage.tobytes() == np.sort(first, axis=1).tobytes()
