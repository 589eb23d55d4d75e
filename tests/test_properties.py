"""Property-based tests (hypothesis) on the core data structures.

The invariants under test:

* sorting correctness is a conjunction of *sortedness* and *permutation*
  for every implementation (GPU-ArraySort, STA, segmented, radix);
* phase 2 produces a true partition (sizes sum, half-open ranges,
  stability) for any data and any legal configuration;
* the radix float-key encoding is a strict order embedding;
* the allocator never double-books bytes;
* the pipeline timeline is sandwiched between its max-stage and serial
  bounds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.radix import keys_to_values, radix_sort_by_key, sortable_keys
from repro.baselines.segmented import segmented_sort
from repro.baselines.sta import sta_sort
from repro.core import SortConfig, sort_arrays
from repro.core.bucketing import bucketize, exclusive_scan
from repro.core.insertion import insertion_sort
from repro.core.pipeline import pipeline_timeline
from repro.core.splitters import select_splitters
from repro.core.validation import check_bucket_partition

# Finite float32 values in a comfortable range (no NaN; bucketize rejects
# it).  Bounds must be exactly representable in float32 for hypothesis.
F32_BOUND = float(np.float32(1e30))
finite_f32 = st.floats(
    min_value=-F32_BOUND, max_value=F32_BOUND, allow_nan=False, width=32
)

small_batches = hnp.arrays(
    dtype=np.float32,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 120)),
    elements=finite_f32,
)

configs = st.builds(
    SortConfig,
    bucket_size=st.integers(1, 64),
    sampling_rate=st.floats(0.01, 1.0),
)


class TestSortingProperties:
    @given(batch=small_batches)
    @settings(max_examples=60, deadline=None)
    def test_arraysort_sorts_and_permutes(self, batch):
        out = sort_arrays(batch)
        assert np.all(np.diff(out, axis=1) >= 0)
        assert np.array_equal(np.sort(out, axis=1), np.sort(batch, axis=1))

    @given(batch=small_batches, config=configs)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_arraysort_correct_for_any_config(self, batch, config):
        out = sort_arrays(batch, config=config)
        assert np.array_equal(out, np.sort(batch, axis=1))

    @given(batch=small_batches)
    @settings(max_examples=30, deadline=None)
    def test_sta_matches_arraysort(self, batch):
        assert np.array_equal(sta_sort(batch), sort_arrays(batch))

    @given(batch=small_batches)
    @settings(max_examples=30, deadline=None)
    def test_segmented_matches_arraysort(self, batch):
        assert np.array_equal(segmented_sort(batch), sort_arrays(batch))

    @given(values=st.lists(st.integers(-1000, 1000), max_size=60))
    @settings(max_examples=60)
    def test_insertion_sort_matches_sorted(self, values):
        assert insertion_sort(values) == sorted(values)

    @given(batch=small_batches)
    @settings(max_examples=30, deadline=None)
    def test_idempotence(self, batch):
        once = sort_arrays(batch)
        twice = sort_arrays(once)
        assert np.array_equal(once, twice)


class TestBucketingProperties:
    @given(batch=small_batches, config=configs)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_partition_invariants(self, batch, config):
        spl = select_splitters(batch, config)
        res = bucketize(batch.copy(), spl.splitters, config)
        # sizes sum to n per row
        assert np.all(res.sizes.sum(axis=1) == batch.shape[1])
        # offsets consistent with sizes
        assert np.array_equal(np.diff(res.offsets, axis=1), res.sizes)
        # every row is a valid half-open partition and a permutation
        for i in range(batch.shape[0]):
            check_bucket_partition(res.bucketed[i], spl.splitters[i], res.offsets[i])
            assert np.array_equal(
                np.sort(res.bucketed[i]), np.sort(batch[i])
            )

    @given(sizes=hnp.arrays(dtype=np.int64,
                            shape=st.tuples(st.integers(1, 6), st.integers(1, 20)),
                            elements=st.integers(0, 100)))
    @settings(max_examples=60)
    def test_exclusive_scan_properties(self, sizes):
        out = exclusive_scan(sizes)
        assert np.all(out[:, 0] == 0)
        assert np.array_equal(out[:, -1], sizes.sum(axis=1))
        assert np.all(np.diff(out, axis=1) >= 0)

    @given(batch=small_batches)
    @settings(max_examples=30, deadline=None)
    def test_splitters_sorted_and_from_data(self, batch):
        spl = select_splitters(batch)
        assert np.all(np.diff(spl.splitters.astype(np.float64), axis=1) >= 0)
        for i in range(batch.shape[0]):
            assert np.all(np.isin(spl.splitters[i], batch[i]))


class TestRadixProperties:
    @given(values=hnp.arrays(dtype=np.float32, shape=st.integers(0, 300),
                             elements=finite_f32))
    @settings(max_examples=60)
    def test_key_encoding_is_order_embedding(self, values):
        keys = sortable_keys(values).astype(np.int64)
        order_v = np.argsort(values, kind="stable")
        order_k = np.argsort(keys, kind="stable")
        assert np.array_equal(values[order_v], values[order_k])

    @given(values=hnp.arrays(dtype=np.float32, shape=st.integers(0, 300),
                             elements=finite_f32))
    @settings(max_examples=40)
    def test_key_encoding_roundtrip(self, values):
        back = keys_to_values(sortable_keys(values), np.float32)
        assert np.array_equal(back, values)

    @given(
        keys=hnp.arrays(dtype=np.uint32, shape=st.integers(0, 400),
                        elements=st.integers(0, 2**32 - 1)),
        digit_bits=st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=40, deadline=None)
    def test_radix_sorts_any_digit_width(self, keys, digit_bits):
        out, _ = radix_sort_by_key(keys, None, digit_bits=digit_bits)
        assert np.array_equal(out, np.sort(keys))

    @given(n=st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_radix_stability_with_equal_keys(self, n):
        keys = np.zeros(n, dtype=np.uint32)
        vals = np.arange(n, dtype=np.int32)
        _, sv = radix_sort_by_key(keys, vals)
        assert np.array_equal(sv, vals)


class TestAllocatorProperties:
    @given(
        sizes=st.lists(st.integers(0, 2000), min_size=1, max_size=30),
        free_order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_alloc_free_conserves_bytes(self, sizes, free_order):
        from repro.gpusim.device import MICRO
        from repro.gpusim.errors import DeviceOutOfMemoryError
        from repro.gpusim.memory import GlobalMemory

        mem = GlobalMemory(MICRO)
        start_free = mem.free_bytes
        live = []
        for size in sizes:
            try:
                live.append(mem.alloc(size, np.float32))
            except DeviceOutOfMemoryError:
                break
        free_order.shuffle(live)
        for arr in live:
            mem.free(arr)
        assert mem.free_bytes == start_free
        assert mem.live_allocations() == 0

    @given(sizes=st.lists(st.integers(1, 500), min_size=2, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        from repro.gpusim.device import MICRO
        from repro.gpusim.errors import DeviceOutOfMemoryError
        from repro.gpusim.memory import GlobalMemory

        mem = GlobalMemory(MICRO)
        arrays = []
        for size in sizes:
            try:
                arrays.append(mem.alloc(size, np.float32))
            except DeviceOutOfMemoryError:
                break
        assume(len(arrays) >= 2)
        for marker, arr in enumerate(arrays):
            arr.fill(float(marker))
        for marker, arr in enumerate(arrays):
            assert np.all(arr.copy_to_host() == float(marker))


class TestPipelineProperties:
    stage_lists = st.integers(1, 10).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(0, 100), min_size=k, max_size=k),
            st.lists(st.floats(0, 100), min_size=k, max_size=k),
            st.lists(st.floats(0, 100), min_size=k, max_size=k),
        )
    )

    @given(stages=stage_lists)
    @settings(max_examples=60)
    def test_overlap_bounded_between_max_stage_and_serial(self, stages):
        up, comp, down = stages
        overlapped = pipeline_timeline(up, comp, down, overlap=True)
        serial = pipeline_timeline(up, comp, down, overlap=False)
        lower = max(sum(up), sum(comp), sum(down))
        assert overlapped <= serial + 1e-9
        assert overlapped >= lower - 1e-9
