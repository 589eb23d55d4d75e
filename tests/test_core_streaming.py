"""Tests for the streaming batch sorter."""

import numpy as np
import pytest

from repro.core.streaming import StreamingSorter
from repro.workloads import uniform_arrays


class TestStreamingSorter:
    def test_batches_emitted_and_sorted(self):
        sorter = StreamingSorter(100, batch_arrays=50)
        data = uniform_arrays(125, 100, seed=1)
        for row in data:
            sorter.push(row)
        sorter.flush()
        assert sorter.stats.batches_out == 3  # 50 + 50 + 25
        assert sorter.stats.arrays_out == 125
        recombined = np.vstack(sorter.results)
        assert np.array_equal(recombined, np.sort(data, axis=1))

    def test_slab_pushes(self):
        sorter = StreamingSorter(60, batch_arrays=40)
        data = uniform_arrays(100, 60, seed=2)
        emitted = sorter.push_slab(data)
        assert emitted == 2
        assert sorter.stats.arrays_pending == 20
        sorter.flush()
        assert sorter.stats.arrays_pending == 0

    def test_slab_larger_than_batch(self):
        sorter = StreamingSorter(30, batch_arrays=10)
        data = uniform_arrays(35, 30, seed=3)
        emitted = sorter.push_slab(data)
        assert emitted == 3
        sorter.flush()
        assert np.array_equal(np.vstack(sorter.results), np.sort(data, axis=1))

    def test_callback_mode(self):
        received = []
        sorter = StreamingSorter(40, batch_arrays=20,
                                 on_batch=lambda b: received.append(b.copy()))
        data = uniform_arrays(45, 40, seed=4)
        sorter.push_slab(data)
        sorter.flush()
        assert len(received) == 3
        assert sorter.results == []
        assert np.array_equal(np.vstack(received), np.sort(data, axis=1))

    def test_flush_empty_is_noop(self):
        sorter = StreamingSorter(10, batch_arrays=5)
        assert sorter.flush() == 0
        assert sorter.stats.batches_out == 0

    def test_push_after_flush_rejected(self):
        sorter = StreamingSorter(10, batch_arrays=5)
        sorter.flush()
        with pytest.raises(RuntimeError):
            sorter.push(np.zeros(10))

    def test_wrong_array_size_rejected(self):
        sorter = StreamingSorter(10, batch_arrays=5)
        with pytest.raises(ValueError):
            sorter.push(np.zeros(11))

    def test_stats_accounting(self):
        sorter = StreamingSorter(50, batch_arrays=25)
        data = uniform_arrays(60, 50, seed=5)
        sorter.push_slab(data)
        sorter.flush()
        s = sorter.stats
        assert s.arrays_in == 60
        assert s.arrays_out == 60
        assert s.batches_out == 3
        assert s.wall_seconds_sorting > 0
        assert s.modeled_device_ms > 0
        assert s.modeled_throughput_arrays_per_s > 0

    def test_staging_reuse_does_not_corrupt_results(self):
        """Emitted batches must be copies, not views of the staging
        buffer that later pushes overwrite."""
        sorter = StreamingSorter(20, batch_arrays=10)
        first = uniform_arrays(10, 20, seed=6)
        second = uniform_arrays(10, 20, seed=7)
        sorter.push_slab(first)
        snapshot = sorter.results[0].copy()
        sorter.push_slab(second)
        sorter.flush()
        assert np.array_equal(sorter.results[0], snapshot)

    def test_rejects_bad_constructor_args(self):
        with pytest.raises(ValueError):
            StreamingSorter(0, batch_arrays=4)
        with pytest.raises(ValueError):
            StreamingSorter(10, batch_arrays=0)

    def test_spectra_acquisition_scenario(self):
        """End-to-end: spectra arriving in acquisition slabs."""
        from repro.workloads import generate_spectra

        spectra = generate_spectra(80, 200, seed=8)
        out_batches = []
        sorter = StreamingSorter(
            200, batch_arrays=32, on_batch=lambda b: out_batches.append(b)
        )
        for start in range(0, 80, 16):  # instrument flushes 16 at a time
            sorter.push_slab(spectra.intensity[start : start + 16])
        sorter.flush()
        combined = np.vstack(out_batches)
        assert np.array_equal(combined, np.sort(spectra.intensity, axis=1))
