"""ResilientSorter: retry, fallback, re-sampling, quarantine.

The contract under test: injected faults may cost attempts and time but
never data — every delivered row is sorted and a permutation of its
input, rows that cannot be delivered are quarantined with their original
content, and the whole trajectory (and therefore the stats) replays
byte-identically from the FaultPlan seed.
"""

import numpy as np
import pytest

from repro.core import SortConfig
from repro.gpusim.faults import FaultPlan
from repro.resilience import (
    ResilientSorter,
    RetryPolicy,
    sort_arrays_resilient,
)
from repro.workloads import uniform_arrays

pytestmark = pytest.mark.faultinject


def make_sorter(plan=None, **kwargs):
    kwargs.setdefault("engine", "vectorized")
    kwargs.setdefault("sleep", None)
    return ResilientSorter(SortConfig(), fault_plan=plan, **kwargs)


class TestHappyPath:
    def test_no_faults_matches_numpy(self):
        batch = uniform_arrays(12, 100, seed=1)
        result = make_sorter().sort(batch)
        assert result.ok
        assert np.array_equal(result.batch, np.sort(batch, axis=1))
        assert result.stats.attempts == 1
        assert result.stats.retries == 0
        assert result.stats.fallbacks == {}

    def test_input_batch_not_mutated(self):
        batch = uniform_arrays(5, 60, seed=2)
        pristine = batch.copy()
        make_sorter(FaultPlan(1, corruption_rate=1.0)).sort(batch)
        assert np.array_equal(batch, pristine)

    def test_empty_batch(self):
        result = make_sorter().sort(np.empty((0, 10), dtype=np.float32))
        assert result.ok and result.batch.shape == (0, 10)

    def test_malformed_batch_still_raises(self):
        with pytest.raises(ValueError):
            make_sorter().sort(np.zeros((2, 0), dtype=np.float32))


class TestRetryAndFallback:
    def test_transient_faults_recovered_by_retry(self):
        batch = uniform_arrays(16, 80, seed=3)
        # Seed 1 draws fault, ok on its first launches: a transient
        # fault followed by a clean retry.
        plan = FaultPlan(1, kernel_fault_rate=0.5)
        result = make_sorter(plan).sort(batch)
        assert result.ok
        assert np.array_equal(result.batch, np.sort(batch, axis=1))
        assert result.stats.faults_seen > 0
        assert result.stats.retries > 0

    def test_always_faulting_device_falls_back_to_numpy(self):
        batch = uniform_arrays(8, 64, seed=4)
        plan = FaultPlan(9, kernel_fault_rate=1.0)
        result = make_sorter(plan).sort(batch)
        assert result.ok
        assert np.array_equal(result.batch, np.sort(batch, axis=1))
        assert result.stats.fallbacks == {"numpy": 1}
        # vectorized: 1 attempt + 3 retries, then numpy succeeds.
        assert result.stats.attempts == 5
        assert result.stats.rows_recovered == 8

    def test_oom_window_drains_then_recovers(self):
        batch = uniform_arrays(6, 64, seed=5)
        plan = FaultPlan(9, oom_windows=[(0, 2)])
        result = make_sorter(plan).sort(batch)
        assert result.ok
        assert result.stats.oom_seen == 2
        assert result.stats.faults_seen == 2

    def test_backoff_schedule_is_capped_and_recorded(self):
        waits = []
        policy = RetryPolicy(
            max_retries=3, base_backoff_s=0.1, multiplier=2.0, max_backoff_s=0.15
        )
        plan = FaultPlan(9, kernel_fault_rate=1.0)
        sorter = ResilientSorter(
            SortConfig(),
            engine="vectorized",
            fallback_chain=("vectorized",),
            fault_plan=plan,
            retry_policy=policy,
            sleep=waits.append,
        )
        result = sorter.sort(uniform_arrays(4, 32, seed=6))
        assert waits == [0.1, 0.15, 0.15]
        assert result.stats.backoff_seconds == pytest.approx(0.4)
        assert not result.ok  # single-engine chain, every attempt faulted

    def test_custom_chain_is_honored(self):
        plan = FaultPlan(9, kernel_fault_rate=1.0)
        sorter = make_sorter(plan, fallback_chain=("vectorized", "numpy"))
        result = sorter.sort(uniform_arrays(4, 32, seed=7))
        assert result.ok
        assert list(result.stats.fallbacks) == ["numpy"]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ResilientSorter(SortConfig(), engine="cuda")
        with pytest.raises(ValueError, match="unknown engine"):
            ResilientSorter(SortConfig(), fallback_chain=("vectorized", "gpu"))


class TestCorruptionAndQuarantine:
    def test_corruption_detected_and_healed(self):
        batch = uniform_arrays(32, 100, seed=8)
        plan = FaultPlan(13, corruption_rate=0.5)
        result = make_sorter(plan).sort(batch)
        if result.stats.corrupt_rows_detected:
            assert result.stats.retries + sum(result.stats.fallbacks.values()) > 0
        # Whatever was delivered is clean.
        delivered = np.ones(batch.shape[0], dtype=bool)
        delivered[result.quarantined] = False
        assert np.array_equal(
            result.batch[delivered], np.sort(batch[delivered], axis=1)
        )

    def test_persistent_corruption_quarantines_with_original_content(self):
        batch = uniform_arrays(4, 64, seed=9)
        plan = FaultPlan(5, corruption_rate=1.0)
        result = make_sorter(plan).sort(batch)
        assert not result.ok
        assert result.stats.quarantined_rows == result.quarantined.size
        for row in result.quarantined:
            assert result.quarantine_reasons[int(row)] == "validation-failed"
            # Quarantined rows surface their input verbatim, never
            # half-sorted or corrupted fabrications.
            assert np.array_equal(result.batch[row], batch[row])

    def test_nan_rows_quarantined_under_raise_policy(self):
        batch = uniform_arrays(6, 50, seed=10)
        batch[2, 7] = np.nan
        batch[5, 0] = np.nan
        result = make_sorter().sort(batch)
        assert result.quarantined.tolist() == [2, 5]
        assert result.quarantine_reasons[2] == "nan-input"
        clean = [0, 1, 3, 4]
        assert np.array_equal(
            result.batch[clean], np.sort(batch[clean], axis=1)
        )

    def test_nan_rows_sorted_under_sort_to_end(self):
        batch = uniform_arrays(6, 50, seed=10)
        batch[2, 7] = np.nan
        sorter = ResilientSorter(
            SortConfig(nan_policy="sort_to_end"), engine="vectorized", sleep=None
        )
        result = sorter.sort(batch)
        assert result.ok
        assert np.array_equal(
            result.batch, np.sort(batch, axis=1), equal_nan=True
        )


class TestInplace:
    def test_healed_result_lands_in_the_batch(self):
        batch = uniform_arrays(32, 100, seed=8)
        expected = np.sort(batch, axis=1)
        # Corruption and kernel faults force retries and fallbacks; the
        # healed rows still end up in the caller's storage.
        plan = FaultPlan(13, corruption_rate=0.5, kernel_fault_rate=0.3)
        result = make_sorter(plan).sort(batch, inplace=True)
        assert result.batch is batch
        assert result.ok
        assert result.stats.retries > 0 and result.stats.corrupt_rows_detected
        assert np.array_equal(batch, expected)

    def test_quarantined_rows_keep_their_input_bytes(self):
        batch = uniform_arrays(6, 50, seed=10)
        batch[2, 7] = np.nan
        batch[5, 0] = np.nan
        pristine = batch.copy()
        result = make_sorter().sort(batch, inplace=True)
        assert result.batch is batch
        assert result.quarantined.tolist() == [2, 5]
        assert batch[[2, 5]].tobytes() == pristine[[2, 5]].tobytes()
        clean = [0, 1, 3, 4]
        assert np.array_equal(batch[clean], np.sort(pristine[clean], axis=1))

    def test_persistent_corruption_leaves_quarantined_rows_untouched(self):
        batch = uniform_arrays(4, 64, seed=9)
        pristine = batch.copy()
        result = make_sorter(FaultPlan(5, corruption_rate=1.0)).sort(
            batch, inplace=True
        )
        assert result.quarantined.size
        for row in result.quarantined:
            assert batch[row].tobytes() == pristine[row].tobytes()

    def test_default_leaves_the_batch_untouched(self):
        batch = uniform_arrays(12, 100, seed=1)
        pristine = batch.copy()
        result = make_sorter().sort(batch)
        assert result.batch is not batch
        assert batch.tobytes() == pristine.tobytes()
        assert np.array_equal(result.batch, np.sort(pristine, axis=1))

    def test_empty_batch_is_returned_as_is(self):
        batch = np.empty((0, 10), dtype=np.float32)
        assert make_sorter().sort(batch, inplace=True).batch is batch


class TestDegeneracyResampling:
    def test_duplicate_heavy_data_triggers_resample(self):
        rng = np.random.default_rng(11)
        batch = np.full((8, 256), 5.0, dtype=np.float32)
        mask = rng.random(batch.shape) < 0.05
        batch[mask] = rng.uniform(0, 10, int(mask.sum())).astype(np.float32)
        result = make_sorter(max_resample_boosts=2).sort(batch)
        assert result.ok
        assert result.stats.resamples >= 1
        assert np.array_equal(result.batch, np.sort(batch, axis=1))

    def test_uniform_data_does_not_resample(self):
        batch = uniform_arrays(8, 256, seed=12)
        result = make_sorter().sort(batch)
        assert result.stats.resamples == 0

    def test_boosts_capped(self):
        batch = np.full((4, 256), 1.0, dtype=np.float32)
        result = make_sorter(max_resample_boosts=2).sort(batch)
        assert result.stats.resamples <= 2
        assert result.ok


class TestDeterminismAndSessionStats:
    def test_same_seed_identical_stats_and_output(self):
        batch = uniform_arrays(24, 90, seed=13)
        runs = []
        for _ in range(2):
            plan = FaultPlan(17, kernel_fault_rate=0.4, corruption_rate=0.2)
            result = make_sorter(plan).sort(batch)
            runs.append(result)
        assert runs[0].stats.as_dict() == runs[1].stats.as_dict()
        assert np.array_equal(runs[0].batch, runs[1].batch)
        assert np.array_equal(runs[0].quarantined, runs[1].quarantined)

    def test_session_stats_accumulate(self):
        sorter = make_sorter()
        sorter.sort(uniform_arrays(4, 40, seed=14))
        sorter.sort(uniform_arrays(4, 40, seed=15))
        assert sorter.stats.attempts == 2

    def test_convenience_wrapper(self):
        batch = uniform_arrays(4, 40, seed=16)
        result = sort_arrays_resilient(batch, sleep=None)
        assert np.array_equal(result.batch, np.sort(batch, axis=1))
