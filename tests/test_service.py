"""Unit tests for the sort service: batcher decisions, admission control,
deadlines, stats, lifecycle, and backend composition.

The :class:`DynamicBatcher` tests drive the decision surface with a
synthetic clock — no threads, no sleeps.  The :class:`SortService` tests
use a real service but tiny workloads, plus a controllable fake clock
where deadline behaviour must be deterministic.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.service import (
    DEFAULT_BATCH_TARGET_ROWS,
    DeadlineExceededError,
    DynamicBatcher,
    QuarantinedError,
    QueuedRequest,
    RejectedError,
    ServiceClosedError,
    ServiceError,
    ServiceStats,
    SortService,
    StatsRecorder,
)
from repro.service.stats import _occupancy_bucket

pytestmark = pytest.mark.service


def _request(seq, rows=1, row_len=8, dtype=np.float32, deadline=None,
             priority=0, enqueued_at=0.0):
    return QueuedRequest(
        seq=seq,
        arrays=np.zeros((rows, row_len), dtype=dtype),
        deadline=deadline,
        priority=priority,
        enqueued_at=enqueued_at,
        future=None,
    )


class TestDynamicBatcher:
    def make(self, target=8, cap=None, linger=1.0):
        return DynamicBatcher(
            target_rows=target,
            max_batch_rows=cap if cap is not None else 4 * target,
            linger_s=linger,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(target=0)
        with pytest.raises(ValueError):
            self.make(target=8, cap=4)
        with pytest.raises(ValueError):
            self.make(linger=-1.0)

    def test_lanes_keyed_by_shape_and_dtype(self):
        batcher = self.make()
        batcher.add(_request(0, row_len=8, dtype=np.float32))
        batcher.add(_request(1, row_len=8, dtype=np.float64))
        batcher.add(_request(2, row_len=16, dtype=np.float32))
        batcher.add(_request(3, row_len=8, dtype=np.float32))
        assert batcher.total_requests == 4
        assert len(batcher._lanes) == 3  # only same (n, dtype) coalesce

    def test_not_ready_below_target_within_linger(self):
        batcher = self.make(target=8, linger=1.0)
        batcher.add(_request(0, rows=4, enqueued_at=0.0))
        assert batcher.ready_lane(now=0.5) is None

    def test_ready_at_target_rows(self):
        batcher = self.make(target=8, linger=1.0)
        batcher.add(_request(0, rows=4, enqueued_at=0.0))
        batcher.add(_request(1, rows=4, enqueued_at=0.1))
        assert batcher.ready_lane(now=0.2) is not None

    def test_ready_when_oldest_lingers(self):
        batcher = self.make(target=8, linger=1.0)
        batcher.add(_request(0, rows=1, enqueued_at=0.0))
        assert batcher.ready_lane(now=0.99) is None
        assert batcher.ready_lane(now=1.0) is not None

    def test_drain_makes_everything_ready(self):
        batcher = self.make(target=8, linger=100.0)
        batcher.add(_request(0, rows=1, enqueued_at=0.0))
        assert batcher.ready_lane(now=0.0) is None
        assert batcher.ready_lane(now=0.0, drain=True) is not None

    def test_pop_batch_is_edf_ordered(self):
        batcher = self.make(target=2, linger=0.0)
        batcher.add(_request(0, deadline=9.0, enqueued_at=0.0))
        batcher.add(_request(1, deadline=3.0, enqueued_at=0.0))
        batcher.add(_request(2, deadline=None, enqueued_at=0.0))
        batcher.add(_request(3, deadline=3.0, priority=-1, enqueued_at=0.0))
        lane = batcher.ready_lane(now=0.0)
        taken = batcher.pop_batch(lane, now=0.0)
        # deadline first, priority breaks the 3.0 tie, no-deadline last
        assert [r.seq for r in taken] == [3, 1, 0, 2]
        assert batcher.total_requests == 0

    def test_pop_batch_respects_row_cap(self):
        batcher = self.make(target=4, cap=6, linger=0.0)
        for seq in range(4):
            batcher.add(_request(seq, rows=2, enqueued_at=0.0))
        lane = batcher.ready_lane(now=0.0)
        taken = batcher.pop_batch(lane, now=0.0)
        assert sum(r.rows for r in taken) == 6
        assert batcher.total_requests == 1  # the fourth waits for the next batch
        assert batcher.total_rows == 2

    def test_oversized_request_dispatches_alone(self):
        batcher = self.make(target=4, cap=8, linger=0.0)
        batcher.add(_request(0, rows=32, enqueued_at=0.0))
        lane = batcher.ready_lane(now=0.0)
        taken = batcher.pop_batch(lane, now=0.0)
        assert [r.seq for r in taken] == [0]

    def test_shed_expired_removes_only_past_deadline(self):
        batcher = self.make()
        batcher.add(_request(0, deadline=1.0, enqueued_at=0.0))
        batcher.add(_request(1, deadline=5.0, enqueued_at=0.0))
        batcher.add(_request(2, deadline=None, enqueued_at=0.0))
        shed = batcher.shed_expired(now=2.0)
        assert [r.seq for r in shed] == [0]
        assert batcher.total_requests == 2
        assert batcher.total_rows == 2

    def test_ready_lane_prefers_urgent_deadline_across_lanes(self):
        batcher = self.make(target=1, linger=0.0)
        batcher.add(_request(0, row_len=8, deadline=9.0, enqueued_at=0.0))
        batcher.add(_request(1, row_len=16, deadline=1.0, enqueued_at=0.5))
        lane = batcher.ready_lane(now=1.0)
        assert lane.key[0] == 16

    def test_next_event_at_tracks_linger_and_deadline(self):
        batcher = self.make(target=100, linger=2.0)
        assert batcher.next_event_at(now=0.0) is None
        batcher.add(_request(0, enqueued_at=1.0))
        assert batcher.next_event_at(now=1.0) == pytest.approx(3.0)
        batcher.add(_request(1, deadline=1.5, enqueued_at=1.0))
        assert batcher.next_event_at(now=1.0) == pytest.approx(1.5)

    def test_drop_all_empties_queue(self):
        batcher = self.make()
        for seq in range(3):
            batcher.add(_request(seq, row_len=8 * (seq + 1)))
        dropped = batcher.drop_all()
        assert len(dropped) == 3
        assert batcher.total_requests == 0
        assert batcher.total_rows == 0
        assert batcher.ready_lane(now=1e9, drain=True) is None


class TestDefaultBatchTarget:
    def test_default_target_is_pinned(self):
        # Every planner="auto" service and every fleet worker's
        # parent-side service batches at this target; a change here
        # moves their batch sizes.
        assert DEFAULT_BATCH_TARGET_ROWS == 4096
        for planner in (None, "auto", "fused"):
            with SortService(planner=planner) as service:
                assert service.batch_target_rows == 4096


class TestStats:
    def test_occupancy_bucket_powers_of_two(self):
        assert _occupancy_bucket(1) == "[1,2)"
        assert _occupancy_bucket(5) == "[4,8)"
        assert _occupancy_bucket(1024) == "[1024,2048)"
        assert _occupancy_bucket(0) == "[0,1)"

    def test_latency_ring_is_bounded(self):
        recorder = StatsRecorder(latency_window=4)
        for i in range(10):
            recorder.record_latency(i / 1e3)
        assert recorder.completed == 10
        pct = recorder.latency_percentiles()
        # Only the most recent 4 samples (6..9 ms) survive in the ring.
        assert pct["max"] == pytest.approx(9.0)
        assert pct["p50"] >= 6.0

    @pytest.mark.parametrize("completions", [5, 1500])  # partly filled, wrapped
    def test_snapshot_percentiles_match_np_percentile(self, completions):
        recorder = StatsRecorder(latency_window=1024, tenant_latency_window=256)
        rng = np.random.default_rng(completions)
        seconds = rng.exponential(2e-3, completions)
        tenants = np.array(["a", "b"])[rng.integers(0, 2, completions)]
        for value, tenant in zip(seconds, tenants):
            recorder.record_latency(float(value), tenant=str(tenant))

        def expected(latencies_s, window):
            recent = np.array([s * 1e3 for s in latencies_s[-window:]])
            p50, p95, p99 = np.percentile(recent, [50.0, 95.0, 99.0])
            return {"p50": p50, "p95": p95, "p99": p99,
                    "mean": recent.mean(), "max": recent.max()}

        def assert_matches(got, want):
            assert set(got) == set(want)
            for key in ("p50", "p95", "p99", "max"):  # order-free: exact
                assert got[key] == want[key]
            # The ring holds the window rotated; summation order may differ.
            assert got["mean"] == pytest.approx(want["mean"], rel=1e-12)

        snap = recorder.snapshot(queue_requests=0, queue_rows=0)
        assert_matches(snap.latency_ms, expected(seconds, 1024))
        for name in ("a", "b"):
            mine = seconds[tenants == name]
            assert_matches(snap.tenants[name].latency_ms, expected(mine, 256))

    def test_snapshot_roundtrip(self):
        recorder = StatsRecorder()
        recorder.record_batch(12)
        recorder.record_batch(20)
        snap = recorder.snapshot(queue_requests=3, queue_rows=7)
        assert isinstance(snap, ServiceStats)
        assert snap.batches == 2
        assert snap.mean_occupancy_rows == pytest.approx(16.0)
        assert snap.queue_depth_requests == 3
        payload = snap.as_dict()
        assert payload["queue_depth_rows"] == 7
        assert "[16,32)" in payload["occupancy_histogram"]


class TestSortService:
    def test_submit_returns_sorted_copy(self, rng):
        arrays = rng.random((5, 32)).astype(np.float32)
        with SortService(batch_target_rows=4, linger_ms=1.0) as service:
            out = service.submit(arrays).result(timeout=30)
        np.testing.assert_array_equal(out, np.sort(arrays, axis=1))
        assert out.base is None or out.base is not arrays  # a private copy

    def test_single_array_round_trips_one_dimensional(self, rng):
        row = rng.random(64).astype(np.float64)
        with SortService(batch_target_rows=4, linger_ms=1.0) as service:
            out = service.submit(row).result(timeout=30)
        assert out.ndim == 1
        np.testing.assert_array_equal(out, np.sort(row))

    def test_invalid_inputs_raise_at_submit(self):
        with SortService(batch_target_rows=4) as service:
            with pytest.raises(ValueError):
                service.submit(np.zeros((2, 2, 2), dtype=np.float32))
            with pytest.raises(ValueError):
                service.submit(np.zeros((0, 4), dtype=np.float32))
            with pytest.raises(ValueError):
                service.submit(np.array([["a", "b"]]))
            with pytest.raises(ValueError):
                service.submit(np.zeros((1, 4), dtype=np.float32), deadline=-1)

    def test_requests_coalesce_into_one_batch(self, rng):
        calls = []

        class SpyBackend:
            def sort(self, batch, *, inplace=False):
                calls.append(batch.shape)
                from repro.core import GpuArraySort

                return GpuArraySort(SortConfig()).sort(batch, inplace=inplace)

        with SortService(backend=SpyBackend(), batch_target_rows=8,
                         linger_ms=50.0) as service:
            futures = [
                service.submit(rng.random((2, 16)).astype(np.float32))
                for _ in range(4)
            ]
            for future in futures:
                future.result(timeout=30)
        assert calls == [(8, 16)]  # one fused batch, not four calls

    def test_admission_control_rejects_with_retry_after(self):
        blocker = threading.Event()

        class SlowBackend:
            def sort(self, batch, *, inplace=False):
                blocker.wait(30)
                from repro.core import GpuArraySort

                return GpuArraySort(SortConfig()).sort(batch, inplace=inplace)

        service = SortService(backend=SlowBackend(), batch_target_rows=2,
                              max_batch_rows=2, max_queue_rows=4,
                              linger_ms=0.0)
        try:
            futures = [
                service.submit(np.zeros((2, 8), dtype=np.float32))
                for _ in range(2)
            ]
            # Worker is stuck in SlowBackend with <=2 rows; fill the
            # queue back up to its 4-row bound, then overflow it.
            deadline = time.monotonic() + 10
            admitted = []
            with pytest.raises(RejectedError) as exc_info:
                while time.monotonic() < deadline:
                    admitted.append(
                        service.submit(np.zeros((2, 8), dtype=np.float32))
                    )
            assert exc_info.value.retry_after > 0
            assert service.stats().rejected >= 1
        finally:
            blocker.set()
            service.close(drain=True)

    def test_queued_deadline_shed_with_stage(self):
        started = threading.Event()
        blocker = threading.Event()

        class SlowBackend:
            def sort(self, batch, *, inplace=False):
                started.set()
                blocker.wait(30)
                from repro.core import GpuArraySort

                return GpuArraySort(SortConfig()).sort(batch, inplace=inplace)

        service = SortService(backend=SlowBackend(), batch_target_rows=1,
                              max_batch_rows=1, linger_ms=0.0)
        try:
            # First request occupies the worker; only then submit the
            # deadlined one, so it provably expires *in the queue*.
            first = service.submit(np.zeros((1, 8), dtype=np.float32))
            assert started.wait(30)
            late = service.submit(np.zeros((1, 8), dtype=np.float32),
                                  deadline=0.01)
            time.sleep(0.03)  # let the deadline pass while queued
            blocker.set()  # first sort completes; worker sheds the late one
            with pytest.raises(DeadlineExceededError) as exc_info:
                late.result(timeout=30)
            assert exc_info.value.stage == "queued"
            assert exc_info.value.waited >= 0.01
            assert service.stats().shed == 1
            first.result(timeout=30)
        finally:
            blocker.set()
            service.close(drain=True)

    def test_post_sort_deadline_miss_discards_result(self):
        class GlacialBackend:
            def sort(self, batch, *, inplace=False):
                time.sleep(0.05)
                from repro.core import GpuArraySort

                return GpuArraySort(SortConfig()).sort(batch, inplace=inplace)

        with SortService(backend=GlacialBackend(), batch_target_rows=1,
                         linger_ms=0.0) as service:
            future = service.submit(np.zeros((1, 8), dtype=np.float32),
                                    deadline=0.01)
            with pytest.raises(DeadlineExceededError) as exc_info:
                future.result(timeout=30)
        assert exc_info.value.stage == "sorted"

    def test_copy_false_returns_view_valid_until_next_dispatch(self, rng):
        arrays = rng.random((3, 16)).astype(np.float32)
        with SortService(batch_target_rows=2, linger_ms=1.0) as service:
            out = service.submit(arrays, copy=False).result(timeout=30)
            np.testing.assert_array_equal(out, np.sort(arrays, axis=1))
            assert out.base is not None  # a view into the batch buffer

    def test_batch_failure_isolated_to_culprit(self, rng):
        good = rng.random((2, 16)).astype(np.float32)
        poisoned = np.full((2, 16), np.nan, dtype=np.float32)
        config = SortConfig(nan_policy="raise")
        with SortService(config=config, batch_target_rows=4,
                         linger_ms=50.0) as service:
            f_good = service.submit(good)
            f_bad = service.submit(poisoned)
            np.testing.assert_array_equal(
                f_good.result(timeout=30), np.sort(good, axis=1)
            )
            with pytest.raises(Exception) as exc_info:
                f_bad.result(timeout=30)
        assert not isinstance(exc_info.value, ServiceError)  # the real cause
        assert "nan" in str(exc_info.value).lower()

    def test_resilient_backend_quarantine_is_per_request(self, rng):
        good = rng.random((2, 16)).astype(np.float32)
        poisoned = good.copy()
        poisoned[1, 3] = np.nan
        config = SortConfig(nan_policy="raise")
        with SortService(config=config, backend="resilient",
                         batch_target_rows=4, linger_ms=50.0) as service:
            f_good = service.submit(good)
            f_bad = service.submit(poisoned)
            np.testing.assert_array_equal(
                f_good.result(timeout=30), np.sort(good, axis=1)
            )
            with pytest.raises(QuarantinedError) as exc_info:
                f_bad.result(timeout=30)
        # Row indices are request-relative, not batch-relative.
        assert exc_info.value.rows == (1,)
        assert "nan" in exc_info.value.reasons[1]

    def test_stats_counters_and_occupancy(self, rng):
        with SortService(batch_target_rows=4, linger_ms=1.0) as service:
            futures = [
                service.submit(rng.random((1, 8)).astype(np.float32))
                for _ in range(8)
            ]
            for future in futures:
                future.result(timeout=30)
            service.flush(timeout=30)
            stats = service.stats()
        assert stats.submitted == 8
        assert stats.completed == 8
        # Batching is timing-dependent, but coalescing must have happened:
        # strictly fewer batches than requests, and every row accounted for.
        assert 1 <= stats.batches < 8
        assert stats.batched_rows == 8
        assert sum(stats.occupancy_histogram.values()) == stats.batches
        assert stats.latency_ms["p99"] >= stats.latency_ms["p50"] > 0

    def test_flush_drains_below_target(self, rng):
        with SortService(batch_target_rows=1024, linger_ms=60_000.0) as service:
            future = service.submit(rng.random((2, 8)).astype(np.float32))
            assert service.flush(timeout=30)
            assert future.done()
            assert service.stats().queue_depth_requests == 0

    def test_batcher_notifies_only_while_a_flush_waits(self, rng):
        service = SortService(batch_target_rows=2, linger_ms=60_000.0)
        wakeup = service._wakeup
        real_notify_all = wakeup.notify_all
        batcher_notifies = []

        def counting_notify_all():
            if threading.current_thread() is service._worker:
                batcher_notifies.append(1)
            real_notify_all()

        wakeup.notify_all = counting_notify_all
        try:
            for _ in range(3):  # each submit fills the lane: one batch
                batch = rng.random((2, 8)).astype(np.float32)
                np.testing.assert_array_equal(
                    service.submit(batch).result(timeout=30),
                    np.sort(batch, axis=1),
                )
            # The batcher passed its loop top after each of the first two
            # batches before it took the next; no flush was waiting.
            assert batcher_notifies == []
            assert service.flush(timeout=30)
        finally:
            service.close(timeout=30)

    def test_close_without_drain_fails_queued_requests(self):
        blocker = threading.Event()

        class SlowBackend:
            def sort(self, batch, *, inplace=False):
                blocker.wait(30)
                from repro.core import GpuArraySort

                return GpuArraySort(SortConfig()).sort(batch, inplace=inplace)

        service = SortService(backend=SlowBackend(), batch_target_rows=1,
                              max_batch_rows=1, linger_ms=0.0)
        running = service.submit(np.zeros((1, 8), dtype=np.float32))
        queued = service.submit(np.zeros((1, 8), dtype=np.float32))
        blocker.set()
        service.close(drain=False, timeout=30)
        with pytest.raises((ServiceClosedError, Exception)):
            queued.result(timeout=30)
        with pytest.raises(ServiceClosedError):
            service.submit(np.zeros((1, 8), dtype=np.float32))
        assert service.closed

    def test_close_is_idempotent_and_drains(self, rng):
        service = SortService(batch_target_rows=64, linger_ms=60_000.0)
        future = service.submit(rng.random((2, 8)).astype(np.float32))
        service.close(drain=True, timeout=30)
        service.close(drain=True, timeout=30)  # second close is a no-op
        np.testing.assert_array_equal(
            future.result(timeout=1),
            np.sort(np.asarray(future.result(timeout=1)), axis=1),
        )

    def test_backend_type_validation(self):
        with pytest.raises(TypeError):
            SortService(backend=42)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SortService(batch_target_rows=0)
        with pytest.raises(ValueError):
            SortService(batch_target_rows=8, max_queue_rows=4)
        with pytest.raises(ValueError):
            SortService(linger_ms=-1.0)
        with pytest.raises(ValueError):
            SortService(default_deadline_ms=0.0)

    def test_planner_passthrough_reaches_backend(self):
        with SortService(planner="fused", batch_target_rows=4) as service:
            assert service.sorter.planner is not None

    def test_auto_planner_writes_no_file(self, rng, tmp_path, monkeypatch):
        from repro.planner import set_default_planner
        from repro.planner.calibrate import CACHE_ENV

        path = tmp_path / "planner.json"
        monkeypatch.setenv(CACHE_ENV, str(path))
        set_default_planner(None)
        try:
            service = SortService(planner="auto", batch_target_rows=4,
                                  linger_ms=1.0)
            for _ in range(3):
                batch = rng.random((4, 64)).astype(np.float32)
                result = service.submit(batch).result(timeout=30)
                assert result.tobytes() == np.sort(batch, axis=1).tobytes()
            service.close()
        finally:
            set_default_planner(None)
        assert not path.exists()

    def test_priority_orders_equal_deadlines(self):
        batcher = DynamicBatcher(target_rows=2, max_batch_rows=2,
                                 linger_s=0.0)
        a = _request(0, deadline=5.0, priority=1, enqueued_at=0.0)
        b = _request(1, deadline=5.0, priority=0, enqueued_at=0.0)
        batcher.add(a)
        batcher.add(b)
        lane = batcher.ready_lane(now=0.0, drain=True)
        taken = batcher.pop_batch(lane, now=0.0)
        assert [r.seq for r in taken] == [1, 0]


class TestBatcherWakeups:
    """A submit wakes the batcher thread only when it changes the thread's
    next step: an empty queue, a filled lane, or an earlier deadline."""

    def test_joining_a_lingering_lane_does_not_wake_the_thread(
        self, monkeypatch
    ):
        passes = []
        ready_lane = DynamicBatcher.ready_lane

        def counting(self, *args, **kwargs):
            passes.append(1)
            return ready_lane(self, *args, **kwargs)

        monkeypatch.setattr(DynamicBatcher, "ready_lane", counting)
        with SortService(batch_target_rows=1024,
                         linger_ms=60_000.0) as service:
            for _ in range(50):
                service.submit(np.zeros((1, 8), dtype=np.float32))
                time.sleep(0.002)  # room for a woken thread to run
            # One pass at start (empty queue), one for the first submit.
            assert len(passes) <= 3
            assert service.flush(timeout=30)

    def test_filling_the_lane_dispatches_at_once(self, rng):
        with SortService(batch_target_rows=8, linger_ms=60_000.0) as service:
            first = service.submit(rng.random((4, 16)).astype(np.float32))
            time.sleep(0.05)  # the thread is now in its 60 s wait
            assert not first.done()
            second = service.submit(rng.random((4, 16)).astype(np.float32))
            first.result(timeout=10)
            second.result(timeout=10)

    def test_earlier_deadline_is_shed_on_time(self):
        with SortService(batch_target_rows=1024,
                         linger_ms=60_000.0) as service:
            service.submit(np.zeros((1, 8), dtype=np.float32))
            time.sleep(0.05)  # the thread is now in its 60 s wait
            t0 = time.monotonic()
            late = service.submit(np.zeros((1, 8), dtype=np.float32),
                                  deadline=0.05)
            with pytest.raises(DeadlineExceededError) as exc_info:
                late.result(timeout=10)
            assert time.monotonic() - t0 < 5.0
            assert exc_info.value.stage == "queued"
            assert service.flush(timeout=30)

    def test_second_lane_does_not_delay_the_first(self):
        dispatched = []

        class SpyBackend:
            def sort(self, batch, *, inplace=False):
                dispatched.append((batch.shape[1], time.monotonic()))
                from repro.core import GpuArraySort

                return GpuArraySort(SortConfig()).sort(batch, inplace=inplace)

        with SortService(backend=SpyBackend(), batch_target_rows=1024,
                         linger_ms=600.0) as service:
            t0 = time.monotonic()
            first = service.submit(np.zeros((1, 8), dtype=np.float32))
            time.sleep(0.3)
            second = service.submit(np.zeros((1, 16), dtype=np.float32))
            first.result(timeout=10)
            second.result(timeout=10)
        assert [row_len for row_len, _ in dispatched] == [8, 16]
        # The first lane goes at its own linger expiry (0.6 s), not the
        # second lane's (0.9 s).
        assert dispatched[0][1] - t0 < 0.85
