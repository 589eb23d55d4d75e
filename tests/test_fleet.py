"""End-to-end tests for :class:`SortFleet`: the multi-process serving
tier keeps the in-process service's contract.

Real worker processes, tiny workloads.  One module-scoped fleet serves
the correctness and stats tests (fleet startup forks real processes, so
it is paid once); lifecycle tests that close or poison a fleet build
their own.
"""

import concurrent.futures
import threading

import numpy as np
import pytest

from repro.fleet import DEFAULT_WORKERS, SortFleet
from repro.service import RejectedError, ServiceClosedError

pytestmark = [pytest.mark.fleet, pytest.mark.service]

RNG = np.random.default_rng(1234)


def small_fleet(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("linger_ms", 1.0)
    kwargs.setdefault("heartbeat_s", 0.02)
    kwargs.setdefault("liveness_s", 2.0)
    kwargs.setdefault("start_timeout_s", 60.0)
    return SortFleet(**kwargs)


@pytest.fixture(scope="module")
def fleet():
    fl = small_fleet()
    yield fl
    fl.close(drain=False, timeout=10.0)


class TestSubmitContract:
    def test_sorts_a_stack(self, fleet):
        batch = RNG.integers(0, 1000, size=(20, 32)).astype(np.float32)
        result = fleet.submit(batch).result(timeout=30)
        np.testing.assert_array_equal(result, np.sort(batch, axis=1))

    def test_single_array_round_trip(self, fleet):
        arr = RNG.uniform(-5, 5, size=64).astype(np.float64)
        result = fleet.submit(arr).result(timeout=30)
        assert result.shape == (64,)
        np.testing.assert_array_equal(result, np.sort(arr))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.float32,
                                       np.float64])
    def test_dtypes(self, fleet, dtype):
        batch = RNG.integers(0, 255, size=(6, 16)).astype(dtype)
        result = fleet.submit(batch).result(timeout=30)
        assert result.dtype == batch.dtype
        np.testing.assert_array_equal(result, np.sort(batch, axis=1))

    def test_input_not_mutated(self, fleet):
        batch = RNG.uniform(0, 1, size=(8, 24)).astype(np.float32)
        before = batch.copy()
        fleet.submit(batch).result(timeout=30)
        np.testing.assert_array_equal(batch, before)

    def test_many_concurrent_submitters(self, fleet):
        # Requests from several threads, mixed lanes, all byte-identical
        # to np.sort regardless of which worker served them.
        batches = [
            RNG.integers(0, 10_000, size=(4, 16 * (1 + i % 3)))
            .astype(np.float32)
            for i in range(24)
        ]
        futures = [None] * len(batches)

        def push(i):
            futures[i] = fleet.submit(batches[i])

        threads = [threading.Thread(target=push, args=(i,))
                   for i in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for batch, future in zip(batches, futures):
            np.testing.assert_array_equal(
                future.result(timeout=30), np.sort(batch, axis=1)
            )

    def test_validation_matches_service(self, fleet):
        with pytest.raises(ValueError):
            fleet.submit(np.zeros((2, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            fleet.submit(np.zeros((0, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            fleet.submit(np.array(["a", "b"]))
        with pytest.raises(ValueError):
            fleet.submit(np.zeros((1, 4), dtype=np.float32), deadline=-1.0)
        with pytest.raises(ValueError):
            fleet.submit(np.zeros((1, 4), dtype=np.float32), tenant="")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SortFleet(workers=0)
        with pytest.raises(ValueError):
            SortFleet(heartbeat_s=0.05, liveness_s=0.01)
        with pytest.raises(ValueError):
            SortFleet(default_deadline_ms=0)


class TestBackpressure:
    def test_saturated_fleet_rejects_with_hint(self):
        # Bound of 8 rows/worker and a parked fleet (no requests ever
        # dispatched because we fill the router synchronously): the
        # third 8-row request finds no headroom.
        with small_fleet(workers=1, max_worker_queue_rows=8,
                         retry_jitter=0.0) as fl:
            # Fill the router's view without letting the worker drain:
            # route directly (the worker never sees these rows).
            fl._router.route((16, "<f4"), 8)
            with pytest.raises(RejectedError) as excinfo:
                fl.submit(np.zeros((8, 16), dtype=np.float32))
            err = excinfo.value
            assert err.reason == "queue-full"
            assert err.retry_after > 0
            fl._router.record_done(0, 8)

    def test_rejection_hint_deterministic_with_seed(self):
        hints = []
        for _ in range(2):
            with small_fleet(workers=1, max_worker_queue_rows=8,
                             retry_jitter=0.25, retry_jitter_seed=7) as fl:
                fl._router.route((16, "<f4"), 8)
                with pytest.raises(RejectedError) as excinfo:
                    fl.submit(np.zeros((8, 16), dtype=np.float32))
                hints.append(excinfo.value.retry_after)
                fl._router.record_done(0, 8)
        assert hints[0] == hints[1]


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_after(self):
        fl = small_fleet(workers=1)
        batch = np.zeros((2, 8), dtype=np.float32)
        fl.submit(batch).result(timeout=30)
        fl.close()
        fl.close()  # second close: no-op
        assert fl.closed
        with pytest.raises(ServiceClosedError):
            fl.submit(batch)

    def test_context_manager_drains(self):
        batch = RNG.uniform(0, 1, size=(4, 16)).astype(np.float32)
        with small_fleet(workers=1) as fl:
            future = fl.submit(batch)
        np.testing.assert_array_equal(
            future.result(timeout=1), np.sort(batch, axis=1)
        )

    def test_close_without_drain_fails_inflight_typed(self):
        fl = small_fleet(workers=1, linger_ms=200.0,
                         batch_target_rows=10_000)
        future = fl.submit(np.zeros((2, 8), dtype=np.float32))
        fl.close(drain=False)
        if not future.done() or future.exception() is not None:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=1)

    def test_flush_empty_fleet_returns_true(self, fleet):
        assert fleet.flush(timeout=5.0)


class TestStats:
    def test_counters_and_worker_views(self):
        with small_fleet(workers=2) as fl:
            batches = [
                RNG.integers(0, 100, size=(3, 16)).astype(np.float32)
                for _ in range(6)
            ]
            done = [fl.submit(b) for b in batches]
            concurrent.futures.wait(done, timeout=30)
            fl.flush(timeout=30)
            stats = fl.stats()
            assert stats.workers_total == 2
            assert stats.workers_alive == 2
            assert stats.frontend.submitted == 6
            assert stats.frontend.completed == 6
            assert stats.frontend.failed == 0
            assert sorted(stats.workers) == [0, 1]
            assert sum(w.dispatched for w in stats.workers.values()) == 6
            assert sum(w.completed for w in stats.workers.values()) == 6
            for state in stats.workers.values():
                assert state.pid is not None and state.pid > 0
                assert state.alive
            payload = stats.as_dict()
            assert payload["workers_total"] == 2
            assert set(payload["workers"]) == {"0", "1"}

    def test_tenant_attribution(self):
        with small_fleet(workers=1) as fl:
            fl.submit(np.zeros((2, 8), dtype=np.float32),
                      tenant="alpha").result(timeout=30)
            fl.submit(np.zeros((2, 8), dtype=np.float32),
                      tenant="beta").result(timeout=30)
            fl.flush(timeout=30)
            tenants = fl.stats().frontend.tenants
            assert tenants["alpha"].completed == 1
            assert tenants["beta"].completed == 1

    def test_worker_heartbeat_stats_flow_up(self):
        import time

        with small_fleet(workers=1, heartbeat_s=0.02) as fl:
            fl.submit(np.zeros((2, 8), dtype=np.float32)).result(timeout=30)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                state = fl.stats().workers[0]
                if state.service.get("completed", 0) >= 1:
                    break
                time.sleep(0.02)
            assert state.service.get("completed", 0) >= 1
            assert state.heartbeat_age_s is not None


class TestDefaults:
    def test_default_worker_count(self):
        assert DEFAULT_WORKERS == 2

    def test_auto_planner_writes_no_file(self, tmp_path, monkeypatch):
        from repro.planner.calibrate import CACHE_ENV

        path = tmp_path / "planner.json"
        monkeypatch.setenv(CACHE_ENV, str(path))
        fl = small_fleet(workers=1, planner="auto")
        try:
            batch = RNG.uniform(0, 1, size=(8, 32))
            result = fl.submit(batch).result(timeout=30)
            np.testing.assert_array_equal(result, np.sort(batch, axis=1))
        finally:
            fl.close(timeout=10.0)
        assert not path.exists()
