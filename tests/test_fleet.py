"""End-to-end tests for :class:`SortFleet`: the multi-process serving
tier keeps the in-process service's contract.

Real worker processes, tiny workloads.  One module-scoped fleet serves
the correctness and stats tests (fleet startup forks real processes, so
it is paid once); lifecycle tests that close or poison a fleet build
their own.
"""

import concurrent.futures
import threading
import time

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

    def test_worker_death_during_startup_raises_at_once(self):
        # The worker's service rejects the planner spec, so the process
        # dies before "ready": EOF on its pipe, long before the timeout.
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="died during startup"):
            SortFleet(workers=2, planner="no-such-engine",
                      start_timeout_s=60.0)
        assert time.monotonic() - started < 30.0


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
        # Each worker's service runs in the parent, so its stats are
        # exact as soon as flush() returns: no heartbeat to wait for.
        with small_fleet(workers=1) as fl:
            for _ in range(3):
                fl.submit(np.zeros((2, 8), dtype=np.float32))
            assert fl.flush(timeout=30)
            state = fl.stats().workers[0]
            assert state.service["completed"] == 3
            assert state.service["submitted"] == 3
            assert state.completed == 3
            assert state.heartbeat_age_s is not None

    def test_one_message_per_batch(self, monkeypatch):
        # Count what crosses the parent's ends of the pipes once the
        # workers are ready: one descriptor out and one reply in per
        # batch, and no heartbeat traffic at all.
        from multiprocessing.connection import Connection

        sent, received = [], []
        send, recv = Connection.send, Connection.recv

        def counting_send(self, obj):
            sent.append(obj[0])
            send(self, obj)

        def counting_recv(self):
            msg = recv(self)
            received.append(msg[0])
            return msg

        monkeypatch.setattr(Connection, "send", counting_send)
        monkeypatch.setattr(Connection, "recv", counting_recv)
        with small_fleet(workers=1, linger_ms=50.0) as fl:
            del received[:]  # the worker's "ready"
            rows = [RNG.uniform(0, 1, size=32) for _ in range(64)]
            futures = [fl.submit(row) for row in rows]
            for row, future in zip(rows, futures):
                np.testing.assert_array_equal(
                    future.result(timeout=30), np.sort(row)
                )
            assert fl.flush(timeout=30)
            time.sleep(5 * fl.heartbeat_s)  # heartbeats would show by now
            batches = fl.stats().workers[0].service["batches"]
            assert sent == ["sort"] * batches
            assert received == ["done"] * batches
            assert batches <= 8

    def test_frontend_is_the_services_plus_router_rejections(self):
        with small_fleet(workers=2, max_worker_queue_rows=8,
                         retry_jitter=0.0) as fl:
            futures = [
                fl.submit(RNG.uniform(0, 1, size=(2, 16)), tenant=tenant)
                for tenant in ("alpha", "beta", "alpha")
            ]
            concurrent.futures.wait(futures, timeout=30)
            assert fl.flush(timeout=30)
            # Park both workers' router view at the bound: the next
            # submits are the router's to reject.
            for worker_id in fl.worker_ids():
                fl._router.route(("park", worker_id), 8)
            rejected = 0
            for _ in range(3):
                with pytest.raises(RejectedError):
                    fl.submit(np.zeros((4, 16)), tenant="beta")
                rejected += 1
            stats = fl.stats()
            services = [w.service for w in stats.workers.values()]
            for name in ("submitted", "completed", "failed", "shed"):
                assert getattr(stats.frontend, name) == sum(
                    service[name] for service in services
                ), name
            assert stats.frontend.submitted == 3
            assert stats.frontend.completed == 3
            assert stats.frontend.rejected == rejected
            assert sum(service["rejected"] for service in services) == 0
            assert stats.frontend.tenants["alpha"].completed == 2
            assert stats.frontend.tenants["beta"].completed == 1
            assert stats.frontend.tenants["beta"].rejected == rejected
            assert stats.frontend.latency_ms["max"] > 0
            for worker_id in fl.worker_ids():
                fl._router.record_done(worker_id, 8)


class TestThreads:
    def test_one_service_thread_per_worker_and_a_watchdog(self):
        # The parent runs one thread per worker on the batch path (that
        # worker's service thread) plus one watchdog: no collector.
        before = set(threading.enumerate())
        with small_fleet(workers=2) as fl:
            fl.submit(np.zeros((2, 8), dtype=np.float32)).result(timeout=30)
            names = sorted(
                thread.name for thread in threading.enumerate()
                if thread not in before
            )
        assert names == [
            "repro-fleet-watchdog", "repro-sort-service", "repro-sort-service",
        ]


class TestSlabPool:
    def test_sequential_requests_reuse_slabs(self):
        with small_fleet(workers=2) as fl:
            for _ in range(200):
                batch = RNG.uniform(0, 1, size=(4, 1000))
                result = fl.submit(batch).result(timeout=30)
                np.testing.assert_array_equal(result, np.sort(batch, axis=1))
            stats = fl.stats()
            # One request in flight at a time: at most one slab per
            # worker, each of the (4, 1000) float64 request's 64 KiB class.
            assert 1 <= stats.slabs_created <= 2
            assert stats.slabs_retired == 0
            assert stats.slab_pool_bytes == stats.slabs_created * (1 << 16)
            assert stats.as_dict()["slabs_created"] == stats.slabs_created
        assert fl.stats().slab_pool_bytes == 0

    def test_pool_converges_across_byte_classes(self):
        # Five byte classes, cycled largest first on one worker: a batch
        # takes the smallest free slab that fits, so the pool settles at
        # the slab in flight, the one held for demux and a spare instead
        # of one slab per class.
        sizes = [256, 128, 64, 32, 16]  # rows of 1000 float64: 5 classes
        with small_fleet(workers=1) as fl:
            for _ in range(4):
                for rows in sizes:
                    batch = RNG.uniform(0, 1, size=(rows, 1000))
                    np.testing.assert_array_equal(
                        fl.submit(batch).result(timeout=30),
                        np.sort(batch, axis=1),
                    )
            stats = fl.stats()
        assert stats.slabs_created <= 3
        assert stats.slabs_retired == 0
        assert fl.stats().slab_pool_bytes == 0


class TestWorkerErrors:
    def test_resilient_quarantine_is_per_request(self):
        from repro.core.config import SortConfig
        from repro.service import QuarantinedError

        good = RNG.uniform(0, 1, size=(2, 16)).astype(np.float32)
        poisoned = good.copy()
        poisoned[1, 3] = np.nan
        with small_fleet(workers=1, backend="resilient", linger_ms=50.0,
                         config=SortConfig(nan_policy="raise")) as fl:
            f_good = fl.submit(good)
            f_bad = fl.submit(poisoned)
            np.testing.assert_array_equal(
                f_good.result(timeout=30), np.sort(good, axis=1)
            )
            with pytest.raises(QuarantinedError) as excinfo:
                f_bad.result(timeout=30)
            assert fl.flush(timeout=30)
            stats = fl.stats()
        # Row indices are request-relative, not batch-relative.
        assert excinfo.value.rows == (1,)
        assert "nan" in excinfo.value.reasons[1]
        assert stats.frontend.failed == 1
        assert stats.frontend.tenants["default"].quarantined_rows == 1

    def test_failed_batch_fails_only_the_culprit(self):
        from repro.core.config import SortConfig

        good = RNG.uniform(0, 1, size=(2, 16))
        poisoned = good.copy()
        poisoned[0, 0] = np.nan
        with small_fleet(workers=1, linger_ms=50.0,
                         config=SortConfig(nan_policy="raise")) as fl:
            f_good = fl.submit(good)
            f_bad = fl.submit(poisoned)
            np.testing.assert_array_equal(
                f_good.result(timeout=30), np.sort(good, axis=1)
            )
            with pytest.raises(RuntimeError, match="(?i)nan"):
                f_bad.result(timeout=30)


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
