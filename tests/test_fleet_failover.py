"""Failover tests: dead workers are drained, accepted work is never
dropped.

The two-region slab invariant (workers never write the input half) is
what makes these tests pass byte-identically: whatever instant a worker
dies — even mid-result-memcpy — the parent re-dispatches from a
pristine input copy.

Three death modes are covered: hard process death (SIGKILL), silent
stall (SIGSTOP past the liveness deadline), and total fleet death
(parent fallback through the resilience layer).  The slab-lifecycle
tests check the pools around them: a dead worker's slabs are retired
(unlinked, never handed out again) and ``close()`` leaves no slab
behind, drained or not.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.fleet import SortFleet
from repro.service import RejectedError, ServiceClosedError

pytestmark = [pytest.mark.fleet, pytest.mark.faultinject]

RNG = np.random.default_rng(99)


def lingering_fleet(**kwargs):
    """A fleet whose workers hold requests in their batcher long enough
    for the test to kill a worker with work demonstrably in flight."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("linger_ms", 400.0)
    kwargs.setdefault("batch_target_rows", 100_000)
    kwargs.setdefault("heartbeat_s", 0.02)
    kwargs.setdefault("liveness_s", 0.5)
    kwargs.setdefault("start_timeout_s", 60.0)
    return SortFleet(**kwargs)


def inflight_slabs(fleet, worker_id=None):
    """Names of the slabs of requests currently in flight."""
    with fleet._lock:
        return {
            record.shm.name for record in fleet._pending.values()
            if worker_id is None or record.worker_id == worker_id
        }


def pooled_slabs(fleet):
    """Names of the free slabs in every worker's pool."""
    with fleet._lock:
        return {
            slab.name for pool in fleet._free_slabs.values()
            for free in pool.values() for slab in free
        }


def shm_exists(name):
    return os.path.exists(os.path.join("/dev/shm", name))


def pid_running(pid):
    """True while ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # The state follows the parenthesised command name.
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False


linux_shm = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not os.path.isdir("/dev/shm"),
    reason="slab names are checked under /dev/shm",
)


def victim_of(fleet, lane_rows=0):
    """The worker currently holding outstanding requests."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        loaded = [
            worker_id
            for worker_id, (alive, rows, reqs) in
            fleet._router.snapshot().items()
            if alive and reqs > 0
        ]
        if loaded:
            return loaded[0]
        time.sleep(0.01)
    raise AssertionError("no worker ever showed outstanding requests")


@pytest.mark.timeout(90)
class TestWorkerDeath:
    def test_sigkill_drains_all_inflight_to_survivor(self):
        batches = [
            RNG.integers(0, 10_000, size=(4, 32)).astype(np.float32)
            for _ in range(8)
        ]
        with lingering_fleet(workers=2) as fl:
            # One lane -> affinity parks every request on one worker,
            # whose long linger keeps them all in flight.
            futures = [fl.submit(b) for b in batches]
            victim = victim_of(fl)
            assert fl._router.snapshot()[victim][2] == len(batches)
            fl.kill_worker(victim)
            # Every accepted request still completes, byte-identically.
            for batch, future in zip(batches, futures):
                np.testing.assert_array_equal(
                    future.result(timeout=60), np.sort(batch, axis=1)
                )
            stats = fl.stats()
            assert stats.failovers == 1
            assert stats.redispatched == len(batches)
            assert stats.workers_alive == 1
            assert not stats.workers[victim].alive
            assert stats.workers[victim].redispatched == len(batches)
            assert stats.frontend.completed == len(batches)
            assert stats.frontend.failed == 0

    def test_sigstop_stall_trips_liveness_and_drains(self):
        batch = RNG.uniform(0, 1, size=(4, 32)).astype(np.float32)
        with lingering_fleet(workers=2, liveness_s=0.3) as fl:
            # Establish affinity with a quick request, then stall that
            # worker silently: it stays process-alive but stops
            # heartbeating, which must read as death.
            warm = fl.submit(np.zeros((2, 32), dtype=np.float32))
            warm.result(timeout=60)
            victim = fl.stats()
            victim = max(
                victim.workers.values(), key=lambda w: w.completed
            ).worker_id
            pid = fl.stats().workers[victim].pid
            os.kill(pid, signal.SIGSTOP)
            try:
                future = fl.submit(batch)
                np.testing.assert_array_equal(
                    future.result(timeout=60), np.sort(batch, axis=1)
                )
                stats = fl.stats()
                assert stats.failovers == 1
                assert not stats.workers[victim].alive
                assert fl.workers_alive() == [1 - victim]
                assert stats.parent_fallbacks == 0
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass  # liveness already reaped it

    def test_dead_worker_leaves_routing(self):
        with lingering_fleet(workers=2) as fl:
            future = fl.submit(np.zeros((2, 16), dtype=np.float32))
            victim = victim_of(fl)
            fl.kill_worker(victim)
            future.result(timeout=60)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if fl.workers_alive() == [1 - victim]:
                    break
                time.sleep(0.01)
            assert fl.workers_alive() == [1 - victim]


@pytest.mark.timeout(90)
class TestTotalFleetDeath:
    def test_parent_fallback_sorts_when_no_survivors(self):
        batches = [
            RNG.integers(0, 1000, size=(3, 16)).astype(np.float32)
            for _ in range(3)
        ]
        with lingering_fleet(workers=1) as fl:
            futures = [fl.submit(b) for b in batches]
            fl.kill_worker(0)
            for batch, future in zip(batches, futures):
                np.testing.assert_array_equal(
                    future.result(timeout=60), np.sort(batch, axis=1)
                )
            stats = fl.stats()
            assert stats.parent_fallbacks == len(batches)
            assert stats.workers_alive == 0
            assert stats.frontend.completed == len(batches)

    def test_submit_after_total_death_rejects_no_workers(self):
        with lingering_fleet(workers=1) as fl:
            fl.kill_worker(0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not fl.workers_alive():
                    break
                time.sleep(0.01)
            with pytest.raises(RejectedError) as excinfo:
                fl.submit(np.zeros((2, 8), dtype=np.float32))
            assert excinfo.value.reason == "no-workers"
            assert excinfo.value.retry_after > 0


@pytest.mark.timeout(90)
@linux_shm
class TestSlabLifecycle:
    def test_sigkill_retires_inflight_slabs(self):
        batches = [
            RNG.uniform(0, 1, size=(4, 32)).astype(np.float32)
            for _ in range(6)
        ]
        with lingering_fleet(workers=2) as fl:
            # Same lane, larger class: the lane's worker keeps this slab
            # idle in its pool while the small requests linger.
            warm = RNG.uniform(0, 1, size=(64, 32)).astype(np.float32)
            fl.submit(warm).result(timeout=60)
            futures = [fl.submit(b) for b in batches]
            victim = victim_of(fl)
            retired = inflight_slabs(fl, victim)
            assert len(retired) == len(batches)
            with fl._lock:
                idle = {
                    slab.name for free in fl._free_slabs[victim].values()
                    for slab in free
                }
            assert len(idle) == 1
            retired |= idle
            fl.kill_worker(victim)
            for batch, future in zip(batches, futures):
                np.testing.assert_array_equal(
                    future.result(timeout=60), np.sort(batch, axis=1)
                )
            assert fl.stats().slabs_retired == len(retired)
            assert not any(shm_exists(name) for name in retired)
            # Later requests land on the survivor and never receive a
            # retired slab's name.
            later = [fl.submit(b) for b in batches]
            seen = inflight_slabs(fl) | pooled_slabs(fl)
            for batch, future in zip(batches, later):
                np.testing.assert_array_equal(
                    future.result(timeout=60), np.sort(batch, axis=1)
                )
            seen |= pooled_slabs(fl)
            assert seen and not seen & retired
            stats = fl.stats()
            assert stats.frontend.failed == 0
            assert stats.failovers == 1
            assert stats.parent_fallbacks == 0

    @pytest.mark.parametrize("drain", [True, False])
    def test_close_unlinks_every_slab(self, drain):
        # Undrained, the requests must still be lingering at close().
        fl = lingering_fleet(workers=2, linger_ms=400.0 if drain else 10_000.0)
        batches = [
            RNG.uniform(0, 1, size=(rows, 32)).astype(np.float32)
            for rows in (2, 4, 64, 300)
        ]
        futures = [fl.submit(b) for b in batches]
        victim_of(fl)
        names = inflight_slabs(fl) | pooled_slabs(fl)
        assert len(names) == len(batches)
        assert all(shm_exists(name) for name in names)
        fl.close(drain=drain, timeout=30)
        for batch, future in zip(batches, futures):
            if drain:
                np.testing.assert_array_equal(
                    future.result(timeout=0), np.sort(batch, axis=1)
                )
            else:
                with pytest.raises(ServiceClosedError):
                    future.result(timeout=0)
        assert not any(shm_exists(name) for name in names)
        assert fl.stats().slab_pool_bytes == 0

    def test_resource_tracker_unlinks_slabs_after_parent_sigkill(
        self, tmp_path
    ):
        """A SIGKILLed parent runs no close(): its orphaned workers end
        themselves, and then the resource tracker unlinks every slab it
        created — pooled and in flight alike."""
        child = textwrap.dedent("""
            import json, os, signal
            import numpy as np
            from repro.fleet import SortFleet
            fl = SortFleet(workers=1, linger_ms=300.0,
                           batch_target_rows=100_000, start_timeout_s=60.0)
            fl.submit(np.ones((64, 32))).result(timeout=60)
            fl.submit(np.ones((2, 32)))
            with fl._lock:
                names = [r.shm.name for r in fl._pending.values()]
                names += [s.name for pool in fl._free_slabs.values()
                          for free in pool.values() for s in free]
            pids = [w.pid for w in fl.stats().workers.values()]
            print(json.dumps({"names": names, "pids": pids}), flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        # Files, not pipes: the orphaned workers and the tracker inherit
        # the child's stdout/stderr and would hold a pipe open.
        out, err = tmp_path / "stdout", tmp_path / "stderr"
        with open(out, "w") as stdout, open(err, "w") as stderr:
            proc = subprocess.run(
                [sys.executable, "-c", child], env=env, stdout=stdout,
                stderr=stderr, timeout=60,
            )
        assert proc.returncode == -signal.SIGKILL, err.read_text()
        report = json.loads(out.read_text().strip().splitlines()[-1])
        assert len(report["names"]) == 2
        assert report["pids"]
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if not any(pid_running(pid) for pid in report["pids"]) and not any(
                shm_exists(name) for name in report["names"]
            ):
                break
            time.sleep(0.05)
        assert not any(pid_running(pid) for pid in report["pids"])
        assert not any(shm_exists(name) for name in report["names"])
