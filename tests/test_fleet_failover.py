"""Failover tests: dead workers are drained, accepted work is never
dropped.

Requests linger in each worker's parent-side service; a worker sees
whole batches only.  The two-region slab invariant (workers never write
the input half) is what makes these tests pass byte-identically:
whatever instant a worker dies — even mid-result-memcpy — the parent
re-stages its batch from a pristine input copy.

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
import types

import numpy as np
import pytest

from repro.fleet import SortFleet
from repro.service import RejectedError, ServiceClosedError

pytestmark = [pytest.mark.fleet, pytest.mark.faultinject]

RNG = np.random.default_rng(99)


def lingering_fleet(**kwargs):
    """A fleet whose parent-side services hold requests long enough for
    the test to kill their worker with work demonstrably outstanding."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("linger_ms", 400.0)
    kwargs.setdefault("batch_target_rows", 100_000)
    kwargs.setdefault("heartbeat_s", 0.02)
    kwargs.setdefault("liveness_s", 0.5)
    kwargs.setdefault("start_timeout_s", 60.0)
    return SortFleet(**kwargs)


def fleet_slabs(fleet, worker_id=None):
    """Names of every slab the fleet holds for ``worker_id`` (default:
    all workers): pooled, staged, in flight, or held for a service's
    demux."""
    def mine(owner):
        return worker_id is None or owner == worker_id

    with fleet._lock:
        batches = list(fleet._held.values())
        batches += [batch for batch, _ in fleet._staged.values()]
        names = {batch.slab.name for batch in batches if mine(batch.worker_id)}
        names |= {
            handle.inflight.name for handle in fleet._handles.values()
            if handle.inflight is not None and mine(handle.worker_id)
        }
        for owner, pool in fleet._free_slabs.items():
            if pool is not None and mine(owner):
                names |= {slab.name for free in pool.values() for slab in free}
        return names


def batch_in_flight(fleet):
    """``(worker_id, slab name)`` of a batch a worker is sorting."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        with fleet._lock:
            busy = [
                (handle.worker_id, handle.inflight.name)
                for handle in fleet._handles.values()
                if handle.inflight is not None
            ]
        if busy:
            return busy[0]
        time.sleep(0.005)
    raise AssertionError("no batch was ever in flight")


class SlowSorter:
    """A worker backend that holds each batch for ``delay_s`` before
    sorting it, so a test can kill the worker mid-batch."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def sort(self, batch, *, inplace=False):
        time.sleep(self.delay_s)
        return types.SimpleNamespace(batch=np.sort(batch, axis=1))


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
            # whose service's long linger keeps them all outstanding.
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
@linux_shm
class TestBatchInFlight:
    @pytest.mark.parametrize("workers", [2, 1])
    def test_sigkill_mid_batch_with_more_queued(self, workers):
        """One batch is being sorted on the victim and more requests
        wait in its parent-side service: all of them complete, on the
        survivor, or in the parent when none is left."""
        first = [
            RNG.uniform(0, 1, size=(4, 32)).astype(np.float32)
            for _ in range(3)
        ]
        queued = [
            RNG.uniform(0, 1, size=(4, 32)).astype(np.float32)
            for _ in range(5)
        ]
        with lingering_fleet(workers=workers, linger_ms=20.0,
                             backend=SlowSorter(1.0)) as fl:
            futures = [fl.submit(b) for b in first]
            victim, slab = batch_in_flight(fl)
            futures += [fl.submit(b) for b in queued]
            assert fl._router.snapshot()[victim][2] == len(futures)
            owned = fleet_slabs(fl, victim)
            assert slab in owned and all(shm_exists(n) for n in owned)
            fl.kill_worker(victim)
            for batch, future in zip(first + queued, futures):
                np.testing.assert_array_equal(
                    future.result(timeout=60), np.sort(batch, axis=1)
                )
            assert fl.flush(timeout=60)
            stats = fl.stats()
            assert stats.failovers == 1
            assert stats.frontend.completed == len(futures)
            assert stats.frontend.failed == 0
            assert stats.slabs_retired == len(owned)
            assert not any(shm_exists(name) for name in owned)
            if workers == 2:
                assert stats.parent_fallbacks == 0
                assert stats.redispatched == len(futures)
                assert stats.workers[1 - victim].service["completed"] == 0
            else:
                assert stats.parent_fallbacks == len(futures)
                assert stats.redispatched == 0


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
            # Same lane, larger class: the lane's worker keeps this
            # slab, held for its service, while the small requests linger.
            warm = RNG.uniform(0, 1, size=(64, 32)).astype(np.float32)
            warm_future = fl.submit(warm)
            assert fl.flush(timeout=60)
            warm_future.result(timeout=60)
            futures = [fl.submit(b) for b in batches]
            victim = victim_of(fl)
            retired = fleet_slabs(fl, victim)
            assert len(retired) == 1
            assert all(shm_exists(name) for name in retired)
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
            seen = fleet_slabs(fl)
            for batch, future in zip(batches, later):
                np.testing.assert_array_equal(
                    future.result(timeout=60), np.sort(batch, axis=1)
                )
            seen |= fleet_slabs(fl)
            assert seen and not seen & retired
            stats = fl.stats()
            assert stats.frontend.failed == 0
            assert stats.failovers == 1
            assert stats.redispatched == len(batches)
            assert stats.parent_fallbacks == 0

    @pytest.mark.parametrize("drain", [True, False])
    def test_close_unlinks_every_slab(self, drain):
        # Undrained, the requests must still be lingering at close().
        fl = lingering_fleet(workers=2, linger_ms=400.0 if drain else 10_000.0)
        batches = [
            RNG.uniform(0, 1, size=(rows, 32)).astype(np.float32)
            for rows in (2, 4, 64, 300)
        ]
        # One flushed round fills the pools, then the same requests
        # linger in the parent-side services.
        for batch in batches:
            fl.submit(batch)
        assert fl.flush(timeout=60)
        futures = [fl.submit(b) for b in batches]
        victim_of(fl)
        names = fleet_slabs(fl)
        assert names
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
        created — pooled and held for a service alike."""
        child = textwrap.dedent("""
            import json, os, signal
            import numpy as np
            from repro.fleet import SortFleet
            fl = SortFleet(workers=1, linger_ms=300.0,
                           batch_target_rows=100_000, start_timeout_s=60.0)
            fl.submit(np.ones((64, 32))).result(timeout=60)
            fl.submit(np.ones((2, 32))).result(timeout=60)
            fl.submit(np.ones((2, 32)))
            with fl._lock:
                names = [b.slab.name for b in fl._held.values()]
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
