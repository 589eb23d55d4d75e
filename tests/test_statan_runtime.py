"""Checked-build sanitizer tests: each detector fires on a seeded bug.

The acceptance bar for the runtime sanitizer is demonstrative, not
abstract: a seeded data race, a seeded lock-order inversion, a stale
arena view read, and a write to the fleet's read-only slab half must
each be *caught*, with reports naming both sides of the conflict.  The
flip side is also asserted: with ``REPRO_SANITIZE`` unset every hook is
an identity/no-op and the product classes are structurally untouched.
"""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest

from repro.statan import runtime as rt

# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture
def sanitized():
    """Sanitizer on, bookkeeping clean, restored afterwards."""
    was_enabled = rt.enabled()
    rt.enable()
    rt.reset()
    rt.set_raise_on_violation(True)
    yield
    rt.reset()
    rt.set_raise_on_violation(True)
    if not was_enabled:
        rt.disable()


@pytest.fixture
def unsanitized():
    """Sanitizer off (the default production state), restored afterwards."""
    was_enabled = rt.enabled()
    rt.disable()
    yield
    if was_enabled:
        rt.enable()


# A guarded class instrumented unconditionally (``force=True``) so the
# fixture works whether or not the module was imported under
# REPRO_SANITIZE=1.  Instances must be built while the sanitizer is ON
# (so make_lock returns an instrumented lock).
@rt.sanitize_guarded(force=True)
class _Counter:
    def __init__(self):
        self._lock = rt.make_lock("_Counter._lock")
        self._n = 0  # guarded-by: _lock

    def bump(self):
        with self._lock:
            self._n += 1

    def bump_racy(self):
        # The seeded bug: a write to a guarded field with no lock held.
        self._n += 1

    def read_locked(self):
        with self._lock:
            return self._n


# ---------------------------------------------------------------------------
# detector 1: lockset / guarded-by (the seeded race)


class TestGuardedAccess:
    def test_locked_accesses_are_clean(self, sanitized):
        counter = _Counter()
        counter.bump()
        assert counter.read_locked() == 1
        assert rt.violations() == []

    def test_seeded_race_detected_with_both_stacks(self, sanitized):
        counter = _Counter()
        # A legal access from another thread seeds the "other side" of
        # the conflict report.
        writer = threading.Thread(target=counter.bump, name="legal-writer")
        writer.start()
        writer.join()
        with pytest.raises(rt.GuardedAccessError) as exc_info:
            counter.bump_racy()
        report = exc_info.value.report
        assert report["check"] == "guarded-access"
        assert report["class"] == "_Counter"
        assert report["attr"] == "_n"
        assert "bump_racy" in report["stack"]
        assert "bump" in report["other_thread_stack"]
        assert [type(v) for v in rt.violations()] == [rt.GuardedAccessError]

    def test_external_reads_are_exempt(self, sanitized):
        # The static checker only examines ``self.X`` inside the class;
        # the runtime mirrors that: an outside reader is not a violation.
        counter = _Counter()
        counter.bump()
        assert counter._n == 1
        assert rt.violations() == []

    def test_init_is_exempt(self, sanitized):
        # Construction happens-before publication: ``self._n = 0`` in
        # __init__ runs without the lock and must not fire.
        counter = _Counter()
        assert rt.violations() == []
        del counter

    def test_sanitized_subclass_init_is_exempt_until_it_returns(self, sanitized):
        # A sanitized subclass of a sanitized class: the base __init__
        # returning must not publish the object while the subclass's
        # __init__ is still filling in its own guarded fields.
        @rt.sanitize_guarded(force=True)
        class Tally(_Counter):
            def __init__(self):
                super().__init__()
                self._seen = {}  # guarded-by: _lock

            def see_racy(self, key):
                self._seen[key] = True

        tally = Tally()
        assert rt.violations() == []
        with pytest.raises(rt.GuardedAccessError):
            tally.see_racy("k")
        with pytest.raises(rt.GuardedAccessError):
            tally.bump_racy()  # the base's fields stay guarded

    def test_record_only_mode_collects_instead_of_raising(self, sanitized):
        rt.set_raise_on_violation(False)
        counter = _Counter()
        counter.bump_racy()
        counter.bump_racy()
        kinds = {v.report["check"] for v in rt.violations()}
        assert kinds == {"guarded-access"}
        # ``self._n += 1`` is a read AND a write: two violations per call.
        modes = [v.report["mode"] for v in rt.violations()]
        assert modes == ["read", "write", "read", "write"]
        rt.reset()
        assert rt.violations() == []

    def test_condition_wrapping_sanitized_lock_counts_as_held(self, sanitized):
        # The service idiom: a Condition built over the instrumented
        # lock.  Acquiring the condition IS acquiring the lock.
        @rt.sanitize_guarded(force=True)
        class Waiter:
            def __init__(self):
                self._lock = rt.make_lock("Waiter._lock")
                self._wakeup = threading.Condition(self._lock)
                self._state = 0  # guarded-by: _lock

            def poke(self):
                with self._wakeup:
                    self._state += 1
                    self._wakeup.notify_all()
                    return self._state

        waiter = Waiter()
        assert waiter.poke() == 1
        assert rt.violations() == []

    def test_any_of_several_annotated_locks_suffices(self, sanitized):
        @rt.sanitize_guarded(force=True)
        class TwoDoors:
            def __init__(self):
                self._a = rt.make_lock("TwoDoors._a")
                self._b = rt.make_lock("TwoDoors._b")
                self._n = 0  # guarded-by: _a, _b

            def via_a(self):
                with self._a:
                    self._n += 1

            def via_b(self):
                with self._b:
                    self._n += 1

        doors = TwoDoors()
        doors.via_a()
        doors.via_b()
        assert rt.violations() == []


# ---------------------------------------------------------------------------
# detector 2: lock order (the seeded inversion)


class TestLockOrder:
    def test_consistent_order_records_edges_without_violation(self, sanitized):
        a = rt.make_lock("Consistent.A")
        b = rt.make_lock("Consistent.B")
        with a:
            with b:
                pass
        with a:
            with b:
                pass
        edges = rt.lock_order_edges()
        assert ("Consistent.A", "Consistent.B") in edges
        assert "test_statan_runtime" in edges[("Consistent.A", "Consistent.B")]
        assert rt.violations() == []

    def test_seeded_inversion_detected(self, sanitized):
        a = rt.make_lock("Inverted.A")
        b = rt.make_lock("Inverted.B")
        with a:
            with b:
                pass
        with pytest.raises(rt.LockOrderError) as exc_info:
            b.acquire()
            try:
                a.acquire()
            finally:
                b.release()
        report = exc_info.value.report
        assert report["check"] == "lock-order"
        assert report["edge"] == "Inverted.B->Inverted.A"
        assert "Inverted.A" in report["cycle"] and "Inverted.B" in report["cycle"]
        # Both first-seen stacks ride along in the report.
        assert any(stack for stack in report["stacks"].values())

    def test_three_lock_cycle_detected(self, sanitized):
        a = rt.make_lock("Ring.A")
        b = rt.make_lock("Ring.B")
        c = rt.make_lock("Ring.C")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(rt.LockOrderError):
            with c:
                with a:
                    pass

    def test_gc_of_arena_inside_sanitizer_bookkeeping_does_not_deadlock(
        self, sanitized
    ):
        # The GC can run on any thread at any allocation, including one
        # that holds an instrumented lock and then the sanitizer's own
        # meta lock.  Collecting an arena there must not take the
        # arena's instrumented lock (which would record a lock-order
        # edge under the meta lock the thread already holds).
        import gc

        from repro.core.workspace import ScratchArena

        gc.collect()  # start from no pending garbage
        outer = rt.make_lock("_Outer._lock")
        done = threading.Event()

        def collect_while_holding_meta_lock():
            arena = ScratchArena()
            arena.get("work", (4, 4), np.float32)
            arena.cycle = arena  # only the cyclic GC can free it
            with outer, rt._STATE.meta_lock:
                del arena
                gc.collect()
            done.set()

        thread = threading.Thread(
            target=collect_while_holding_meta_lock, daemon=True
        )
        thread.start()
        finished = done.wait(5.0)
        if not finished:
            # A plain Lock may be released by any thread: unwedge the
            # deadlocked one so fixture teardown (which takes the meta
            # lock) cannot hang the suite.
            rt._STATE.meta_lock.release()
        assert finished, "GC of an arena deadlocked the sanitizer"
        thread.join(5.0)

    def test_rlock_reentry_adds_no_edges(self, sanitized):
        lock = rt.make_rlock("Reentrant.L")
        with lock:
            with lock:
                pass
        assert ("Reentrant.L", "Reentrant.L") not in rt.lock_order_edges()
        assert rt.violations() == []


# ---------------------------------------------------------------------------
# detector 3: view lifetime (the stale-epoch read)


class TestViewLifetime:
    def test_stale_arena_view_read_detected(self, sanitized):
        from repro.core.workspace import ScratchArena

        with ScratchArena() as arena:
            first = arena.get("work", (4, 4), np.float32)
            first[:] = 1.0  # fresh view: fully usable
            second = arena.get("work", (4, 4), np.float32)
            second[:] = 2.0  # the current view stays valid
            with pytest.raises(rt.StaleViewError) as exc_info:
                first[0, 0]
            report = exc_info.value.report
            assert "ScratchArena.get" in report["label"]
            assert report["view_epoch"] < report["region_epoch"]
            assert report["invalidated_at"]  # who reused the storage
            assert report["use_at"]  # who touched the corpse

    def test_distinct_keys_do_not_invalidate_each_other(self, sanitized):
        from repro.core.workspace import ScratchArena

        with ScratchArena() as arena:
            work = arena.get("work", (4, 4), np.float32)
            arena.get("sample", (2, 2), np.float32)
            work[:] = 3.0  # different tag: no epoch bump for "work"
            assert rt.violations() == []

    def test_derived_views_inherit_the_region(self, sanitized):
        from repro.core.workspace import ScratchArena

        with ScratchArena() as arena:
            first = arena.get("work", (4, 4), np.float32)
            row = first[0]
            arena.get("work", (4, 4), np.float32)
            with pytest.raises(rt.StaleViewError):
                row[0]

    def test_stale_view_in_ufunc_detected(self, sanitized):
        from repro.core.workspace import ScratchArena

        with ScratchArena() as arena:
            first = arena.get("work", (4, 4), np.float32)
            first[:] = 1.0
            total = first + 1.0  # fresh: fine, and the result is plain
            assert type(total) is np.ndarray
            arena.get("work", (4, 4), np.float32)
            with pytest.raises(rt.StaleViewError):
                first + 1.0

    def test_copy_of_fresh_view_is_untracked(self, sanitized):
        from repro.core.workspace import ScratchArena

        with ScratchArena() as arena:
            first = arena.get("work", (4, 4), np.float32)
            first[:] = 5.0
            kept = first.copy()
            arena.get("work", (4, 4), np.float32)
            # The copy predates the reuse; it must stay readable.
            assert float(kept[0, 0]) == 5.0

    def test_service_copy_false_view_goes_stale_at_next_dispatch(
        self, sanitized
    ):
        from repro.service import SortService

        rng = np.random.default_rng(7)
        with SortService(batch_target_rows=4, linger_ms=0.5) as svc:
            view = svc.submit(
                rng.uniform(size=(2, 16)), copy=False
            ).result(timeout=10)
            assert view.shape == (2, 16)  # valid until the next dispatch
            svc.submit(rng.uniform(size=(2, 16))).result(timeout=10)
            with pytest.raises(rt.StaleViewError) as exc_info:
                view[0, 0]
            assert "copy=False" in exc_info.value.report["label"]

    def test_readonly_guard_blocks_writes(self, sanitized):
        slab = np.zeros((4, 4), dtype=np.float32)
        guarded = rt.guard_readonly(slab, "fleet-input-slab:test")
        with pytest.raises(ValueError):
            guarded[0, 0] = 1.0
        assert float(slab[0, 0]) == 0.0  # the write never landed


# ---------------------------------------------------------------------------
# fleet serialization: sanitizer reports cross the process boundary


class TestFleetErrorSerialization:
    def test_sanitizer_error_round_trips(self):
        from repro.fleet.worker import describe_error, rebuild_error

        err = rt.GuardedAccessError(
            "SortService._batcher written without _lock",
            report={
                "attr": "_batcher",
                "stack": "worker-side stack",
                "other_thread_stack": "batcher-thread stack",
            },
        )
        kind, message, fields = describe_error(err)
        assert kind == "sanitizer"
        # The tuple must survive the fleet's queue (pickling).
        kind, message, fields = pickle.loads(
            pickle.dumps((kind, message, fields))
        )
        rebuilt = rebuild_error(kind, message, fields)
        assert isinstance(rebuilt, rt.SanitizerError)
        assert rebuilt.report["check"] == "guarded-access"
        assert rebuilt.report["attr"] == "_batcher"
        assert rebuilt.report["stack"] == "worker-side stack"
        assert rebuilt.report["other_thread_stack"] == "batcher-thread stack"
        assert "without _lock" in str(rebuilt)

    def test_lock_order_report_round_trips(self):
        from repro.fleet.worker import describe_error, rebuild_error

        err = rt.LockOrderError(
            "cycle", report={"cycle": "A -> B -> A", "edge": "B->A"}
        )
        rebuilt = rebuild_error(*describe_error(err))
        assert rebuilt.report["check"] == "lock-order"
        assert rebuilt.report["cycle"] == "A -> B -> A"


# ---------------------------------------------------------------------------
# disabled mode: identity hooks, untouched classes, bounded overhead


class TestDisabledMode:
    def test_make_lock_returns_plain_locks(self, unsanitized):
        assert type(rt.make_lock("X.Y")) is type(threading.Lock())
        assert type(rt.make_rlock("X.Y")) is type(threading.RLock())

    def test_track_view_and_guard_readonly_are_identity(self, unsanitized):
        arr = np.zeros(4, dtype=np.float32)
        assert rt.track_view(arr, ("k",), label="x") is arr
        assert rt.guard_readonly(arr, "x") is arr
        assert arr.flags.writeable

    def test_sanitize_guarded_is_identity(self, unsanitized):
        class Plain:
            def __init__(self):
                self._lock = rt.make_lock("Plain._lock")
                self._n = 0  # guarded-by: _lock

        decorated = rt.sanitize_guarded(Plain)
        assert decorated is Plain
        assert not hasattr(Plain, "_san_guarded")
        instance = Plain()
        instance._n = 5  # no descriptor, no check, no violation
        assert rt.violations() == []

    def test_new_epoch_is_a_no_op(self, unsanitized):
        before = dict(rt._STATE.regions)
        rt.new_epoch(("some", "region"))
        assert rt._STATE.regions == before

    def test_disabled_hook_overhead_within_two_percent(self, unsanitized):
        # The hot-path hooks compile down to ``if _sanitizer.enabled():``
        # when REPRO_SANITIZE is unset.  Budget: a sort touches the
        # arena a handful of times per batch; even at a generous 64
        # hook sites per batch the total must stay under 2% of one
        # bench-smoke cell's sort time.  Medians are interleaved so a
        # background frequency shift hits both measurements alike.
        from repro.core import sort_arrays

        rng = np.random.default_rng(0xBEEF)
        batch = rng.random((256, 512), dtype=np.float32)
        sort_arrays(batch)  # warm caches / one-time setup

        hook_calls = 4096
        sort_times, hook_times = [], []
        for _ in range(5):
            t0 = time.perf_counter()
            sort_arrays(batch)
            sort_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for _ in range(hook_calls):
                rt.enabled()
            hook_times.append(time.perf_counter() - t0)
        sort_s = sorted(sort_times)[len(sort_times) // 2]
        per_hook_s = sorted(hook_times)[len(hook_times) // 2] / hook_calls
        assert 64 * per_hook_s <= 0.02 * sort_s, (
            f"disabled-sanitizer hook cost {64 * per_hook_s * 1e6:.2f}us "
            f"exceeds 2% of a {sort_s * 1e3:.2f}ms smoke-cell sort"
        )
