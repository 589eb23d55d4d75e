"""CapacitySorter: array sink, spill sink, degradation, facade wiring."""

import errno
import os
import sys
import threading

import numpy as np
import pytest

from repro.core.array_sort import GpuArraySort
from repro.core.config import SortConfig
from repro.outofcore.capacity import CapacityResult, CapacitySorter
from repro.outofcore import spill
from repro.outofcore.spill import SpillStore, write_batch_file

pytestmark = pytest.mark.capacity

CONFIG = SortConfig(bucket_size=16, sampling_rate=0.2)


def make_batch(rows, n, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.integer):
        return rng.integers(-1000, 1000, size=(rows, n)).astype(dtype)
    return rng.random((rows, n)).astype(dtype)


def commit_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("repro-spill-commit")]


def is_spill_fd(fd, directory):
    """Does ``fd`` refer to the spill file (a chunk's data sync)?"""
    return os.path.samestat(os.fstat(fd),
                            os.stat(directory / spill._SPILL_NAME))


class _OomOnce:
    """Test-seam sorter: raise MemoryError on the first N sort calls."""

    def __init__(self, failures):
        self.failures = failures

    def sort(self, batch):
        if self.failures > 0:
            self.failures -= 1
            raise MemoryError("injected")
        work = np.array(batch, copy=True)
        work.sort(axis=1)
        return CapacityResult(plan=None, stats=None, batch=work)


class TestArraySink:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_byte_identity_across_dtypes(self, dtype):
        batch = make_batch(300, 24, dtype=dtype, seed=11)
        sorter = CapacitySorter("64K", config=CONFIG, max_chunk_rows=37)
        result = sorter.sort(batch)
        expected = np.sort(batch, axis=1)
        np.testing.assert_array_equal(result.batch, expected)
        assert result.stats.chunks_committed == result.plan.num_chunks
        assert result.stats.rows_sorted == 300
        assert result.plan.num_chunks > 1  # budget actually forced chunking
        # Input untouched on the copy path.
        assert not np.array_equal(batch, expected)

    def test_inplace_and_descending(self):
        batch = make_batch(100, 16, seed=12)
        expected_desc = np.sort(batch, axis=1)[:, ::-1]
        sorter = CapacitySorter("1M", config=CONFIG, max_chunk_rows=16)
        result = sorter.sort(batch, inplace=True, descending=True)
        assert result.batch is batch
        np.testing.assert_array_equal(batch, expected_desc)

    def test_empty_batch(self):
        result = CapacitySorter("1M").sort(np.empty((0, 8)))
        assert result.rows == 0
        assert result.stats.chunks_committed == 0

    def test_iter_chunks_and_gather(self):
        batch = make_batch(90, 8, seed=13)
        result = CapacitySorter("1M", config=CONFIG,
                                max_chunk_rows=40).sort(batch)
        starts = [start for start, _ in result.iter_chunks()]
        assert starts == [0, 40, 80]
        np.testing.assert_array_equal(result.gather(),
                                      np.sort(batch, axis=1))

    def test_shrink_ladder_on_injected_oom(self):
        batch = make_batch(64, 8, seed=14)
        oom = _OomOnce(2)  # shared: fails exactly twice across rebuilds
        sorter = CapacitySorter(
            "1M", max_chunk_rows=32,
            sorter_factory=lambda rows: oom,
        )
        result = sorter.sort(batch)
        assert result.stats.shrink_events == 2
        assert result.stats.serial_fallback_chunks == 0
        np.testing.assert_array_equal(result.batch, np.sort(batch, axis=1))

    def test_serial_fallback_when_oom_persists(self):
        batch = make_batch(40, 8, seed=15)
        sorter = CapacitySorter(
            "1M", max_chunk_rows=8,
            sorter_factory=lambda rows: _OomOnce(10**9),
        )
        result = sorter.sort(batch, descending=True)
        assert result.stats.serial_fallback_chunks > 0
        # Shrunk all the way to the one-row floor before giving up.
        assert result.stats.shrink_events == 3
        np.testing.assert_array_equal(
            result.batch, np.sort(batch, axis=1)[:, ::-1]
        )


class TestSpillSink:
    def test_run_array_source(self, tmp_path):
        batch = make_batch(120, 12, seed=20)
        sorter = CapacitySorter("1M", config=CONFIG, max_chunk_rows=32)
        result = sorter.run(batch, spill_dir=tmp_path)
        assert result.store is not None
        assert result.rows == 120
        assert result.stats.chunks_committed == 4
        assert result.stats.chunks_recommitted == 0
        assert result.stats.spill_bytes_written == batch.nbytes
        assert result.store.complete
        np.testing.assert_array_equal(result.gather(),
                                      np.sort(batch, axis=1))
        # The journal ends in the run's complete record.
        frames, _ = spill._replay(tmp_path / spill._JOURNAL_NAME)
        assert frames[-1] == {"kind": "complete"}

    def test_two_syncs_per_committed_chunk(self, tmp_path, monkeypatch):
        batch = make_batch(120, 12, seed=26)
        calls = []

        def counting(real):
            def sync(fd):
                calls.append(fd)
                return real(fd)
            return sync

        monkeypatch.setattr(os, "fsync", counting(os.fsync))
        monkeypatch.setattr(os, "fdatasync", counting(os.fdatasync))
        result = CapacitySorter("1M", config=CONFIG, max_chunk_rows=32).run(
            batch, spill_dir=tmp_path
        )
        assert result.stats.chunks_committed == 4
        # Per chunk: its bytes, then its journal record.  Per run: the
        # journal header, the directory entry, the complete record.
        assert len(calls) == 2 * 4 + 3

    def test_run_batchfile_source(self, tmp_path):
        full = make_batch(200, 10, seed=21)
        batch_file = write_batch_file(
            tmp_path / "in.bin",
            lambda i, start, take: full[start : start + take],
            rows=200, row_len=10, dtype=np.float64, block_rows=64,
        )
        sorter = CapacitySorter("1M", config=CONFIG, max_chunk_rows=50)
        result = sorter.run(batch_file, spill_dir=tmp_path / "spill")
        np.testing.assert_array_equal(result.gather(),
                                      np.sort(full, axis=1))

    def test_resume_of_complete_run_is_noop(self, tmp_path):
        batch = make_batch(60, 8, seed=22)
        sorter = CapacitySorter("1M", config=CONFIG, max_chunk_rows=20)
        first = sorter.run(batch, spill_dir=tmp_path)
        assert first.stats.chunks_committed == 3
        second = CapacitySorter("1M", config=CONFIG, max_chunk_rows=20).run(
            batch, spill_dir=tmp_path, resume=True
        )
        assert second.stats.chunks_committed == 0
        assert second.stats.chunks_resumed == 3
        np.testing.assert_array_equal(second.gather(),
                                      np.sort(batch, axis=1))

    def test_interrupt_and_resume_no_reemission(self, tmp_path):
        batch = make_batch(100, 8, seed=23)

        class Interrupt(RuntimeError):
            pass

        calls = []

        def trip(info):
            calls.append(info["index"])
            if len(calls) == 2:
                raise Interrupt()

        first = CapacitySorter("1M", config=CONFIG, max_chunk_rows=20,
                               progress=trip)
        with pytest.raises(Interrupt):
            first.run(batch, spill_dir=tmp_path)
        assert not commit_threads()
        survivor = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                              resume=True)
        pre_indices = {r.index for r in survivor.committed}
        assert len(pre_indices) >= 1  # some chunks durably committed

        second = CapacitySorter("1M", config=CONFIG, max_chunk_rows=20)
        result = second.run(batch, spill_dir=tmp_path, resume=True)
        assert result.stats.chunks_resumed == len(pre_indices)
        assert result.stats.chunks_recommitted == 0  # zero re-emission
        new_indices = {r.index for r in result.store.committed} - pre_indices
        assert all(i > max(pre_indices) for i in new_indices)
        np.testing.assert_array_equal(result.gather(),
                                      np.sort(batch, axis=1))

    def test_next_chunk_sorts_while_a_data_sync_is_held(self, tmp_path,
                                                        monkeypatch):
        batch = make_batch(120, 12, seed=27)  # 4 chunks of 32 rows
        held = 1  # chunk whose data sync is held
        next_sort = threading.Event()
        sorted_while_held = []
        sorts = []
        data_syncs = []
        real_fdatasync = os.fdatasync

        class Recording(_OomOnce):
            def sort(self, window):
                sorts.append(window.shape[0])
                if len(sorts) == held + 2:
                    next_sort.set()
                return super().sort(window)

        def fdatasync(fd):
            if is_spill_fd(fd, tmp_path):
                data_syncs.append(fd)
                if len(data_syncs) == held + 1:
                    # Released by chunk held+1's sort; the timeout only
                    # ends a run that never overlaps.
                    sorted_while_held.append(next_sort.wait(timeout=10))
            real_fdatasync(fd)

        monkeypatch.setattr(os, "fdatasync", fdatasync)
        sorter = CapacitySorter("1M", max_chunk_rows=32,
                                sorter_factory=lambda rows: Recording(0))
        result = sorter.run(batch, spill_dir=tmp_path)
        assert sorted_while_held == [True]
        assert len(data_syncs) == 4
        assert result.gather().tobytes() == np.sort(batch, axis=1).tobytes()

    def test_progress_follows_durable_commits_under_fast_switching(
            self, tmp_path):
        batch = make_batch(200, 8, seed=29)  # 50 chunks of 4 rows
        reports = []

        def check(info):
            durable = {r.index for r in spill.read_journal(tmp_path)}
            reports.append((info["index"], info["index"] in durable,
                            threading.current_thread() is threading.main_thread()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = CapacitySorter("1M", config=CONFIG, max_chunk_rows=4,
                                    progress=check).run(batch,
                                                        spill_dir=tmp_path)
        finally:
            sys.setswitchinterval(interval)
        assert reports == [(i, True, True) for i in range(50)]
        records = spill.read_journal(tmp_path)
        assert [(r.index, r.start_row) for r in records] == [
            (i, 4 * i) for i in range(50)
        ]
        assert result.gather().tobytes() == np.sort(batch, axis=1).tobytes()

    def test_data_sync_error_surfaces_and_resume_completes(self, tmp_path,
                                                           monkeypatch):
        batch = make_batch(120, 12, seed=28)  # 4 chunks of 32 rows
        failing = 2
        injected = OSError(errno.EIO, "injected EIO")
        data_syncs = []
        real_fdatasync = os.fdatasync

        def fdatasync(fd):
            if is_spill_fd(fd, tmp_path):
                data_syncs.append(fd)
                if len(data_syncs) == failing + 1:
                    raise injected
            real_fdatasync(fd)

        monkeypatch.setattr(os, "fdatasync", fdatasync)
        with pytest.raises(OSError) as caught:
            CapacitySorter("1M", config=CONFIG, max_chunk_rows=32).run(
                batch, spill_dir=tmp_path
            )
        assert caught.value is injected
        assert caught.value.errno == errno.EIO
        assert not commit_threads()
        assert [r.index for r in spill.read_journal(tmp_path)] == [0, 1]

        monkeypatch.setattr(os, "fdatasync", real_fdatasync)
        result = CapacitySorter("1M", config=CONFIG, max_chunk_rows=32).run(
            batch, spill_dir=tmp_path, resume=True
        )
        assert result.stats.chunks_resumed == failing
        assert result.stats.chunks_committed == 4 - failing
        assert result.store.complete
        assert result.gather().tobytes() == np.sort(batch, axis=1).tobytes()

    def test_streaming_oom_degrades_and_completes(self, tmp_path):
        batch = make_batch(80, 8, seed=24)

        def factory(rows):
            # First two pipeline builds fail at sort time; later,
            # smaller ones succeed.
            return _OomOnce(1) if rows > 5 else _OomOnce(0)

        sorter = CapacitySorter("1M", max_chunk_rows=20,
                                sorter_factory=factory)
        result = sorter.run(batch, spill_dir=tmp_path)
        assert result.stats.shrink_events >= 1
        np.testing.assert_array_equal(result.gather(),
                                      np.sort(batch, axis=1))

    def test_streaming_permanent_oom_serial_fallback(self, tmp_path):
        batch = make_batch(40, 8, seed=25)
        sorter = CapacitySorter(
            "1M", max_chunk_rows=8,
            sorter_factory=lambda rows: _OomOnce(10**9),
        )
        result = sorter.run(batch, spill_dir=tmp_path)
        assert result.stats.serial_fallback_chunks > 0
        np.testing.assert_array_equal(result.gather(),
                                      np.sort(batch, axis=1))


class TestFacade:
    def test_memory_budget_kwarg_routes_to_capacity(self):
        batch = make_batch(150, 16, seed=30)
        sorter = GpuArraySort(CONFIG, memory_budget="64K")
        result = sorter.sort(batch)
        np.testing.assert_array_equal(result.batch, np.sort(batch, axis=1))
        assert sorter.memory_budget == 64 * 1024
        # Decision provenance rides on the result like execution_plan.
        assert result.capacity.plan.budget_bytes == 64 * 1024
        assert result.capacity.stats.chunks_committed >= 1
        assert "capacity_chunks" in result.phase_seconds

    def test_memory_budget_matches_plain_sort(self):
        batch = make_batch(64, 32, seed=31)
        plain = GpuArraySort(CONFIG).sort(batch).batch
        budgeted = GpuArraySort(CONFIG, memory_budget="32K").sort(batch).batch
        np.testing.assert_array_equal(budgeted, plain)

    def test_memory_budget_descending_inplace(self):
        batch = make_batch(50, 16, seed=32)
        expected = np.sort(batch, axis=1)[:, ::-1]
        result = GpuArraySort(CONFIG, memory_budget="32K").sort(
            batch, inplace=True, descending=True
        )
        assert result.batch is batch
        np.testing.assert_array_equal(batch, expected)

    def test_conflicting_options_rejected(self):
        with pytest.raises(ValueError, match="engine='vectorized'"):
            GpuArraySort(engine="sim", memory_budget="1M")
        with pytest.raises(ValueError, match="sampler"):
            GpuArraySort(sampler=object(), memory_budget="1M")

    def test_bad_budget_string_rejected_at_init(self):
        with pytest.raises(ValueError):
            GpuArraySort(memory_budget="lots")
