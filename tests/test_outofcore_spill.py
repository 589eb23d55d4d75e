"""Spill store: one spill file + append-only journal, hygiene, replay."""

import numpy as np
import pytest

from repro.outofcore import spill
from repro.outofcore.spill import (
    JOURNAL_SCHEMA,
    BatchFile,
    SpillCorruptionError,
    SpillDirectoryError,
    SpillError,
    SpillStore,
    read_journal,
    write_batch_file,
)
from repro.statan import runtime as rt

pytestmark = pytest.mark.capacity


def make_chunk(rng, rows, n, dtype=np.float64):
    return rng.random((rows, n)).astype(dtype)


def journal_path(directory):
    return directory / spill._JOURNAL_NAME


def spill_path(directory):
    return directory / spill._SPILL_NAME


def record_spans(directory):
    """``(start, end)`` byte span of every intact journal record."""
    raw = journal_path(directory).read_bytes()
    spans, offset = [], 0
    while offset < len(raw):
        length, _ = spill._FRAME.unpack_from(raw, offset)
        end = offset + spill._FRAME.size + length
        spans.append((offset, end))
        offset = end
    return spans


class TestCommitAndRead:
    def test_roundtrip_with_crc(self, tmp_path):
        rng = np.random.default_rng(1)
        store = SpillStore(tmp_path, array_size=16, dtype=np.float64)
        data = make_chunk(rng, 8, 16)
        record = store.commit_chunk(0, 0, data)
        assert record.rows == 8
        assert record.nbytes == data.nbytes
        assert record.cursor == 8
        back = store.open_chunk(record, verify=True)
        np.testing.assert_array_equal(np.asarray(back), data)
        assert store.rows_committed == 8
        assert store.spill_bytes_written == data.nbytes

    def test_iter_chunks_row_order(self, tmp_path):
        rng = np.random.default_rng(2)
        store = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        # Commit out of order; iteration must come back by start_row.
        later, first = make_chunk(rng, 5, 8), make_chunk(rng, 10, 8)
        store.commit_chunk(1, 10, later)
        store.commit_chunk(0, 0, first)
        chunks = list(store.iter_chunks())
        assert [start for start, _ in chunks] == [0, 10]
        np.testing.assert_array_equal(np.asarray(chunks[0][1]), first)
        np.testing.assert_array_equal(np.asarray(chunks[1][1]), later)

    def test_reads_map_one_window_per_chunk(self, tmp_path):
        rng = np.random.default_rng(9)
        store = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                           meta={"total_rows": 30})
        for index in range(3):
            store.commit_chunk(index, 10 * index, make_chunk(rng, 10, 8))
        for start, chunk in store.iter_chunks():
            window = chunk
            while not isinstance(window, np.memmap):  # sanitizer wrapper
                window = window.base
            assert window.offset == start * 8 * 8
            assert window.shape == (10, 8)

    def test_recommit_replaces_and_counts(self, tmp_path):
        rng = np.random.default_rng(3)
        store = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        store.commit_chunk(0, 0, make_chunk(rng, 4, 8))
        newer = make_chunk(rng, 4, 8)
        record = store.commit_chunk(0, 0, newer)
        assert store.recommits == 1
        assert store.rows_committed == 4
        np.testing.assert_array_equal(
            np.asarray(store.open_chunk(record, verify=True)), newer
        )

    def test_recommit_makes_open_windows_stale(self, tmp_path):
        rng = np.random.default_rng(10)
        was_enabled = rt.enabled()
        rt.enable()
        rt.reset()
        try:
            store = SpillStore(tmp_path, array_size=8, dtype=np.float64)
            record = store.commit_chunk(0, 0, make_chunk(rng, 4, 8))
            window = store.open_chunk(record)
            window[0]  # fresh window: clean
            store.commit_chunk(0, 0, make_chunk(rng, 4, 8))
            assert store.recommits == 1
            with pytest.raises(rt.StaleViewError):
                window[0]
        finally:
            rt.reset()
            if not was_enabled:
                rt.disable()

    def test_shape_mismatch_rejected(self, tmp_path):
        store = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        with pytest.raises(SpillError):
            store.commit_chunk(0, 0, np.zeros((4, 9)))

    def test_corruption_detected(self, tmp_path):
        rng = np.random.default_rng(4)
        store = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        store.commit_chunk(0, 0, make_chunk(rng, 4, 8))
        record = store.commit_chunk(1, 4, make_chunk(rng, 4, 8))
        path = spill_path(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[record.start_row * 64 + 11] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert not store.verify_chunk(record)
        assert store.verify_chunk(store.committed[0])
        with pytest.raises(SpillCorruptionError):
            store.open_chunk(record, verify=True)
        # Unverified open still works (size is unchanged).
        store.open_chunk(record)

    def test_truncation_detected_without_verify(self, tmp_path):
        rng = np.random.default_rng(5)
        store = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        record = store.commit_chunk(0, 0, make_chunk(rng, 4, 8))
        path = spill_path(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SpillCorruptionError):
            store.open_chunk(record)


class TestDirectoryHygiene:
    def test_refuses_foreign_manifest(self, tmp_path):
        # The journal is the run's manifest: a second run must not
        # silently start over it.
        first = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        first.commit_chunk(0, 0, np.zeros((2, 8)))
        with pytest.raises(SpillDirectoryError) as excinfo:
            SpillStore(tmp_path, array_size=8, dtype=np.float64)
        message = str(excinfo.value)
        assert "resume=True" in message and "reclaim=True" in message
        assert first.run_id in message
        assert "1 committed chunk" in message

    def test_reclaim_deletes_previous_run(self, tmp_path):
        first = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        first.commit_chunk(0, 0, np.zeros((2, 8)))
        first.close()
        fresh = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                           reclaim=True)
        assert fresh.committed == []
        assert fresh.run_id != first.run_id
        assert read_journal(tmp_path) == []
        assert spill_path(tmp_path).stat().st_size == 0

    def test_refuses_stray_chunks_without_manifest(self, tmp_path):
        # A spill file with no journal: a dead run that never wrote its
        # header.  Even resume=True has nothing to adopt.
        spill_path(tmp_path).write_bytes(b"\x00" * 64)
        for resume in (False, True):
            with pytest.raises(SpillDirectoryError) as excinfo:
                SpillStore(tmp_path, array_size=8, dtype=np.float64,
                           resume=resume)
            assert "reclaim=True" in str(excinfo.value)
        # reclaim deletes the stray file and proceeds.
        SpillStore(tmp_path, array_size=8, dtype=np.float64, reclaim=True)
        assert spill_path(tmp_path).stat().st_size == 0

    def test_v1_directory_refused_unless_reclaimed(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"schema": "repro-spill/v1"}')
        (tmp_path / "chunk_000000.bin").write_bytes(b"\x00" * 64)
        (tmp_path / "checkpoint.npz").write_bytes(b"\x00")
        for resume in (False, True):
            with pytest.raises(SpillError) as excinfo:
                SpillStore(tmp_path, array_size=8, dtype=np.float64,
                           resume=resume)
            message = str(excinfo.value)
            assert "repro-spill/v1" in message and "reclaim=True" in message
        SpillStore(tmp_path, array_size=8, dtype=np.float64, reclaim=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [spill._JOURNAL_NAME, spill._SPILL_NAME]
        )


class TestResume:
    def test_adopts_committed_chunks_and_meta(self, tmp_path):
        rng = np.random.default_rng(6)
        data = make_chunk(rng, 4, 8)
        first = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                           meta={"total_rows": 20, "budget": "1M"})
        first.commit_chunk(0, 0, data)
        second = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                            resume=True, meta={"budget": "2M"})
        assert second.resumed_from == first.run_id
        assert second.run_id == first.run_id
        assert second.rows_committed == 4
        assert second.cursor == 4
        # Stored meta adopted, new keys win on conflict.
        assert second.meta["total_rows"] == 20
        assert second.meta["budget"] == "2M"
        np.testing.assert_array_equal(
            np.asarray(second.open_chunk(second.committed[0], verify=True)),
            data,
        )

    def test_resume_rejects_shape_or_dtype_mismatch(self, tmp_path):
        first = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        first.commit_chunk(0, 0, np.zeros((2, 8)))
        with pytest.raises(SpillError, match="array_size"):
            SpillStore(tmp_path, array_size=9, dtype=np.float64, resume=True)
        with pytest.raises(SpillError, match="dtype"):
            SpillStore(tmp_path, array_size=8, dtype=np.float32, resume=True)

    def test_resume_detects_missing_chunk_file(self, tmp_path):
        first = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        first.commit_chunk(0, 0, np.zeros((2, 8)))
        spill_path(tmp_path).unlink()
        with pytest.raises(SpillCorruptionError):
            SpillStore(tmp_path, array_size=8, dtype=np.float64, resume=True)

    def test_resume_with_no_manifest_starts_fresh(self, tmp_path):
        store = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                           resume=True)
        assert store.resumed_from is None
        assert store.committed == []

    def test_mark_complete_persists(self, tmp_path):
        first = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        assert not first.complete
        first.mark_complete()
        second = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                            resume=True)
        assert second.complete


class TestJournal:
    def test_header_records_schema_and_meta(self, tmp_path):
        store = SpillStore(tmp_path, array_size=4, dtype=np.float32,
                           meta={"total_rows": 3})
        store.commit_chunk(0, 0, np.ones((3, 4), dtype=np.float32))
        frames, intact = spill._replay(journal_path(tmp_path))
        assert intact == journal_path(tmp_path).stat().st_size
        header, chunk = frames
        assert header["kind"] == "header"
        assert header["schema"] == JOURNAL_SCHEMA == "repro-spill/v2"
        assert header["run_id"] == store.run_id
        assert header["array_size"] == 4
        assert header["dtype"] == np.dtype(np.float32).str
        assert header["meta"] == {"total_rows": 3}
        assert chunk["kind"] == "chunk"
        assert (chunk["index"], chunk["start_row"], chunk["rows"]) == (0, 0, 3)
        assert chunk["cursor"] == 3

    def test_spill_file_sized_once_from_total_rows(self, tmp_path):
        rng = np.random.default_rng(11)
        store = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                           meta={"total_rows": 10})
        assert spill_path(tmp_path).stat().st_size == 10 * 64
        data = make_chunk(rng, 4, 8)
        store.commit_chunk(1, 6, data)  # lands at its fixed offset
        assert spill_path(tmp_path).stat().st_size == 10 * 64
        raw = spill_path(tmp_path).read_bytes()
        assert raw[6 * 64 :] == data.tobytes()

    def test_torn_tail_record_is_ignored_on_resume(self, tmp_path):
        rng = np.random.default_rng(12)
        first = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        first.commit_chunk(0, 0, make_chunk(rng, 2, 8))
        first.commit_chunk(1, 2, make_chunk(rng, 2, 8))
        first.close()
        start, end = record_spans(tmp_path)[-1]
        path = journal_path(tmp_path)
        path.write_bytes(path.read_bytes()[: end - 5])  # torn mid-frame
        assert [r.index for r in read_journal(tmp_path)] == [0]
        assert path.stat().st_size == end - 5  # read_journal only reads

        second = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                            resume=True)
        assert [r.index for r in second.committed] == [0]
        assert second.cursor == 2
        # The torn tail is dropped, so new records follow the last
        # intact one and replay past them.
        assert path.stat().st_size == start
        data = make_chunk(rng, 2, 8)
        second.commit_chunk(1, 2, data)
        second.close()
        third = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                           resume=True)
        assert [r.index for r in third.committed] == [0, 1]
        np.testing.assert_array_equal(
            np.asarray(third.open_chunk(third.committed[1], verify=True)),
            data,
        )

    def test_flipped_byte_stops_replay_at_that_record(self, tmp_path):
        rng = np.random.default_rng(13)
        store = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        for index in range(3):
            store.commit_chunk(index, 2 * index, make_chunk(rng, 2, 8))
        store.close()
        # Records: header, chunk 0, chunk 1, chunk 2.  Corrupt chunk 1's
        # payload: chunk 2's intact record after it is not trusted.
        start, end = record_spans(tmp_path)[2]
        path = journal_path(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[(start + end) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        assert [r.index for r in read_journal(tmp_path)] == [0]
        resumed = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                             resume=True)
        assert [r.index for r in resumed.committed] == [0]
        assert resumed.cursor == 2

    def test_last_record_wins_for_a_recommitted_index(self, tmp_path):
        rng = np.random.default_rng(14)
        store = SpillStore(tmp_path, array_size=8, dtype=np.float64)
        store.commit_chunk(0, 0, make_chunk(rng, 4, 8))
        newer = store.commit_chunk(0, 0, make_chunk(rng, 4, 8))
        assert read_journal(tmp_path) == [newer]
        resumed = SpillStore(tmp_path, array_size=8, dtype=np.float64,
                             resume=True)
        assert resumed.committed == [newer]
        assert resumed.verify_chunk(newer)

    def test_torn_header_is_refused_on_resume(self, tmp_path):
        SpillStore(tmp_path, array_size=8, dtype=np.float64).close()
        path = journal_path(tmp_path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(SpillError, match="reclaim=True"):
            SpillStore(tmp_path, array_size=8, dtype=np.float64, resume=True)

    def test_read_journal_of_missing_directory_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "nowhere") == []


class TestBatchFile:
    def test_write_and_windowed_read(self, tmp_path):
        rng = np.random.default_rng(8)
        full = rng.random((100, 8))

        def gen(block_index, start, take):
            return full[start : start + take]

        batch = write_batch_file(tmp_path / "in.bin", gen,
                                 rows=100, row_len=8, dtype=np.float64,
                                 block_rows=32)
        assert batch.shape == (100, 8)
        assert batch.nbytes == full.nbytes
        np.testing.assert_array_equal(batch.read(40, 60), full[40:60])
        out = np.empty((64, 8))
        got = batch.read_into(90, 100, out)
        np.testing.assert_array_equal(got, full[90:100])

    def test_rejects_short_file(self, tmp_path):
        (tmp_path / "short.bin").write_bytes(b"\x00" * 16)
        with pytest.raises(SpillError):
            BatchFile(path=tmp_path / "short.bin", rows=100, row_len=8,
                      dtype=np.float64)

    def test_rejects_bad_window(self, tmp_path):
        full = np.zeros((10, 4))

        def gen(block_index, start, take):
            return full[start : start + take]

        batch = write_batch_file(tmp_path / "in.bin", gen,
                                 rows=10, row_len=4, dtype=np.float64)
        with pytest.raises(SpillError):
            batch.read(8, 12)
        with pytest.raises(SpillError):
            batch.read_into(0, 4, np.empty((2, 4)))
