"""Spill store: one spill file and one append-only journal per capacity run.

A run that sorts more data than fits in RAM keeps its intermediate
state on disk.  :class:`SpillStore` owns one run directory holding two
files:

* ``spill.bin`` — the sorted output.  It is sized once to
  ``total_rows × row_bytes`` (``posix_fallocate``) when the run's meta
  declares ``total_rows``; each chunk is ``pwrite``-n at its fixed
  offset ``start_row × row_bytes`` and ``fdatasync``-ed.
* ``journal.log`` — append-only, schema ``repro-spill/v2``: a header
  record (run id, ``array_size``, dtype, meta), then one record per
  committed chunk (index, start row, rows, byte size, CRC32, ingest
  cursor), and a final ``complete`` record.  Every record is framed
  with its own length and CRC32, and a chunk's record is appended and
  ``fdatasync``-ed only after the chunk's bytes are durable — so a
  commit costs two syncs, and a crash leaves either no record (the
  chunk is re-sorted) or a record over durable bytes (it is skipped).

:meth:`SpillStore.commit_chunk` does one chunk's write, sync, append
and sync in that order, in one call, and records the CRC32 its caller
took (:func:`chunk_crc32`).  The capacity driver runs it on a commit
thread while it reads, sorts and checksums the next chunk into a second
buffer; at most one commit is in flight, and the store's journal state
is touched by one commit at a time.  Under ``REPRO_SANITIZE=1`` the
CRC is re-checked against the bytes written.

Resume replays the journal up to the first torn or CRC-bad record
(later records are never trusted past a gap); the last record for a
re-committed index wins.  Reads go through one :func:`numpy.memmap`
window per chunk, never the whole file, so verification and output
assembly hold at most one chunk of output in the address space.

Directory hygiene: a directory holding state from a *previous* run (a
journal, or a spill file from a dead run that never wrote its header)
is **refused** with a :class:`SpillDirectoryError` unless the caller
passes ``resume=True`` (adopt the committed chunks) or ``reclaim=True``
(delete the stale state and start fresh).  A ``repro-spill/v1``
directory (``manifest.json`` + per-chunk files) is refused the same
way; only ``reclaim=True`` clears it.

:class:`BatchFile` is the matching *input* abstraction: a file-backed
``(rows, row_len)`` batch read in bounded windows (``readinto`` a
caller's buffer), so a run holds only its chunk buffers of input — two
on the spill sink — and one mapped chunk of output at a time.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import struct
import uuid
import weakref
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..statan import runtime as _sanitizer

__all__ = [
    "BatchFile",
    "ChunkRecord",
    "JOURNAL_SCHEMA",
    "SpillCorruptionError",
    "SpillDirectoryError",
    "SpillError",
    "SpillStore",
    "chunk_crc32",
    "read_journal",
    "write_batch_file",
]

JOURNAL_SCHEMA = "repro-spill/v2"

_SPILL_NAME = "spill.bin"
_JOURNAL_NAME = "journal.log"
#: What a ``repro-spill/v1`` run left behind; refused unless reclaimed.
_V1_PATTERNS = ("manifest.json", "checkpoint.npz", "chunk_*.bin*")
#: Journal frame header: payload length and the payload's CRC32.
_FRAME = struct.Struct("<II")
_CRC_BLOCK = 4 * 1024 * 1024


class SpillError(RuntimeError):
    """Base class for spill-store failures."""


class SpillDirectoryError(SpillError):
    """The spill directory holds state from another run (see hygiene)."""


class SpillCorruptionError(SpillError):
    """Committed chunk bytes do not match their journal record."""


def chunk_crc32(array: np.ndarray) -> int:
    """CRC32 over an array's bytes, computed in bounded blocks — the
    checksum :meth:`SpillStore.commit_chunk` records for a chunk."""
    view = memoryview(np.ascontiguousarray(array)).cast("B")
    crc = 0
    for start in range(0, len(view), _CRC_BLOCK):
        crc = zlib.crc32(view[start : start + _CRC_BLOCK], crc)
    return crc & 0xFFFFFFFF


def _fsync_path(path: Path) -> None:
    """Best-effort fsync of a file or directory (directories may refuse)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        return  # e.g. directories on some filesystems
    finally:
        os.close(fd)


def _preallocate(fd: int, length: int) -> None:
    """Reserve ``length`` bytes behind ``fd``; a filesystem without
    fallocate gets a sparse extension instead."""
    try:
        os.posix_fallocate(fd, 0, length)
    except OSError as exc:
        if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL):
            raise
        if os.fstat(fd).st_size < length:
            os.ftruncate(fd, length)


def _close_fds(fds: List[int]) -> None:
    for fd in fds:
        os.close(fd)


def _frame(payload: Dict[str, object]) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def _replay(path: Path) -> Tuple[List[Dict[str, Any]], int]:
    """The intact records of a journal and the byte length they span.

    Replay stops at the first torn, CRC-bad or unparsable frame: nothing
    past a gap is trusted.
    """
    data = path.read_bytes()
    records: List[Dict[str, Any]] = []
    offset = 0
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        body = data[start : start + length]
        if len(body) < length or zlib.crc32(body) != crc:
            break
        try:
            payload = json.loads(body)
        except ValueError:
            break
        if not isinstance(payload, dict):
            break
        records.append(payload)
        offset = start + length
    return records, offset


def _chunk_records(frames: List[Dict[str, Any]]) -> Dict[int, "ChunkRecord"]:
    """Chunk records by index; the last record for an index wins."""
    latest: Dict[int, ChunkRecord] = {}
    for frame in frames:
        if frame.get("kind") == "chunk":
            record = ChunkRecord.from_dict(frame)
            latest[record.index] = record
    return latest


def read_journal(directory) -> List["ChunkRecord"]:
    """The committed chunks of the run in ``directory``, by index.

    Read-only: safe to poll while another process commits, since a torn
    tail record is ignored.  A directory with no journal has none.
    """
    path = Path(directory) / _JOURNAL_NAME
    try:
        frames, _ = _replay(path)
    except FileNotFoundError:
        return []
    latest = _chunk_records(frames)
    return [latest[i] for i in sorted(latest)]


@dataclasses.dataclass(frozen=True)
class ChunkRecord:
    """One committed chunk: where it lies in the spill file, its CRC32,
    and the ingest cursor (input rows consumed) once it is durable."""

    index: int
    start_row: int
    rows: int
    nbytes: int
    crc32: int
    cursor: int

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ChunkRecord":
        return cls(**{
            field.name: int(payload[field.name])
            for field in dataclasses.fields(cls)
        })


class SpillStore:
    """One spill file + append-only journal for one capacity run.

    Parameters
    ----------
    directory:
        The run directory (created if missing).
    array_size:
        Row length of every chunk (fixed per run).
    dtype:
        Element dtype of every chunk.
    resume:
        Adopt the journal in ``directory`` — its replayed chunks are
        checked against the spill file's size and become skippable
        work.  With no journal present, starts a fresh run.
    reclaim:
        Delete stale run state (journal, spill file, or a
        ``repro-spill/v1`` directory's files) before starting fresh.
    meta:
        Run-level metadata persisted in the journal header (e.g. total
        rows, budget) — available to a resuming process.  A
        ``total_rows`` entry sizes the spill file up front.

    The store holds the two files open for writing until :meth:`close`
    (or garbage collection); reads need neither descriptor.
    """

    def __init__(
        self,
        directory,
        *,
        array_size: int,
        dtype,
        resume: bool = False,
        reclaim: bool = False,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        if array_size < 1:
            raise SpillError(f"array_size must be >= 1, got {array_size}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.array_size = int(array_size)
        self.dtype = np.dtype(dtype)
        self.meta: Dict[str, object] = dict(meta or {})
        self.run_id = uuid.uuid4().hex
        self.resumed_from: Optional[str] = None
        self._row_bytes = self.array_size * self.dtype.itemsize
        self._spill_path = self.directory / _SPILL_NAME
        self._journal_path = self.directory / _JOURNAL_NAME
        self._records: Dict[int, ChunkRecord] = {}
        self._recommits = 0
        self._complete = False

        v1 = [p for pattern in _V1_PATTERNS for p in self.directory.glob(pattern)]
        stale = v1 + [
            p for p in (self._journal_path, self._spill_path) if p.exists()
        ]
        if v1 and not reclaim:
            names = ", ".join(sorted(p.name for p in v1)[:5])
            raise SpillDirectoryError(
                f"spill directory {self.directory} holds repro-spill/v1 "
                f"state ({names}{', ...' if len(v1) > 5 else ''}), which "
                f"this {JOURNAL_SCHEMA} store cannot resume; pass "
                "reclaim=True to delete it and start fresh"
            )
        if resume and not v1 and self._journal_path.exists():
            self._adopt()
            return
        if stale and not reclaim:
            raise SpillDirectoryError(self._refusal())
        for path in stale:
            path.unlink()
        self._create()

    # -- hygiene ----------------------------------------------------------
    def _refusal(self) -> str:
        if not self._journal_path.exists():
            return (
                f"spill directory {self.directory} holds a {_SPILL_NAME} "
                "with no journal (a dead run that never wrote its "
                "header); pass reclaim=True to delete it and start fresh"
            )
        frames, _ = _replay(self._journal_path)
        previous = frames[0].get("run_id", "<unknown>") if frames else "<unreadable>"
        return (
            f"spill directory {self.directory} already holds a journal "
            f"from run {previous} ({len(_chunk_records(frames))} committed "
            "chunk(s)); pass resume=True to continue that run or "
            "reclaim=True to delete its state and start fresh"
        )

    def _create(self) -> None:
        spill_fd = os.open(self._spill_path, os.O_RDWR | os.O_CREAT, 0o644)
        journal_fd = os.open(
            self._journal_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        self._open(spill_fd, journal_fd)
        self._append({
            "kind": "header",
            "schema": JOURNAL_SCHEMA,
            "run_id": self.run_id,
            "array_size": self.array_size,
            "dtype": self.dtype.str,
            "meta": self.meta,
        })
        _fsync_path(self.directory)  # both files' names are durable

    def _adopt(self) -> None:
        frames, intact = _replay(self._journal_path)
        header = frames[0] if frames else {}
        if header.get("kind") != "header" or header.get("schema") != JOURNAL_SCHEMA:
            raise SpillError(
                f"journal {self._journal_path} has no intact "
                f"{JOURNAL_SCHEMA} header; pass reclaim=True to start fresh"
            )
        if int(header["array_size"]) != self.array_size:
            raise SpillError(
                f"journal is for array_size {header['array_size']}, "
                f"this run uses {self.array_size}"
            )
        if np.dtype(header["dtype"]) != self.dtype:
            raise SpillError(
                f"journal is for dtype {header['dtype']}, this run uses "
                f"{self.dtype.str}"
            )
        self.resumed_from = self.run_id = str(header.get("run_id"))
        stored_meta = header.get("meta", {})
        if isinstance(stored_meta, dict):
            self.meta = {**stored_meta, **self.meta}
        self._records = _chunk_records(frames)
        self._complete = any(f.get("kind") == "complete" for f in frames)
        try:
            size = self._spill_path.stat().st_size
        except FileNotFoundError:
            size = -1
        end = max(
            (r.start_row * self._row_bytes + r.nbytes
             for r in self._records.values()),
            default=0,
        )
        if size < end:
            raise SpillCorruptionError(
                f"journal lists chunks up to byte {end} but {_SPILL_NAME} "
                f"is {'missing' if size < 0 else f'{size} bytes'}; the "
                "directory was tampered with"
            )
        spill_fd = os.open(self._spill_path, os.O_RDWR)
        journal_fd = os.open(self._journal_path, os.O_WRONLY | os.O_APPEND)
        # Drop a torn tail so new records follow the last intact one.
        os.ftruncate(journal_fd, intact)
        self._open(spill_fd, journal_fd)

    def _open(self, spill_fd: int, journal_fd: int) -> None:
        self._spill_fd, self._journal_fd = spill_fd, journal_fd
        self._finalizer = weakref.finalize(
            self, _close_fds, [spill_fd, journal_fd]
        )
        total_rows = self.meta.get("total_rows")
        if isinstance(total_rows, int) and total_rows > 0:
            _preallocate(spill_fd, total_rows * self._row_bytes)

    def close(self) -> None:
        """Release the write descriptors; committed chunks stay readable."""
        self._finalizer()
        self._spill_fd = self._journal_fd = -1  # later writes: EBADF

    def _append(self, payload: Dict[str, object]) -> None:
        """Append one framed record and make it durable."""
        os.write(self._journal_fd, _frame(payload))
        os.fdatasync(self._journal_fd)

    # -- journal state ----------------------------------------------------
    @property
    def committed(self) -> List[ChunkRecord]:
        """Committed chunks, ordered by index."""
        return [self._records[i] for i in sorted(self._records)]

    @property
    def rows_committed(self) -> int:
        return sum(r.rows for r in self._records.values())

    @property
    def spill_bytes_written(self) -> int:
        return sum(r.nbytes for r in self._records.values())

    @property
    def cursor(self) -> int:
        """Input rows consumed by the committed chunks (the resume point)."""
        return max((r.cursor for r in self._records.values()), default=0)

    @property
    def recommits(self) -> int:
        """Chunks re-committed under an index that already existed."""
        return self._recommits

    @property
    def complete(self) -> bool:
        return self._complete

    def mark_complete(self) -> None:
        self._append({"kind": "complete"})
        self._complete = True

    # -- chunk I/O --------------------------------------------------------
    def commit_chunk(
        self, index: int, start_row: int, rows: np.ndarray, crc32: int
    ) -> ChunkRecord:
        """Durably write one sorted chunk, then journal it.

        ``crc32`` is the caller's :func:`chunk_crc32` of ``rows`` and is
        recorded as given, so the caller can take it while an earlier
        chunk's commit is still syncing.  The bytes go to their fixed
        offset in the spill file and are ``fdatasync``-ed before the
        record is appended and synced: a crash at any point leaves either
        no record (chunk absent — it will be re-sorted) or a record over
        durable bytes (chunk committed — it will be skipped).
        Committing an index that already exists replaces it (the
        at-least-once retry path) and ticks :attr:`recommits`.

        Under ``REPRO_SANITIZE=1`` the CRC is recomputed over the bytes
        read back from the spill file; a mismatch — the caller changed
        ``rows`` after taking its CRC, e.g. refilled a buffer whose
        commit had not returned — raises :class:`SpillCorruptionError`
        before any record is appended.
        """
        rows = np.ascontiguousarray(rows, dtype=self.dtype)
        if rows.ndim != 2 or rows.shape[1] != self.array_size:
            raise SpillError(
                f"chunk must be (rows, {self.array_size}), got {rows.shape}"
            )
        view = memoryview(rows).cast("B")
        offset = int(start_row) * self._row_bytes
        written = 0
        while written < len(view):
            written += os.pwrite(
                self._spill_fd, view[written:], offset + written
            )
        os.fdatasync(self._spill_fd)
        if _sanitizer.enabled():
            self._check_written(index, offset, len(view), crc32)
        record = ChunkRecord(
            index=int(index),
            start_row=int(start_row),
            rows=int(rows.shape[0]),
            nbytes=int(rows.nbytes),
            crc32=int(crc32),
            cursor=int(start_row) + int(rows.shape[0]),
        )
        if record.index in self._records:
            self._recommits += 1
            if _sanitizer.enabled():
                # Re-committing an index rewrites its bytes in place:
                # memmap windows from open_chunk on them are stale.
                _sanitizer.new_epoch(("SpillStore.chunk", id(self), record.index))
        self._append({"kind": "chunk", **record.as_dict()})
        self._records[record.index] = record
        return record

    def _check_written(self, index: int, offset: int, nbytes: int,
                       crc32: int) -> None:
        """Checked build: the CRC of the bytes at ``offset`` must be the
        one the caller passed (read back in bounded blocks)."""
        crc = 0
        for start in range(0, nbytes, _CRC_BLOCK):
            block = os.pread(self._spill_fd, min(_CRC_BLOCK, nbytes - start),
                             offset + start)
            crc = zlib.crc32(block, crc)
        if crc & 0xFFFFFFFF != int(crc32):
            raise SpillCorruptionError(
                f"chunk {index}: the bytes written have CRC "
                f"{crc & 0xFFFFFFFF:#010x}, the caller passed {int(crc32):#010x} "
                "(its buffer changed before the commit returned)"
            )

    def open_chunk(self, record: ChunkRecord, *, verify: bool = False) -> np.ndarray:
        """Read-only :func:`numpy.memmap` window over one committed chunk."""
        offset = record.start_row * self._row_bytes
        try:
            size = self._spill_path.stat().st_size
        except FileNotFoundError:
            size = -1
        if size < offset + record.nbytes:
            raise SpillCorruptionError(
                f"chunk {record.index}: {_SPILL_NAME} is missing or ends "
                f"before byte {offset + record.nbytes}"
            )
        chunk = np.memmap(
            self._spill_path, dtype=self.dtype, mode="r", offset=offset,
            shape=(record.rows, self.array_size),
        )
        if verify and chunk_crc32(chunk) != record.crc32:
            raise SpillCorruptionError(
                f"chunk {record.index}: CRC mismatch (spill file corrupted)"
            )
        if _sanitizer.enabled():
            chunk = _sanitizer.track_view(
                chunk, ("SpillStore.chunk", id(self), int(record.index)),
                label=f"SpillStore.open_chunk({record.index})",
            )
        return chunk

    def verify_chunk(self, record: ChunkRecord) -> bool:
        """CRC-check one committed chunk without raising."""
        try:
            self.open_chunk(record, verify=True)
        except SpillCorruptionError:
            return False
        return True

    def iter_chunks(self, *, verify: bool = False) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(start_row, memmap)`` per committed chunk, in row order."""
        for record in sorted(self.committed, key=lambda r: r.start_row):
            yield record.start_row, self.open_chunk(record, verify=verify)


@dataclasses.dataclass
class BatchFile:
    """File-backed ``(rows, row_len)`` input batch, read in windows.

    Unlike mapping the whole file, :meth:`read_into` seeks and
    ``readinto``-fills a caller-provided buffer, so a capacity run's
    address space holds at most one chunk of input at a time — this is
    what lets the ``RLIMIT_AS`` tests pin the budget for real.
    """

    path: Path
    rows: int
    row_len: int
    dtype: np.dtype

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        self.dtype = np.dtype(self.dtype)
        expected = self.rows * self.row_len * self.dtype.itemsize
        actual = self.path.stat().st_size
        if actual < expected:
            raise SpillError(
                f"{self.path} is {actual} bytes; a ({self.rows}, "
                f"{self.row_len}) {self.dtype.str} batch needs {expected}"
            )

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.row_len)

    @property
    def nbytes(self) -> int:
        return self.rows * self.row_len * self.dtype.itemsize

    def read_into(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out[: stop - start]`` with rows ``[start, stop)``."""
        count = stop - start
        if not 0 <= start <= stop <= self.rows:
            raise SpillError(
                f"row window [{start}, {stop}) outside 0..{self.rows}"
            )
        target = out[:count]
        if target.shape != (count, self.row_len) or target.dtype != self.dtype:
            raise SpillError(
                f"read buffer must be ({count}, {self.row_len}) "
                f"{self.dtype.str}, got {target.shape} {target.dtype.str}"
            )
        row_bytes = self.row_len * self.dtype.itemsize
        with open(self.path, "rb") as handle:
            handle.seek(start * row_bytes)
            view = memoryview(target).cast("B")
            filled = handle.readinto(view)
        if filled != count * row_bytes:
            raise SpillError(
                f"short read from {self.path}: wanted {count * row_bytes} "
                f"bytes at row {start}, got {filled}"
            )
        return target

    def read(self, start: int, stop: int) -> np.ndarray:
        """Materialize rows ``[start, stop)`` as a fresh array."""
        out = np.empty((stop - start, self.row_len), dtype=self.dtype)
        return self.read_into(start, stop, out)


def write_batch_file(
    path,
    generator,
    *,
    rows: int,
    row_len: int,
    dtype,
    block_rows: int = 4096,
) -> BatchFile:
    """Stream a generated batch to disk in bounded blocks.

    ``generator(block_index, start_row, block_rows)`` must return a
    ``(block_rows, row_len)`` array for each block; blocks are written
    sequentially so peak memory is one block regardless of ``rows``.
    """
    path = Path(path)
    dtype = np.dtype(dtype)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        for block_index, start in enumerate(range(0, rows, block_rows)):
            take = min(block_rows, rows - start)
            block = np.ascontiguousarray(
                generator(block_index, start, take), dtype=dtype
            )
            if block.shape != (take, row_len):
                raise SpillError(
                    f"generator returned {block.shape}, expected "
                    f"({take}, {row_len})"
                )
            block.tofile(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return BatchFile(path=path, rows=rows, row_len=row_len, dtype=dtype)
