"""Kill-resume property test: SIGKILL a capacity run mid-flight, resume.

A child process runs ``CapacitySorter.run`` against a file-backed input
with a paced progress callback; the parent polls the spill journal and
SIGKILLs the child once at least two chunks are durably committed.  The
resumed run must adopt every committed chunk (zero re-emission), finish
the rest, and produce output byte-identical to a one-shot ``np.sort``.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.outofcore.capacity import CapacitySorter
from repro.outofcore.spill import BatchFile, read_journal, write_batch_file

pytestmark = pytest.mark.capacity

ROWS = 600
COLS = 32
CHUNK_ROWS = 25  # forced via max_chunk_rows => 24 chunks
DELAY_S = 0.08

CHILD_SCRIPT = """\
import sys, time
import numpy as np
from repro.outofcore.capacity import CapacitySorter
from repro.outofcore.spill import BatchFile

input_path, spill_dir = sys.argv[1], sys.argv[2]
source = BatchFile(path=input_path, rows={rows}, row_len={cols},
                   dtype=np.float64)
sorter = CapacitySorter(
    "1M", max_chunk_rows={chunk_rows},
    progress=lambda info: time.sleep({delay}),
)
sorter.run(source, spill_dir=spill_dir)
print("CHILD_DONE")
"""


def _block(block_index, start, take):
    rng = np.random.default_rng([97, block_index])
    return rng.random((take, COLS))


def _journal_chunks(spill_dir: Path):
    # read_journal ignores a record torn mid-append, so polling is safe.
    return [record.as_dict() for record in read_journal(spill_dir)]


def test_sigkill_mid_run_resumes_without_reemission(tmp_path):
    input_path = tmp_path / "input.bin"
    spill_dir = tmp_path / "spill"
    source = write_batch_file(input_path, _block, rows=ROWS, row_len=COLS,
                              dtype=np.float64)

    script = tmp_path / "kill_child.py"
    script.write_text(CHILD_SCRIPT.format(
        rows=ROWS, cols=COLS, chunk_rows=CHUNK_ROWS, delay=DELAY_S
    ))
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")

    child = subprocess.Popen(
        [sys.executable, str(script), str(input_path), str(spill_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    num_chunks = -(-ROWS // CHUNK_ROWS)
    deadline = time.monotonic() + 60
    try:
        while True:
            committed = _journal_chunks(spill_dir)
            if 2 <= len(committed) < num_chunks:
                break
            if child.poll() is not None:
                out, err = child.communicate()
                pytest.fail(
                    "child finished before it could be killed:\n"
                    + err.decode()
                )
            assert time.monotonic() < deadline, "child made no progress"
            time.sleep(0.01)
        child.kill()  # SIGKILL: no atexit, no cleanup
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    pre_kill = _journal_chunks(spill_dir)
    pre_indices = {c["index"] for c in pre_kill}
    assert len(pre_indices) >= 2

    # Resume in this process: replay the journal, finish the run.
    resumed = CapacitySorter("1M", max_chunk_rows=CHUNK_ROWS).run(
        BatchFile(path=input_path, rows=ROWS, row_len=COLS,
                  dtype=np.float64),
        spill_dir=spill_dir, resume=True,
    )
    stats = resumed.stats
    assert stats.chunks_resumed == len(pre_indices)
    assert stats.chunks_recommitted == 0  # zero re-emitted batches
    assert stats.chunks_resumed + stats.chunks_committed >= num_chunks
    assert resumed.store.complete

    # Every new chunk index is strictly beyond the pre-kill frontier.
    all_indices = {r.index for r in resumed.store.committed}
    new_indices = all_indices - pre_indices
    assert all(i > max(pre_indices) for i in new_indices)
    assert all_indices == set(range(len(all_indices)))  # contiguous

    # Byte-identity against the one-shot reference.
    expected = np.sort(source.read(0, ROWS), axis=1)
    np.testing.assert_array_equal(resumed.gather(), expected)


def test_restart_without_resume_flag_is_refused(tmp_path):
    batch = np.random.default_rng(5).random((40, 8))
    spill_dir = tmp_path / "spill"
    sorter = CapacitySorter("1M", max_chunk_rows=10)

    class Interrupt(RuntimeError):
        pass

    def trip(info):
        if info["index"] == 1:
            raise Interrupt()

    with pytest.raises(Interrupt):
        CapacitySorter("1M", max_chunk_rows=10, progress=trip).run(
            batch, spill_dir=spill_dir
        )
    # The dead run's state must not be silently overwritten.
    from repro.outofcore.spill import SpillDirectoryError

    with pytest.raises(SpillDirectoryError):
        sorter.run(batch, spill_dir=spill_dir)
    # reclaim=True starts over cleanly.
    result = sorter.run(batch, spill_dir=spill_dir, reclaim=True)
    assert result.stats.chunks_resumed == 0
    np.testing.assert_array_equal(result.gather(), np.sort(batch, axis=1))
