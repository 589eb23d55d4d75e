"""Property-style demux correctness: under concurrency, batch splits,
mixed shapes/dtypes, and mid-stream shedding, every caller gets back
exactly *their own* arrays sorted — byte-identical to a direct
``GpuArraySort`` call — or a typed error.  Never someone else's rows,
never a partial or stale result.

This is the acceptance contract of the service subsystem: dynamic
batching is only admissible if demultiplexing is indistinguishable from
having sorted alone.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import GpuArraySort
from repro.core.config import SortConfig
from repro.service import DeadlineExceededError, ServiceError, SortService

pytestmark = pytest.mark.service

DTYPES = [np.float32, np.float64, np.int32, np.int64]
ROW_LENS = [16, 33, 64]


def _make_arrays(rng, dtype, rows, row_len):
    if np.dtype(dtype).kind == "f":
        return rng.uniform(-1e6, 1e6, (rows, row_len)).astype(dtype)
    return rng.integers(-(2**20), 2**20, (rows, row_len)).astype(dtype)


def _expected(arrays):
    return GpuArraySort(SortConfig()).sort(arrays.copy()).batch


@pytest.mark.timeout(90)
def test_concurrent_random_submits_each_get_their_own_rows(rng):
    """N threads x M submits of random shapes/dtypes, byte-identical demux.

    Shapes and dtypes are drawn so multiple lanes coexist and lanes mix
    requests from different threads — the demux has to slice the fused
    batch back to the right owner every time.
    """
    with SortService(batch_target_rows=16, max_batch_rows=32,
                     linger_ms=2.0, max_queue_rows=4096) as service:

        def worker(worker_id):
            wrng = np.random.default_rng(1000 + worker_id)
            pairs = []
            for _ in range(20):
                dtype = DTYPES[wrng.integers(len(DTYPES))]
                row_len = ROW_LENS[wrng.integers(len(ROW_LENS))]
                rows = int(wrng.integers(1, 9))
                arrays = _make_arrays(wrng, dtype, rows, row_len)
                pairs.append((arrays, service.submit(arrays)))
            return pairs

        with ThreadPoolExecutor(max_workers=8) as pool:
            all_pairs = [
                pair
                for pairs in pool.map(worker, range(8))
                for pair in pairs
            ]

        for arrays, future in all_pairs:
            out = future.result(timeout=60)
            assert out.dtype == arrays.dtype
            assert out.shape == arrays.shape
            expected = _expected(arrays)
            assert out.tobytes() == expected.tobytes()


@pytest.mark.timeout(90)
def test_forced_batch_splits_preserve_ownership(rng):
    """A tiny max_batch_rows forces every lane to split across batches;
    ownership must survive the splits."""
    with SortService(batch_target_rows=4, max_batch_rows=4,
                     linger_ms=1.0, max_queue_rows=4096) as service:
        submissions = []
        for i in range(40):
            arrays = _make_arrays(rng, np.float32, 3, 24)
            submissions.append((arrays, service.submit(arrays)))
        for arrays, future in submissions:
            out = future.result(timeout=60)
            assert out.tobytes() == _expected(arrays).tobytes()


@pytest.mark.timeout(90)
def test_demux_correct_under_mid_stream_shedding(rng):
    """Mixing hopeless deadlines into live traffic must not corrupt the
    survivors: shed requests fail typed, the rest stay byte-identical."""

    class Throttled:
        """Small, bounded delay per batch so deadlines genuinely expire."""

        def __init__(self):
            self.inner = GpuArraySort(SortConfig())

        def sort(self, batch, *, inplace=False):
            import time

            time.sleep(0.005)
            return self.inner.sort(batch, inplace=inplace)

    with SortService(backend=Throttled(), batch_target_rows=8,
                     max_batch_rows=8, linger_ms=1.0,
                     max_queue_rows=4096) as service:
        live, doomed = [], []
        for i in range(60):
            arrays = _make_arrays(rng, np.float64, 2, 16)
            if i % 3 == 2:
                # ~20 requests whose deadline has effectively passed on
                # arrival; they must shed, not deliver.
                doomed.append(
                    (arrays, service.submit(arrays, deadline=1e-4))
                )
            else:
                live.append((arrays, service.submit(arrays)))

        shed_count = 0
        for arrays, future in doomed:
            try:
                out = future.result(timeout=60)
            except ServiceError:
                shed_count += 1
            else:
                # Close calls can still win the race — but then the data
                # must be exactly right, never stale or misrouted.
                assert out.tobytes() == _expected(arrays).tobytes()
        assert shed_count > 0  # the throttle guarantees some expire

        for arrays, future in live:
            out = future.result(timeout=60)
            assert out.tobytes() == _expected(arrays).tobytes()

    stats = service.stats()
    assert stats.shed + stats.deadline_missed == shed_count


@pytest.mark.timeout(90)
def test_retained_copies_survive_concurrent_dispatches(rng):
    """The default copy=True contract: results retained across later
    dispatches (from four competing threads) stay byte-identical."""
    with SortService(batch_target_rows=4, max_batch_rows=8,
                     linger_ms=1.0, max_queue_rows=4096) as service:
        checked = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def worker(worker_id):
            wrng = np.random.default_rng(77 + worker_id)
            barrier.wait()
            for _ in range(15):
                arrays = _make_arrays(wrng, np.float32, 2, 32)
                out = service.submit(arrays).result(timeout=60)
                with lock:
                    checked.append((arrays, out))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Every retained copy must still be correct after all dispatches.
        assert len(checked) == 60
        for arrays, out in checked:
            assert out.tobytes() == _expected(arrays).tobytes()


@pytest.mark.timeout(90)
def test_zero_copy_view_correct_until_next_dispatch(rng):
    """copy=False is the single-caller fast path: the view is exact when
    read before the caller's next submit (which triggers the next
    dispatch and may reuse the buffer)."""
    with SortService(batch_target_rows=2, linger_ms=1.0) as service:
        for _ in range(10):
            arrays = _make_arrays(rng, np.float64, 3, 48)
            out = service.submit(arrays, copy=False).result(timeout=60)
            # Read (and verify) before anything else is submitted.
            assert out.tobytes() == _expected(arrays).tobytes()
