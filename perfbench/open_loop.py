"""Open-loop workloads: ``serve`` (in-process ``SortService``) and
``fleet`` (``SortFleet`` over forked workers).

Requests are pre-generated from the seed before timing and sent on a
fixed schedule, regardless of how fast the system answers; each
request's latency runs from its *scheduled* send time to the moment its
future resolves, so a stall is charged to every request it delays.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import queue
import resource
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from _harness import (
    LATENCY_LIMIT_MS,
    TAIL_PERCENTILE,
    CoreTrace,
    Phase,
    TimedSorter,
    cpu_seconds,
    fresh_planner,
    npsort_ms_p50,
    peak_rss_mb,
    percentile,
    ratio,
    same_bytes,
    samples_beyond,
    warm_planner,
)
from closed_loop import random_batch


@dataclasses.dataclass(frozen=True)
class Traffic:
    """One open-loop traffic shape."""

    rate: float  # requests per second
    mix: Tuple[Tuple[int, float], ...]  # (rows per request, share)
    cols: int
    dtype: str
    pool: int  # distinct pre-generated requests, sent round-robin
    warm_rows: Tuple[int, ...]  # batch row counts the warm-up covers
    #: Window (by scheduled send time) over which the tail latency and
    #: the CPU per row are taken; the run reports the median window.
    window_s: float


#: ~Half of where the service stops keeping up on a 2-CPU host.
SERVE = Traffic(2500.0, ((1, 0.6), (4, 0.3), (16, 0.1)), 256, "float32", 1000,
                (1, 2, 4, 8, 16, 32, 64, 128), 1.0)
#: ~Half of where two workers stop keeping up on a 2-CPU host.
FLEET = Traffic(500.0, ((4, 0.6), (16, 0.3), (64, 0.1)), 1000, "float64", 200,
                (4, 8, 16, 32, 64, 128, 256), 1.0)
FLEET_WORKERS = 2
#: Sender threads.  One keeps up with both rates (a submit takes at most
#: ~0.4 ms) and adds the least GIL contention to the system under test.
DRIVER_THREADS = 1

OK, MISMATCH, FAILED, REJECTED = 1, 2, 3, 4


@dataclasses.dataclass
class OpenInputs:
    traffic: Traffic
    requests: List[np.ndarray]
    expected: List[np.ndarray]
    stacked: np.ndarray  # every pool row, for the np.sort anchor


def open_inputs(traffic: Traffic, seed: int) -> OpenInputs:
    """The request pool: the mix's exact shares, shuffled by the seed."""
    rng = np.random.default_rng([seed, 4])
    sizes = np.concatenate([
        np.full(int(round(share * traffic.pool)), rows)
        for rows, share in traffic.mix
    ])
    rng.shuffle(sizes)
    requests = [random_batch(rng, traffic.dtype, int(k), traffic.cols) for k in sizes]
    return OpenInputs(
        traffic,
        requests,
        [np.sort(r, axis=1) for r in requests],
        np.concatenate(requests),
    )


class OpenLoop:
    """Send ``rate * seconds`` requests on schedule from a few threads.

    Completion is stamped in each future's done-callback; a verifier
    thread compares every result with ``np.sort`` as it arrives (so no
    result is retained) and its CPU time is kept apart from the system's.
    At the start of every window the calling thread samples the process
    CPU and takes the CPU time of ``np.sort`` on a fixed cache-resident
    slice of the pool (best of five, well under a millisecond): an anchor
    taken while the host is as busy as the system makes it, so the
    per-window ratio of the two cancels drift in host speed.  Thread CPU
    time, not wall time, so waiting to reacquire the GIL is not counted.
    """

    def __init__(self, submit, inputs: OpenInputs, seconds: float) -> None:
        from repro.service import RejectedError

        self._rejected = RejectedError
        self._submit = submit
        self._inputs = inputs
        traffic = inputs.traffic
        count = max(1, int(traffic.rate * seconds))
        self.start = time.perf_counter() + 0.05
        self.due = self.start + np.arange(count) / traffic.rate
        self.window = np.minimum(
            ((self.due - self.start) // traffic.window_s).astype(np.int64),
            max(1, int(seconds // traffic.window_s)) - 1,
        )
        self.sent_at = np.full(count, np.nan)
        self.done_at = np.full(count, np.nan)
        self.status = np.zeros(count, dtype=np.int8)
        self.rows = np.asarray(
            [inputs.requests[i % len(inputs.requests)].shape[0] for i in range(count)]
        )
        self.submit_s: List[float] = []
        self.window_cpu_s: List[float] = []
        self.window_npsort_s_per_row: List[float] = []
        self.verify_cpu_s = 0.0
        self._done_q: "queue.Queue" = queue.Queue()

    def run(self) -> "OpenLoop":
        threads = DRIVER_THREADS
        submit_times: List[List[float]] = [[] for _ in range(threads)]
        accepted = [0] * threads
        verifier = threading.Thread(target=self._verify, name="perfbench-verify")
        senders = [
            threading.Thread(
                target=self._send, args=(j, threads, submit_times[j], accepted),
                name=f"perfbench-send-{j}",
            )
            for j in range(threads)
        ]
        verifier.start()
        for sender in senders:
            sender.start()
        # System CPU per window: process CPU minus the verifier's and the
        # anchor's own.
        stacked = self._inputs.stacked
        anchor_rows = stacked[: max(1, (256 << 10) // stacked[0].nbytes)]
        windows = int(self.window.max()) + 1
        samples, anchor_cpu = [], 0.0
        for k in range(windows + 1):
            delay = self.start + k * self._inputs.traffic.window_s - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            samples.append(cpu_seconds() - self.verify_cpu_s - anchor_cpu)
            if k < windows:
                c0 = time.thread_time()
                best = float("inf")
                for _ in range(5):
                    t0 = time.thread_time()
                    np.sort(anchor_rows, axis=1)
                    best = min(best, time.thread_time() - t0)
                self.window_npsort_s_per_row.append(best / anchor_rows.shape[0])
                anchor_cpu += time.thread_time() - c0
        self.window_cpu_s = np.diff(samples).tolist()
        for sender in senders:
            sender.join()
        self._done_q.put(("end", sum(accepted)))
        verifier.join()
        self.submit_s = [t for times in submit_times for t in times]
        return self

    def _send(self, first: int, step: int, submit_times: List[float],
              accepted: List[int]) -> None:
        requests = self._inputs.requests
        for i in range(first, self.due.size, step):
            delay = self.due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t0 = time.perf_counter()
            self.sent_at[i] = t0
            try:
                future = self._submit(requests[i % len(requests)])
            except self._rejected:
                self.status[i] = REJECTED
                continue
            submit_times.append(time.perf_counter() - t0)
            accepted[first] += 1
            future.add_done_callback(functools.partial(self._on_done, i))

    def _on_done(self, index: int, future) -> None:
        self.done_at[index] = time.perf_counter()
        self._done_q.put((index, future))

    def _verify(self) -> None:
        c0 = time.thread_time()
        expected = self._inputs.expected
        target: Optional[int] = None
        seen = 0
        while target is None or seen < target:
            try:
                index, future = self._done_q.get(timeout=120.0)
            except queue.Empty:
                break  # unresolved requests stay non-OK
            if index == "end":
                target = future
                continue
            seen += 1
            if future.exception() is not None:
                self.status[index] = FAILED
            elif same_bytes(future.result(), expected[index % len(expected)]):
                self.status[index] = OK
            else:
                self.status[index] = MISMATCH
            self.verify_cpu_s = time.thread_time() - c0

    # -- end-to-end metrics ----------------------------------------------
    @property
    def ok(self) -> np.ndarray:
        return self.status == OK

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done_at[self.ok] - self.due[self.ok]) * 1e3

    @property
    def duration_s(self) -> float:
        return float(np.nanmax(self.done_at) - self.start)

    def window_tails_ms(self, q: float) -> List[float]:
        """The ``q``-th latency percentile of each window's requests."""
        ok = self.ok
        latency = (self.done_at - self.due) * 1e3
        return [
            percentile(latency[ok & (self.window == k)], q)
            for k in range(int(self.window.max()) + 1)
        ]

    def window_cpu_ms_per_krow(self) -> List[float]:
        """System CPU of each window over the rows scheduled in it."""
        rows = np.bincount(self.window, weights=self.rows)
        return [ratio(cpu * 1e3, r / 1e3) for cpu, r in zip(self.window_cpu_s, rows)]

    def e2e(self, name: str, *, children_cpu_s: float, setup_s: float,
            rss_mb: float) -> dict:
        """End-to-end metrics.  Tail latency, CPU per row and its ratio to
        ``np.sort`` are medians over the windows, so one stalled second
        does not move them; CPU of reaped worker processes is spread
        evenly over the rows of the whole run."""
        rows_ok = int(self.rows[self.ok].sum())
        lat = self.latency_ms
        in_limit = int((lat <= LATENCY_LIMIT_MS[name]).sum())
        children = ratio(children_cpu_s * 1e3, rows_ok / 1e3)
        window_cpu = np.asarray(self.window_cpu_ms_per_krow()) + children
        # np.sort per 1000 rows in ms is seconds per row * 1e6.
        window_npsort = np.asarray(self.window_npsort_s_per_row) * 1e6
        return {
            "rows_per_s": ratio(rows_ok, self.duration_s),
            "latency_p50_ms": percentile(lat, 50),
            "latency_tail_ms": statistics.median(
                self.window_tails_ms(TAIL_PERCENTILE[name])
            ),
            "slo_ratio": ratio(in_limit, self.due.size),
            "cpu_ms_per_krow": statistics.median(window_cpu),
            "x_npsort": statistics.median(window_cpu / window_npsort),
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }

    def detail(self, name: str) -> dict:
        tail_q = TAIL_PERCENTILE[name]
        per_window = np.bincount(self.window[self.ok])
        return {
            "rate_rps": self._inputs.traffic.rate,
            "driver_threads": DRIVER_THREADS,
            "sent": int(self.due.size),
            "completed_ok": int(self.ok.sum()),
            "rejected": int((self.status == REJECTED).sum()),
            "failed": int(np.isin(self.status, (FAILED, MISMATCH)).sum()),
            "window_s": self._inputs.traffic.window_s,
            "tail_percentile": tail_q,
            "tail_samples_beyond_per_window": samples_beyond(
                int(per_window.min()), tail_q),
            "window_tails_ms": self.window_tails_ms(tail_q),
            "window_cpu_ms_per_krow": self.window_cpu_ms_per_krow(),
            "window_npsort_us_per_row": [
                t * 1e6 for t in self.window_npsort_s_per_row],
            "latency_limit_ms": LATENCY_LIMIT_MS[name],
            "lag_p99_ms": percentile((self.sent_at - self.due) * 1e3, 99),
            "verify_cpu_s": self.verify_cpu_s,
        }

    def driver_layers(self) -> dict:
        return {
            "driver.lag_p99_ms": percentile((self.sent_at - self.due) * 1e3, 99),
            "driver.sent": int(self.due.size),
            "driver.completed": int(self.ok.sum()),
        }

    def wait_ms(self, trace: CoreTrace) -> np.ndarray:
        """Request latency minus the backend sort that delivered it: the
        last sort started before the request resolved (one batcher thread
        sorts and then delivers, in that order)."""
        starts = trace.start.tolist()
        sort_s = trace.sort_s
        waits = []
        for index in np.flatnonzero(self.ok):
            k = bisect.bisect_right(starts, self.done_at[index]) - 1
            if k >= 0:
                latency = self.done_at[index] - self.due[index]
                waits.append((latency - sort_s[k]) * 1e3)
        return np.asarray(waits)


def _warm_batches(inputs: OpenInputs) -> List[np.ndarray]:
    stacked = inputs.stacked
    return [np.resize(stacked, (rows, stacked.shape[1]))
            for rows in inputs.traffic.warm_rows]


def _anchor_batch(inputs: OpenInputs):
    stacked = inputs.stacked
    return lambda rows: np.resize(stacked, (rows, stacked.shape[1]))


def _traced_backend(log_dir: Path) -> TimedSorter:
    """The default service backend (``GpuArraySort(config, planner=...,
    workspace=True)``), built lazily wherever the service runs."""
    from repro.core import DEFAULT_CONFIG, GpuArraySort

    return TimedSorter(
        functools.partial(GpuArraySort, DEFAULT_CONFIG, planner="auto",
                          workspace=True),
        log_dir,
    )


# -- serve -------------------------------------------------------------------
def serve_phase(inputs: OpenInputs, tmp: Path, seconds: float, *,
                traced: bool, setups: int) -> Phase:
    """Open loop against ``SortService(planner="auto")``, default linger."""
    from repro.core import DEFAULT_CONFIG, GpuArraySort
    from repro.service import SortService

    log_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=tmp)) if traced else None
    setup_s, warm_s = [], []
    service = None
    try:
        for _ in range(setups):
            if service is not None:
                service.close()
            fresh_planner(tmp)
            t0 = time.perf_counter()
            service = SortService(
                planner="auto",
                backend=_traced_backend(log_dir) if traced else None,
            )
            t1 = time.perf_counter()
            warm_planner(GpuArraySort(DEFAULT_CONFIG, planner="auto"),
                         _warm_batches(inputs))
            for future in [service.submit(r) for r in inputs.requests[:64]]:
                future.result(timeout=30)
            t2 = time.perf_counter()
            setup_s.append(t2 - t0)
            warm_s.append(t2 - t1)

        before = service.stats()
        loop = OpenLoop(service.submit, inputs, seconds).run()
        after = service.stats()
    finally:
        if service is not None:
            service.close()

    phase = Phase(
        attempted=int(loop.due.size),
        failed=int(loop.due.size - loop.ok.sum()),
        e2e=loop.e2e("serve", children_cpu_s=0.0,
                     setup_s=statistics.median(setup_s), rss_mb=peak_rss_mb()),
        detail={**loop.detail("serve"), "setup_s_all": setup_s,
                "mix": inputs.traffic.mix, "cols": inputs.traffic.cols,
                "dtype": inputs.traffic.dtype},
    )
    if traced:
        service.sorter.close()
        trace = CoreTrace.load(log_dir).since(loop.start)
        batches = after.batches - before.batches
        layers = trace.metrics(
            warmup_s=statistics.median(warm_s),
            npsort_ms=npsort_ms_p50(_anchor_batch(inputs), trace.rows),
            nan_batches=0,
        )
        layers.update(loop.driver_layers())
        layers.update({
            "service.submit_us_p50": percentile(np.asarray(loop.submit_s) * 1e6, 50),
            "service.batches": batches,
            "service.rows_per_batch_mean": ratio(
                after.batched_rows - before.batched_rows, batches),
            "service.sort_ms_p50": percentile(trace.sort_s * 1e3, 50),
            "service.sort_busy_ratio": ratio(trace.sort_s.sum(), loop.duration_s),
            "service.wait_ms_p50": percentile(loop.wait_ms(trace), 50),
            "service.rejected": after.rejected - before.rejected,
            "service.shed": after.shed - before.shed,
            "service.deadline_missed": after.deadline_missed - before.deadline_missed,
        })
        phase.layers = layers
    return phase


# -- fleet -------------------------------------------------------------------
def _stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker process ``SortFleet`` starts, so
    no process outlives the run (the next fleet starts a new one)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _worker_sum(stats, key: str) -> int:
    return sum(int(w.service.get(key, 0)) for w in stats.workers.values())


def fleet_phase(inputs: OpenInputs, tmp: Path, seconds: float, *,
                traced: bool, setups: int) -> Phase:
    """Open loop against ``SortFleet(workers=2, planner="auto")``.

    Worker CPU and peak memory come from ``RUSAGE_CHILDREN``, which only
    counts reaped processes: the CPU is the measured fleet's whole life
    (fork, warm-up, traffic, shutdown), the memory its largest worker.
    """
    from repro.fleet import SortFleet

    log_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=tmp)) if traced else None
    setup_s, start_s, warm_s = [], [], []
    fleet = None
    try:
        for _ in range(setups):
            if fleet is not None:
                fleet.close()
            fresh_planner(tmp)
            children_cpu0 = cpu_seconds(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            fleet = SortFleet(
                workers=FLEET_WORKERS, planner="auto",
                backend=_traced_backend(log_dir) if traced else None,
            )
            t1 = time.perf_counter()
            for batch in _warm_batches(inputs):
                for _ in range(4):
                    fleet.submit(batch).result(timeout=30)
            for future in [fleet.submit(r) for r in inputs.requests[:64]]:
                future.result(timeout=30)
            t2 = time.perf_counter()
            setup_s.append(t2 - t0)
            start_s.append(t1 - t0)
            warm_s.append(t2 - t1)

        time.sleep(0.2)  # let a heartbeat carry the warm-up counters
        before = fleet.stats()
        loop = OpenLoop(fleet.submit, inputs, seconds).run()
        time.sleep(0.2)  # ... and the traffic's
        after = fleet.stats()
    finally:
        if fleet is not None:
            fleet.close()
    children_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - children_cpu0
    _stop_resource_tracker()

    phase = Phase(
        attempted=int(loop.due.size),
        failed=int(loop.due.size - loop.ok.sum()),
        e2e=loop.e2e("fleet", children_cpu_s=children_cpu,
                     setup_s=statistics.median(setup_s),
                     rss_mb=peak_rss_mb() + peak_rss_mb(resource.RUSAGE_CHILDREN)),
        detail={**loop.detail("fleet"), "setup_s_all": setup_s,
                "workers": FLEET_WORKERS, "worker_cpu_s": children_cpu,
                "mix": inputs.traffic.mix, "cols": inputs.traffic.cols,
                "dtype": inputs.traffic.dtype},
    )
    if traced:
        trace = CoreTrace.load(log_dir).since(loop.start)
        layers = trace.metrics(
            warmup_s=statistics.median(warm_s),
            npsort_ms=npsort_ms_p50(_anchor_batch(inputs), trace.rows),
            nan_batches=0,
        )
        worker_p50 = [
            w.service.get("latency_ms", {}).get("p50", float("nan"))
            for w in after.workers.values()
        ]
        dispatched = [
            int(after.workers[k].service.get("batched_rows", 0))
            - int(before.workers[k].service.get("batched_rows", 0))
            for k in after.workers
        ]
        batches = _worker_sum(after, "batches") - _worker_sum(before, "batches")
        client_p50 = percentile(loop.latency_ms, 50)
        layers.update(loop.driver_layers())
        layers.update({
            "fleet.submit_us_p50": percentile(np.asarray(loop.submit_s) * 1e6, 50),
            "fleet.worker_latency_ms_p50": statistics.median(worker_p50),
            "fleet.transit_ms_p50": client_p50 - statistics.median(worker_p50),
            "fleet.dispatch_balance": ratio(min(dispatched), max(dispatched)),
            "fleet.start_s": statistics.median(start_s),
            "fleet.rejected": after.frontend.rejected - before.frontend.rejected,
            "fleet.redispatched": after.redispatched - before.redispatched,
            "fleet.failovers": after.failovers - before.failovers,
            "service.batches": batches,
            "service.rows_per_batch_mean": ratio(
                _worker_sum(after, "batched_rows") - _worker_sum(before, "batched_rows"),
                batches),
        })
        phase.layers = layers
    return phase
