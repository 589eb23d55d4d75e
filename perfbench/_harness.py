"""Shared pieces of the repo benchmark: clocks, statistics, the np.sort
oracle, per-run planner-cache isolation, tracing seams and provenance.

Everything here is imported by ``run.py`` after it has put the
checkout's ``src/`` on ``sys.path``; nothing runs at import time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import resource
import struct
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import numpy as np

#: Repository root of the checkout this benchmark runs from.
ROOT = Path(__file__).resolve().parent.parent

#: Tail percentile reported as ``latency_tail_ms`` per workload: the
#: highest of p90/p99/p99.9 that keeps at least ten samples beyond it at
#: the sample count of an untraced run (batch) or of one window of it
#: (serve, fleet: ``open_loop.Traffic.window_s``).  ``spill`` is the
#: exception: its p99 (~25 samples beyond) is set by the shared disk's
#: fsync stalls and moved by a third of its median between runs of the
#: same code, so it reports p90.
TAIL_PERCENTILE = {"batch": 99.0, "serve": 99.0, "fleet": 90.0, "spill": 90.0}

#: Anchor time in ms of one unit of a closed-loop workload's rows on the
#: reference host (2-CPU x86_64 VM, Python 3.11, numpy 2.4):
#: ``np.sort(..., axis=1)`` of one round of the batch pool; the plain
#: spill of the spill input (``closed_loop.plain_spill_seconds``).  The
#: closed loops report their times at this host speed (see
#: ``reference_scale``).
REFERENCE_NPSORT_MS = {"batch": 18.0, "spill": 120.0}

#: Latency limit (ms) behind ``slo_ratio``: per ``sort()`` call (batch),
#: per request from its scheduled send time (serve, fleet), per
#: committed chunk (spill).
LATENCY_LIMIT_MS = {"batch": 100.0, "serve": 25.0, "fleet": 50.0, "spill": 100.0}

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5


# -- statistics --------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """``q``-th percentile (linear interpolation); NaN when empty."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        return float("nan")
    return float(np.percentile(data, q))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return int(count * (100.0 - q) / 100.0)


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else float("nan")


def reference_scale(workload: str, npsort_s: float) -> float:
    """Factor that takes a time measured beside ``npsort_s`` seconds of
    ``np.sort`` on one unit of ``workload``'s rows to the reference host's
    speed.

    A shared host's speed drifts by tens of percent over seconds to
    minutes, and the same drift moves ``np.sort``.  The closed loops sort
    the same rows with ``np.sort`` right after each unit of work, so
    scaling that unit's times by this factor cancels the drift and leaves
    what the code under test changes.
    """
    return ratio(REFERENCE_NPSORT_MS[workload], npsort_s * 1e3)


# -- clocks ------------------------------------------------------------------
def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User+sys CPU seconds of this process (or of its reaped children)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident memory in MiB of this process, or of the largest
    reaped child (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- oracle ------------------------------------------------------------------
def same_bytes(got: np.ndarray, expected: np.ndarray) -> bool:
    """Byte-for-byte equality with the ``np.sort`` expectation."""
    return (
        got.shape == expected.shape
        and got.dtype == expected.dtype
        and got.tobytes() == expected.tobytes()
    )


# -- planner-cache isolation -------------------------------------------------
def fresh_planner(tmp: Path) -> Path:
    """Point the planner at an empty cache file and drop the process-wide
    planner, so the next ``planner="auto"`` calibrates from scratch.

    Forked fleet workers inherit the environment variable, so they read
    the same private cache instead of ``~/.cache/repro/planner.json``.
    """
    from repro.planner import set_default_planner
    from repro.planner.calibrate import CACHE_ENV

    path = Path(tempfile.mkdtemp(prefix="planner-", dir=tmp)) / "planner.json"
    os.environ[CACHE_ENV] = str(path)
    set_default_planner(None)
    return path


def warm_planner(sorter, batches) -> None:
    """Sort each batch through ``sorter`` (a ``planner="auto"``
    ``GpuArraySort``) until its plan is ``observed``, i.e. the shared
    planner has stopped exploring that shape class.  A result without an
    ``execution_plan`` took a path that bypasses the planner (a NaN
    batch split off a non-radix plan), so more sorts would not change
    the planner's state."""
    for batch in batches:
        for _ in range(16):
            plan = getattr(sorter.sort(batch), "execution_plan", None)
            if plan is None or plan.source == "observed":
                break


# -- tracing -----------------------------------------------------------------
#: One traced sort: start, end, engine seconds, rows, plan source index,
#: plan engine index.
_RECORD = struct.Struct("<dddqBB")
PLAN_SOURCES = ("static", "model", "explore", "observed", "none")
PLAN_ENGINES = ("serial", "radix", "thread", "process", "none")


class TimedSorter:
    """Timing wrapper around the sorter a layer would build for itself.

    ``factory`` builds the inner sorter lazily on first use, so a wrapper
    handed to a forked fleet worker builds its ``GpuArraySort`` (and
    resolves ``planner="auto"``) inside that worker, exactly as the
    default backend would.  Every ``sort`` appends one fixed-size record
    to ``<log_dir>/core-<pid>.bin`` with an unbuffered write, so records
    written by worker processes survive without any shutdown hook.  The
    wrapper adds no work besides two clock reads and that write: the
    ``np.sort`` anchor and the NaN count are taken by the workload from
    its own copy of the inputs.
    """

    def __init__(self, factory, log_dir: Path) -> None:
        self._factory = factory
        self._log_dir = Path(log_dir)
        self._inner = None
        self._fd: Optional[int] = None
        self._pid: Optional[int] = None

    @property
    def inner(self):
        if self._inner is None:
            self._inner = self._factory()
        return self._inner

    @property
    def planner(self):
        return getattr(self.inner, "planner", None)

    def sort(self, batch, **kwargs):
        inner = self.inner
        t0 = time.perf_counter()
        result = inner.sort(batch, **kwargs)
        t1 = time.perf_counter()
        plan = getattr(result, "execution_plan", None)
        source = PLAN_SOURCES.index(plan.source) if plan is not None else 4
        engine = (
            PLAN_ENGINES.index(plan.engine)
            if plan is not None and plan.engine in PLAN_ENGINES
            else 4
        )
        self._write(_RECORD.pack(
            t0, t1, float(sum(result.phase_seconds.values())),
            batch.shape[0], source, engine,
        ))
        return result

    def _write(self, record: bytes) -> None:
        if self._fd is None or self._pid != os.getpid():
            self._pid = os.getpid()
            self._fd = os.open(
                self._log_dir / f"core-{self._pid}.bin",
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600,
            )
        os.write(self._fd, record)

    def close(self) -> None:
        if self._fd is not None and self._pid == os.getpid():
            os.close(self._fd)
        self._fd = None


@dataclasses.dataclass
class CoreTrace:
    """Records read back from every ``core-*.bin`` in a log directory,
    ordered by start time."""

    start: np.ndarray
    end: np.ndarray
    engine_s: np.ndarray
    rows: np.ndarray
    source: np.ndarray
    engine: np.ndarray

    @classmethod
    def load(cls, log_dir: Path) -> "CoreTrace":
        records: List[tuple] = []
        for path in sorted(Path(log_dir).glob("core-*.bin")):
            payload = path.read_bytes()
            usable = len(payload) - len(payload) % _RECORD.size
            records.extend(_RECORD.iter_unpack(payload[:usable]))
        records.sort(key=lambda r: r[0])
        cols = list(zip(*records)) if records else [()] * 6
        return cls(
            start=np.asarray(cols[0], dtype=np.float64),
            end=np.asarray(cols[1], dtype=np.float64),
            engine_s=np.asarray(cols[2], dtype=np.float64),
            rows=np.asarray(cols[3], dtype=np.int64),
            source=np.asarray(cols[4], dtype=np.int64),
            engine=np.asarray(cols[5], dtype=np.int64),
        )

    def since(self, t0: float) -> "CoreTrace":
        """Only the sorts started at or after ``t0`` (drops warm-up)."""
        keep = self.start >= t0
        return CoreTrace(*(getattr(self, f.name)[keep]
                           for f in dataclasses.fields(self)))

    @property
    def sort_s(self) -> np.ndarray:
        return self.end - self.start

    def metrics(
        self, *, warmup_s: float, npsort_ms: float, nan_batches: int
    ) -> Dict[str, float]:
        """The ``core.*`` and ``planner.*`` per-layer metrics."""
        calls = int(self.start.size)
        sort_ms = self.sort_s * 1e3
        overhead_ms = sort_ms - self.engine_s * 1e3
        out = {
            "core.sort_ms_p50": percentile(sort_ms, 50),
            "core.engine_ms_p50": percentile(self.engine_s * 1e3, 50),
            "core.overhead_ms_p50": percentile(overhead_ms, 50),
            "core.overhead_share": ratio(overhead_ms.sum(), sort_ms.sum()),
            "core.npsort_ms_p50": npsort_ms,
            "core.calls": calls,
            "core.rows": int(self.rows.sum()),
            "core.nan_batches": int(nan_batches),
            "planner.explore_share": ratio(
                int((self.source != PLAN_SOURCES.index("observed")).sum()), calls
            ),
            "planner.warmup_s": warmup_s,
        }
        for index, engine in enumerate(PLAN_ENGINES[:-1]):
            out[f"planner.engine_share.{engine}"] = ratio(
                int((self.engine == index).sum()), calls
            )
        return out


def npsort_seconds(batches: Iterable[np.ndarray]) -> float:
    """Wall time of ``np.sort(batch, axis=1)`` over every batch."""
    t0 = time.perf_counter()
    for batch in batches:
        np.sort(batch, axis=1)
    return time.perf_counter() - t0


def npsort_ms_p50(make_batch, rows: Iterable[int], limit: int = 200) -> float:
    """Median ``np.sort(batch, axis=1)`` time over up to ``limit`` of the
    recorded batch row counts, on batches ``make_batch(rows)`` builds."""
    times = []
    for count in list(rows)[:limit]:
        batch = make_batch(int(count))
        t0 = time.perf_counter()
        np.sort(batch, axis=1)
        times.append((time.perf_counter() - t0) * 1e3)
    return percentile(times, 50)


@dataclasses.dataclass
class Phase:
    """One measured phase of a workload.

    ``e2e`` holds the end-to-end metrics (always computed, so a traced
    phase can be compared with an untraced one); ``layers`` the per-layer
    metrics of a traced phase; ``detail`` everything printed for context.
    """

    attempted: int
    failed: int
    e2e: Dict[str, float]
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    detail: Dict[str, object] = dataclasses.field(default_factory=dict)


# -- provenance --------------------------------------------------------------
def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (git / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """SHA-256 over ``src/repro/**/*.py``: identifies the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_block(seed: int, extra: Dict[str, object]) -> Dict[str, object]:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = os.cpu_count() or 1
    block: Dict[str, object] = {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": seed,
        "argv": sys.argv[1:],
    }
    block.update(extra)
    return block
