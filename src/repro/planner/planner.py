"""Adaptive execution planner: pick an engine per batch shape.

``BENCH_hotpath.json`` killed the one-size-fits-all dispatch: the
sharded executor lost to serial at ``ref-f32-mid`` (0.90×) while winning
at other cells.  Following Dehne & Zaboli's approach of choosing
sampling/partition parameters per input shape, the planner chooses the
*engine* per batch shape:

1.  **Model seed** — a calibrated host cost model
    (:mod:`repro.planner.model`) prices each candidate (serial-fused,
    thread-sharded, process-sharded, flat-radix — see
    :data:`~repro.planner.model.ENGINE_NAMES`) for the batch's
    ``(N, n, dtype)``.
2.  **Guarded exploration** — candidates are tried once each, cheapest
    predicted first, skipping any predicted worse than
    ``explore_factor``× the best (no point timing a plan the model says
    is hopeless).  Exploration is what makes the planner robust to
    effects no core-count model predicts — NUMA placement, SMT siblings,
    cache-partition interference.
3.  **Online refinement** — every sorted batch reports its wall time
    back via :meth:`ExecutionPlanner.observe`; an EMA per (shape-class,
    engine) then drives an argmin dispatch, so the planner converges on
    the measured winner within a few batches of each shape and tracks
    slow drift afterwards.

Shape classes quantize ``log2`` of both dimensions, so a streaming
workload with jittering batch sizes still shares one learned entry.
The candidates are priced for the first batch of a shape class and
reused for the rest of it (the EMA that picks among them is per class
anyway), so after that batch ``plan()`` is a lookup plus the EMA
argmin.
Learned timings persist in the same JSON cache as the calibration
(:mod:`repro.planner.calibrate`) when :meth:`ExecutionPlanner.save` is
called — explicitly, by the CLI, or by :meth:`SortService.close
<repro.service.SortService.close>` — never from the sorting thread's
``observe()``.  The next process then starts already warm.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..statan import runtime as _sanitizer
from ..core.radix import supports_dtype as _radix_supports_dtype
from ..parallel.plan import DEFAULT_MIN_ROWS_PER_WORKER, plan_shards
from .calibrate import calibrate_host, load_or_calibrate, save_profile
from .model import DEFAULT_PROFILE, HostProfile, predict_ms

__all__ = [
    "ExecutionPlan",
    "ExecutionPlanner",
    "StaticPlanner",
    "resolve_planner",
    "get_default_planner",
    "set_default_planner",
]

#: plan() sources, in the order a fresh shape progresses through them.
PLAN_SOURCES = ("static", "model", "explore", "observed")


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """One dispatch decision: how to sort the next batch."""

    #: One of :data:`~repro.planner.model.ENGINE_NAMES`: ``"serial"``
    #: (fused vectorized path), ``"thread"``, ``"process"``, or
    #: ``"radix"`` (flat non-comparison row sort, no bucket metadata).
    engine: str
    #: Worker count for the sharded engines (1 for serial).
    workers: int = 1
    #: Fuse phases 2+3 (always the fast choice; kept explicit so an
    #: unfused plan remains expressible for ablations).
    fused: bool = True
    #: Cost-model estimate for this engine on this shape, milliseconds.
    predicted_ms: float = 0.0
    #: Why this plan was chosen — one of :data:`PLAN_SOURCES`.
    source: str = "model"
    #: Shape-class key the decision was filed under.
    shape_key: str = ""
    #: Fan-out guard forwarded to the executors' shard planning.
    min_rows_per_worker: int = DEFAULT_MIN_ROWS_PER_WORKER


@dataclasses.dataclass(frozen=True)
class _PricedClass:
    """One shape class's candidate plans, priced once by ``plan()``."""

    #: Every candidate, in the order :meth:`ExecutionPlanner._candidates`
    #: built them.
    candidates: tuple
    #: Candidates within ``explore_factor`` of the cheapest prediction,
    #: cheapest first: the exploration order.
    explorable: tuple
    #: engine -> its plan with ``source="observed"``, prebuilt so the
    #: steady state allocates no plan objects.
    observed: Dict[str, ExecutionPlan]


@functools.lru_cache(maxsize=4096)
def shape_class_key(num_rows: int, row_len: int, dtype) -> str:
    """Quantized shape-class key: dtype + rounded log2 of each dimension.

    Memoized: ``plan()`` calls it on every batch.
    """
    dtype = np.dtype(dtype)
    big_n = round(math.log2(max(1, num_rows)))
    small_n = round(math.log2(max(1, row_len)))
    return f"{dtype.str}|N{big_n}|n{small_n}"


@_sanitizer.sanitize_guarded
class _PlannerBase:
    """Engine-instance caching + decision counting shared by all planners."""

    def __init__(self) -> None:
        self._engines: Dict[tuple, object] = {}
        self._lock = _sanitizer.make_lock("_PlannerBase._lock")
        #: shape key -> engine -> times plan() chose it.  The service's
        #: metrics surface exports this, so live traffic shows *which*
        #: engine each shape class actually dispatches to.
        self._plan_counts: Dict[str, Dict[str, int]] = {}  # guarded-by: _lock

    def _record_plan(self, shape_key: str, engine: str) -> None:
        with self._lock:
            slot = self._plan_counts.setdefault(shape_key, {})
            slot[engine] = slot.get(engine, 0) + 1

    def plan_counts(self) -> Dict[str, Dict[str, int]]:
        """Engine-selection counts per shape class (a copy)."""
        with self._lock:
            return {key: dict(slot) for key, slot in self._plan_counts.items()}

    def executor_for(self, plan: ExecutionPlan):
        """The (cached) executor instance realizing ``plan``.

        ``None`` for serial and radix plans — both run inside the
        caller (serial keeps full phase-1 diagnostics; radix is the
        sorter's own flat row-sort path).  Thread/process engines are
        constructed once per (engine, workers) and reused, so the
        planner adds no per-batch object churn.
        """
        if plan.engine in ("serial", "radix"):
            return None
        key = (plan.engine, plan.workers, plan.min_rows_per_worker)
        engine = self._engines.get(key)
        if engine is None:
            from ..parallel.executors import ProcessPoolEngine, ThreadPoolEngine

            cls = ThreadPoolEngine if plan.engine == "thread" else ProcessPoolEngine
            engine = cls(
                workers=plan.workers,
                min_rows_per_worker=plan.min_rows_per_worker,
            )
            self._engines[key] = engine
        return engine

    def observe(self, plan: ExecutionPlan, elapsed_ms: float) -> None:
        """Feed back a measured batch time (no-op unless adaptive)."""

    def save(self) -> bool:
        """Persist learned state (no-op unless adaptive)."""
        return False


@_sanitizer.sanitize_guarded
class ExecutionPlanner(_PlannerBase):
    """Cost-model seeded, observation-refined engine chooser.

    Parameters
    ----------
    profile:
        A :class:`HostProfile` to use directly.  ``None`` (default)
        defers to the JSON cache: load if valid for this host, else run
        the one-time micro-calibration and persist it.
    cache_path:
        Override the cache file (default honors ``$REPRO_PLANNER_CACHE``
        then ``~/.cache/repro/planner.json``).  Pass ``cache_path=None``
        explicitly to disable persistence entirely.
    explore_factor:
        A candidate is only explored while its model prediction is
        within this factor of the cheapest candidate's.
    ema_alpha:
        Weight of the newest observation in the per-(shape, engine) EMA.
    """

    _UNSET = object()

    def __init__(
        self,
        profile: Optional[HostProfile] = None,
        *,
        cache_path=_UNSET,
        explore_factor: float = 8.0,
        ema_alpha: float = 0.3,
        min_rows_per_worker: int = DEFAULT_MIN_ROWS_PER_WORKER,
    ) -> None:
        super().__init__()
        if explore_factor < 1.0:
            raise ValueError(f"explore_factor must be >= 1.0, got {explore_factor}")
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must be in (0, 1], got {ema_alpha}")
        self.explore_factor = float(explore_factor)
        self.ema_alpha = float(ema_alpha)
        self.min_rows_per_worker = int(min_rows_per_worker)
        self._cache_path: Optional[Path]
        if cache_path is self._UNSET:
            self._cache_path = None  # resolved lazily via default_cache_path
            self._persist = True
        else:
            self._cache_path = Path(cache_path) if cache_path is not None else None
            self._persist = cache_path is not None
        self._profile = profile
        #: shape key -> engine -> {"ema_ms": float, "count": int}
        self._observations: Dict[str, Dict[str, Dict[str, float]]] = {}  # guarded-by: _lock
        #: (shape key, config) -> candidate plans, priced on the first
        #: plan() of the shape class.
        self._priced: Dict[tuple, _PricedClass] = {}  # guarded-by: _lock

    # -- profile lifecycle -------------------------------------------------
    @property
    def profile(self) -> HostProfile:
        """The host profile, calibrating (and caching) on first access."""
        if self._profile is None:
            if self._persist:
                self._profile, persisted = load_or_calibrate(self._cache_path)
                self._merge_observations(persisted)
            else:
                self._profile = calibrate_host()
        return self._profile

    def _merge_observations(self, persisted: Dict[str, object]) -> None:
        with self._lock:
            for key, engines in persisted.items():
                if not isinstance(engines, dict):
                    continue
                slot = self._observations.setdefault(str(key), {})
                for engine, entry in engines.items():
                    if (
                        engine not in slot
                        and isinstance(entry, dict)
                        and isinstance(entry.get("ema_ms"), (int, float))
                    ):
                        slot[str(engine)] = {
                            "ema_ms": float(entry["ema_ms"]),
                            "count": int(entry.get("count", 1)),
                        }

    # -- planning ----------------------------------------------------------
    def _candidates(
        self,
        num_rows: int,
        row_len: int,
        dtype,
        config: SortConfig,
        key: str,
    ) -> list:
        profile = self.profile
        plans = [
            ExecutionPlan(
                engine="serial",
                workers=1,
                predicted_ms=predict_ms(
                    profile, "serial", num_rows, row_len, dtype, config=config
                ),
                shape_key=key,
                min_rows_per_worker=self.min_rows_per_worker,
            )
        ]
        if _radix_supports_dtype(dtype):
            plans.append(
                ExecutionPlan(
                    engine="radix",
                    workers=1,
                    predicted_ms=predict_ms(
                        profile, "radix", num_rows, row_len, dtype, config=config
                    ),
                    shape_key=key,
                    min_rows_per_worker=self.min_rows_per_worker,
                )
            )
        workers = max(2, profile.cpu_count)
        shards = len(
            plan_shards(
                num_rows, workers, min_rows_per_worker=self.min_rows_per_worker
            )
        )
        if shards > 1:
            for engine in ("thread", "process"):
                plans.append(
                    ExecutionPlan(
                        engine=engine,
                        workers=workers,
                        predicted_ms=predict_ms(
                            profile,
                            engine,
                            num_rows,
                            row_len,
                            dtype,
                            workers=workers,
                            shards=shards,
                            config=config,
                        ),
                        shape_key=key,
                        min_rows_per_worker=self.min_rows_per_worker,
                    )
                )
        return plans

    def plan(
        self,
        num_rows: int,
        row_len: int,
        dtype,
        *,
        config: SortConfig = DEFAULT_CONFIG,
    ) -> ExecutionPlan:
        """Choose the engine for one ``(num_rows, row_len, dtype)`` batch."""
        key = shape_class_key(num_rows, row_len, dtype)
        memo = (key, config)
        with self._lock:
            priced = self._priced.get(memo)
        if priced is None:
            # Priced outside the lock: the first call may calibrate.
            fresh = self._price(
                self._candidates(num_rows, row_len, dtype, config, key)
            )
        with self._lock:
            if priced is None:
                priced = self._priced.setdefault(memo, fresh)
            chosen = self._choose_locked(key, priced)
        self._record_plan(key, chosen.engine)
        return chosen

    def _price(self, candidates: list) -> _PricedClass:
        best_predicted = min(c.predicted_ms for c in candidates)
        cutoff = self.explore_factor * max(best_predicted, 1e-9)
        return _PricedClass(
            candidates=tuple(candidates),
            explorable=tuple(sorted(
                (c for c in candidates if c.predicted_ms <= cutoff),
                key=lambda c: c.predicted_ms,
            )),
            observed={
                c.engine: dataclasses.replace(c, source="observed")
                for c in candidates
            },
        )

    def _choose_locked(self, key: str, priced: _PricedClass) -> ExecutionPlan:
        if len(priced.candidates) == 1:
            return priced.candidates[0]
        observed = self._observations.get(key, {})
        for choice in priced.explorable:
            if choice.engine not in observed:
                source = "explore" if observed else "model"
                return dataclasses.replace(choice, source=source)
        choice = min(
            priced.candidates,
            key=lambda c: observed.get(c.engine, {}).get("ema_ms", c.predicted_ms),
        )
        return priced.observed[choice.engine]

    def observe(self, plan: ExecutionPlan, elapsed_ms: float) -> None:
        """Fold one measured batch wall time into the per-shape EMA."""
        if not plan.shape_key or elapsed_ms < 0:
            return
        with self._lock:
            slot = self._observations.setdefault(plan.shape_key, {})
            entry = slot.get(plan.engine)
            if entry is None:
                slot[plan.engine] = {"ema_ms": float(elapsed_ms), "count": 1}
            else:
                entry["ema_ms"] += self.ema_alpha * (elapsed_ms - entry["ema_ms"])
                entry["count"] += 1

    def observations(self, shape_key: Optional[str] = None):
        """Learned timings (a copy), for diagnostics and the benchmark."""
        import copy

        with self._lock:
            if shape_key is not None:
                return copy.deepcopy(self._observations.get(shape_key, {}))
            return copy.deepcopy(self._observations)

    def save(self) -> bool:
        """Persist profile + observations to the JSON cache (best effort).

        The only write path: ``observe()`` never touches the file.  The
        snapshot is taken under the lock and written outside it, so
        concurrent sorts keep planning while the file is fsynced.
        """
        if not self._persist:
            return False
        return save_profile(self.profile, self.observations(), self._cache_path)


class StaticPlanner(_PlannerBase):
    """Planner that always returns the same engine — the escape hatch.

    Realizes ``GpuArraySort(planner="fused")`` (always the serial fused
    path), ``planner="sharded"`` (always the thread engine; its shard
    planning still collapses to one shard below the fan-out threshold),
    and ``planner="radix"`` (always the flat non-comparison row sort).
    ``MODES`` covers every engine in
    :data:`~repro.planner.model.ENGINE_NAMES` plus the historical
    aliases, and the error message is derived from it — adding an
    engine updates both automatically.
    """

    MODES = {
        "serial": "serial",
        "fused": "serial",
        "thread": "thread",
        "sharded": "thread",
        "process": "process",
        "radix": "radix",
    }

    def __init__(
        self,
        mode: str,
        *,
        workers: Optional[int] = None,
        min_rows_per_worker: int = DEFAULT_MIN_ROWS_PER_WORKER,
    ) -> None:
        super().__init__()
        try:
            self.engine = self.MODES[mode.lower()]
        except (KeyError, AttributeError):
            raise ValueError(
                f"unknown static planner mode {mode!r}; choose from "
                f"{sorted(set(self.MODES))}"
            ) from None
        self.mode = mode
        if workers is None:
            workers = (
                1
                if self.engine in ("serial", "radix")
                else max(2, DEFAULT_PROFILE.cpu_count)
            )
        self.workers = int(workers)
        self.min_rows_per_worker = int(min_rows_per_worker)

    def plan(
        self,
        num_rows: int,
        row_len: int,
        dtype,
        *,
        config: SortConfig = DEFAULT_CONFIG,
    ) -> ExecutionPlan:
        key = shape_class_key(num_rows, row_len, dtype)
        self._record_plan(key, self.engine)
        return ExecutionPlan(
            engine=self.engine,
            workers=self.workers,
            source="static",
            shape_key=key,
            min_rows_per_worker=self.min_rows_per_worker,
        )


_default_planner: Optional[ExecutionPlanner] = None


def get_default_planner() -> ExecutionPlanner:
    """The process-wide adaptive planner behind ``planner="auto"``.

    Shared so every sorter in the process pools its observations and the
    calibration runs at most once.
    """
    global _default_planner
    if _default_planner is None:
        _default_planner = ExecutionPlanner()
    return _default_planner


def set_default_planner(planner: Optional[ExecutionPlanner]) -> None:
    """Replace (or with ``None`` reset) the process-wide planner."""
    global _default_planner
    _default_planner = planner


def resolve_planner(spec, *, workers: Optional[int] = None):
    """Turn a ``planner=`` spec into a planner instance (or ``None``).

    ``None`` means no planner (legacy dispatch); ``"auto"`` the shared
    adaptive planner; any :attr:`StaticPlanner.MODES` name (``"fused"``/
    ``"serial"``/``"sharded"``/``"thread"``/``"process"``/``"radix"``)
    a :class:`StaticPlanner`; an object with a ``plan`` method passes
    through.
    """
    if spec is None:
        return None
    if hasattr(spec, "plan") and hasattr(spec, "executor_for"):
        return spec
    if isinstance(spec, str):
        key = spec.lower()
        if key in ("none",):
            return None
        if key == "auto":
            return get_default_planner()
        if key in StaticPlanner.MODES:
            return StaticPlanner(key, workers=workers)
        raise ValueError(
            f"unknown planner {spec!r}; choose from "
            f"['auto'] + {sorted(set(StaticPlanner.MODES))} or pass a planner instance"
        )
    raise TypeError(
        "planner must be None, a mode name, or a planner instance; "
        f"got {type(spec).__name__}"
    )
