"""Execution planners: which engine sorts the next batch.

:class:`ExecutionPlanner` (``planner="auto"``) is a rule, not a search:
``radix`` — the whole batch through one in-place row sort
(:func:`repro.core.radix.radix_sort_rows`) — for every dtype the row
sort supports, else ``serial`` (the fused three-phase path; only
``longdouble`` takes it).  The other engines are phase 1, that same row
sort, then metadata recovery (``serial``), or that pipeline sharded
over a pool (``thread``/``process``), so none of them can beat the row
sort on a batch it supports; ``docs/performance.md`` has the measured
evidence.

Every sorted batch still reports its wall time through
:meth:`ExecutionPlanner.observe`, which keeps an EMA per shape class
(:func:`shape_class_key`) for diagnostics and marks the class's plans
``source="observed"``.  :class:`StaticPlanner` forces one engine — the
``"fused"``/``"sharded"``/``"process"``/``"radix"`` modes the paper
benches and ablations use.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import os
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..core.radix import supports_dtype as _radix_supports_dtype
from ..parallel.plan import DEFAULT_MIN_ROWS_PER_WORKER
from ..statan import runtime as _sanitizer

__all__ = [
    "ExecutionPlan",
    "ExecutionPlanner",
    "StaticPlanner",
    "resolve_planner",
    "get_default_planner",
    "set_default_planner",
]

#: plan() sources: forced by a StaticPlanner, the rule with nothing
#: measured yet for the shape class, or the rule after a measurement.
PLAN_SOURCES = ("static", "model", "observed")

#: Weight of the newest observation in the per-shape-class EMA.
_EMA_ALPHA = 0.3


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """One dispatch decision: how to sort the next batch."""

    #: ``"serial"`` (fused vectorized path), ``"thread"``, ``"process"``
    #: (that path sharded over a pool), or ``"radix"`` (flat row sort,
    #: no bucket metadata).
    engine: str
    #: Worker count for the sharded engines (1 for serial and radix).
    workers: int = 1
    #: Why this plan was chosen — one of :data:`PLAN_SOURCES`.
    source: str = "model"
    #: Shape-class key the decision was filed under.
    shape_key: str = ""
    #: Fan-out guard forwarded to the executors' shard planning.
    min_rows_per_worker: int = DEFAULT_MIN_ROWS_PER_WORKER


@functools.lru_cache(maxsize=4096)
def shape_class_key(num_rows: int, row_len: int, dtype) -> str:
    """Quantized shape-class key: dtype + rounded log2 of each dimension.

    Memoized: ``plan()`` calls it on every batch.
    """
    dtype = np.dtype(dtype)
    big_n = round(math.log2(max(1, num_rows)))
    small_n = round(math.log2(max(1, row_len)))
    return f"{dtype.str}|N{big_n}|n{small_n}"


@functools.lru_cache(maxsize=4096)
def _auto_plans(shape_key: str, dtype) -> Tuple[ExecutionPlan, ExecutionPlan]:
    """The ``(model, observed)`` plans of one shape class under the rule,
    built once so the steady state allocates no plan objects."""
    engine = "radix" if _radix_supports_dtype(dtype) else "serial"
    model = ExecutionPlan(engine=engine, source="model", shape_key=shape_key)
    return model, dataclasses.replace(model, source="observed")


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


@_sanitizer.sanitize_guarded
class ExecutionPlanner(_PlannerBase):
    """The ``planner="auto"`` rule: ``radix`` when the row sort supports
    the batch dtype, else ``serial``; plus a per-shape-class timing EMA.
    """

    def __init__(self) -> None:
        super().__init__()
        #: shape key -> engine -> {"ema_ms": float, "count": int}
        self._observations: Dict[str, Dict[str, Dict[str, float]]] = {}  # guarded-by: _lock

    def plan(
        self,
        num_rows: int,
        row_len: int,
        dtype,
        *,
        config: SortConfig = DEFAULT_CONFIG,
    ) -> ExecutionPlan:
        """Choose the engine for one ``(num_rows, row_len, dtype)`` batch.

        ``config`` is accepted for parity with other planners; the rule
        does not depend on it.
        """
        key = shape_class_key(num_rows, row_len, dtype)
        model, observed = _auto_plans(key, dtype)
        with self._lock:
            seen = key in self._observations
        self._record_plan(key, model.engine)
        return observed if seen else model

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
                entry["ema_ms"] += _EMA_ALPHA * (elapsed_ms - entry["ema_ms"])
                entry["count"] += 1

    def observations(self, shape_key: Optional[str] = None):
        """Measured timings (a copy), for diagnostics and the benchmark."""
        with self._lock:
            if shape_key is not None:
                return copy.deepcopy(self._observations.get(shape_key, {}))
            return copy.deepcopy(self._observations)


class StaticPlanner(_PlannerBase):
    """Planner that always returns the same engine — the escape hatch.

    Realizes ``GpuArraySort(planner="fused")`` (always the serial fused
    path), ``planner="sharded"`` (always the thread engine; its shard
    planning still collapses to one shard below the fan-out threshold),
    ``planner="process"`` and ``planner="radix"`` (always the flat row
    sort).  The error message is derived from ``MODES``.
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
                else max(2, os.cpu_count() or 1)
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
    """The process-wide planner behind ``planner="auto"``.

    Shared so every sorter in the process pools its observations.
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
    :class:`ExecutionPlanner`; any :attr:`StaticPlanner.MODES` name
    (``"fused"``/``"serial"``/``"sharded"``/``"thread"``/``"process"``/
    ``"radix"``) a :class:`StaticPlanner`; an object with a ``plan``
    method passes through.
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
