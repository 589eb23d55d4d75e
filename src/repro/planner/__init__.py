"""Execution planning for the batch-sort hot path.

:mod:`repro.planner.planner` holds :class:`ExecutionPlanner` — the
``planner="auto"`` rule: the flat ``radix`` row sort for every dtype —
and :class:`StaticPlanner`, which forces one engine (``"fused"`` or
``"radix"``).

Entry point for users: ``GpuArraySort(planner="auto")``.
"""

from .planner import (
    ExecutionPlan,
    ExecutionPlanner,
    StaticPlanner,
    get_default_planner,
    resolve_planner,
    set_default_planner,
    shape_class_key,
)

__all__ = [
    "ExecutionPlan",
    "ExecutionPlanner",
    "StaticPlanner",
    "get_default_planner",
    "resolve_planner",
    "set_default_planner",
    "shape_class_key",
]
