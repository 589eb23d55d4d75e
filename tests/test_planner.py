"""Unit tests for repro.planner (the auto rule, static planners, wiring)."""

import numpy as np
import pytest

from repro.core import GpuArraySort, SortConfig
from repro.planner import (
    ExecutionPlanner,
    StaticPlanner,
    resolve_planner,
    set_default_planner,
    shape_class_key,
)

BIG = (100_000, 1000)  # rows, row_len
SMALL = (1000, 500)

#: Every dtype ``validate_batch`` admits; ``auto`` plans ``radix`` for
#: all of them (``longdouble`` through the row sort's direct strategy).
ADMITTED_DTYPES = [
    np.bool_,
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.float16, np.float32, np.float64,
    np.longdouble,
]


def _batch_of(dtype, rng, rows=48, cols=40):
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        return rng.integers(0, 2, (rows, cols)).astype(dtype)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, (rows, cols), dtype=dtype,
                            endpoint=True)
    batch = (rng.standard_normal((rows, cols)) * 100).astype(dtype)
    batch[::5, 3] = np.nan  # NaN rows, sorted to the end by the policy
    return batch


class TestAutoPlannerContract:
    @pytest.mark.parametrize("dtype", ADMITTED_DTYPES,
                             ids=lambda d: np.dtype(d).name)
    def test_rule_sources_and_byte_identity(self, dtype, rng):
        expected_engine = "radix"
        planner = ExecutionPlanner()
        first = planner.plan(*SMALL, dtype)
        assert (first.engine, first.source) == (expected_engine, "model")
        planner.observe(first, 1.0)
        second = planner.plan(*SMALL, dtype)
        assert (second.engine, second.source) == (expected_engine, "observed")

        batch = _batch_of(dtype, rng)
        sorter = GpuArraySort(SortConfig(nan_policy="sort_to_end"),
                              planner=ExecutionPlanner())
        result = sorter.sort(batch)
        assert result.execution_plan.engine == expected_engine
        assert result.batch.dtype == batch.dtype
        assert result.batch.tobytes() == np.sort(batch, axis=1).tobytes()


class TestLongdouble:
    """``longdouble`` has no fixed-width key bijection, so ``auto`` sorts
    it with the row sort's ``direct`` strategy, not the fused path."""

    @staticmethod
    def _batch():
        return np.array(
            [
                [3.0, -0.0, 0.0, -np.inf, np.inf, -2.5],
                [0.0, np.nan, -0.0, np.inf, 1.0, -np.inf],
                [np.nan, -1.0, np.nan, 0.0, -0.0, 2.0],
                [-0.0, 0.0, -0.0, 0.0, np.inf, -np.inf],
            ],
            dtype=np.longdouble,
        )

    def test_auto_plans_radix_and_matches_np_sort(self):
        batch = self._batch()
        sorter = GpuArraySort(SortConfig(nan_policy="sort_to_end"),
                              planner=ExecutionPlanner())
        result = sorter.sort(batch)
        assert result.execution_plan.engine == "radix"
        assert result.batch.dtype == np.longdouble
        assert result.batch.tobytes() == np.sort(batch, axis=1).tobytes()

    def test_raise_policy_rejects_before_any_write(self):
        batch = self._batch()
        before = batch.tobytes()
        sorter = GpuArraySort(SortConfig(nan_policy="raise"),
                              planner=ExecutionPlanner())
        with pytest.raises(ValueError, match="NaN"):
            sorter.sort(batch, inplace=True)
        assert batch.tobytes() == before


class TestShapeClassKey:
    def test_quantizes_log2(self):
        a = shape_class_key(1000, 1000, np.float32)
        b = shape_class_key(1100, 950, np.float32)  # same rounded log2s
        assert a == b

    def test_separates_dtypes_and_scales(self):
        assert shape_class_key(1000, 1000, np.float32) != shape_class_key(
            1000, 1000, np.float64
        )
        assert shape_class_key(1000, 1000, np.float32) != shape_class_key(
            4000, 1000, np.float32
        )


class TestExecutionPlanner:
    def test_plan_counts_track_selections_per_shape(self):
        planner = ExecutionPlanner()
        for _ in range(3):
            plan = planner.plan(*SMALL, np.float32)
            planner.observe(plan, 5.0)
        counts = planner.plan_counts()
        assert len(counts) == 1
        (shape_counts,) = counts.values()
        assert shape_counts == {"radix": 3}
        # The snapshot is a copy: mutating it never corrupts the planner.
        shape_counts["radix"] = 10**6
        (fresh,) = planner.plan_counts().values()
        assert fresh == {"radix": 3}


class TestStaticPlanner:
    @pytest.mark.parametrize(
        "mode,engine",
        [
            ("fused", "serial"),
            ("serial", "serial"),
            ("radix", "radix"),
        ],
    )
    def test_mode_mapping(self, mode, engine):
        plan = StaticPlanner(mode).plan(*BIG, np.float32)
        assert plan.engine == engine
        assert plan.source == "static"

    def test_static_planner_records_plan_counts(self):
        planner = StaticPlanner("radix")
        planner.plan(*BIG, np.float32)
        planner.plan(*BIG, np.float32)
        (shape_counts,) = planner.plan_counts().values()
        assert shape_counts == {"radix": 2}

    def test_modes(self):
        assert set(StaticPlanner.MODES) == {"fused", "serial", "radix"}

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            StaticPlanner("quantum")

    def test_observe_is_a_noop(self):
        planner = StaticPlanner("fused")
        planner.observe(planner.plan(*BIG, np.float32), 1.0)
        assert planner.plan(*BIG, np.float32).source == "static"


class TestResolvePlanner:
    def test_none_passthrough(self):
        assert resolve_planner(None) is None
        assert resolve_planner("none") is None

    def test_auto_returns_the_shared_planner(self):
        probe = ExecutionPlanner()
        set_default_planner(probe)
        try:
            assert resolve_planner("auto") is probe
            assert resolve_planner("auto") is probe
        finally:
            set_default_planner(None)

    def test_mode_names_build_static_planners(self):
        planner = resolve_planner("fused")
        assert isinstance(planner, StaticPlanner)
        assert planner.engine == "serial"

    def test_instance_passthrough(self):
        planner = ExecutionPlanner()
        assert resolve_planner(planner) is planner

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_planner("warp-drive")
        with pytest.raises(TypeError):
            resolve_planner(42)


class TestSorterIntegration:
    def _batch(self, rng, rows=600, cols=300):
        return rng.uniform(0, 1e6, (rows, cols)).astype(np.float32)

    def test_planner_requires_vectorized(self):
        with pytest.raises(ValueError):
            GpuArraySort(engine="model", planner="fused")

    def test_output_identical_across_planner_choices(self, rng):
        batch = self._batch(rng)
        baseline = GpuArraySort().sort(batch)
        # NaN rows split off every non-radix plan.
        poisoned = batch.copy()
        poisoned[::7, 3] = np.nan
        config = SortConfig(nan_policy="sort_to_end")
        planners = [
            "fused",
            StaticPlanner("radix"),
            ExecutionPlanner(),
        ]
        for planner in planners:
            result = GpuArraySort(planner=planner).sort(batch)
            assert result.batch.tobytes() == baseline.batch.tobytes(), planner
            result = GpuArraySort(config, planner=planner).sort(poisoned)
            assert result.batch.tobytes() == np.sort(poisoned, axis=1).tobytes()
            assert result.execution_plan is not None

    def test_planned_result_records_the_plan_and_feeds_the_ema(self, rng):
        planner = ExecutionPlanner()
        sorter = GpuArraySort(planner=planner)
        batch = self._batch(rng)
        result = sorter.sort(batch)
        plan = result.execution_plan
        assert (plan.engine, plan.source) == ("radix", "model")
        entry = planner.observations(plan.shape_key)[plan.engine]
        assert entry["count"] == 1
        assert entry["ema_ms"] > 0
        assert sorter.sort(batch).execution_plan.source == "observed"

    def test_nan_shape_plans_radix_from_the_first_call(self, rng):
        # NaN rows ride the radix row sort (sort_to_end in key space), so
        # a NaN-carrying shape never detours through the serial path.
        planner = ExecutionPlanner()
        sorter = GpuArraySort(
            SortConfig(nan_policy="sort_to_end"), planner=planner
        )
        batch = rng.standard_normal((64, 2000)).astype(np.float32)
        batch[rng.choice(64, 8, replace=False), 7] = np.nan
        expected = np.sort(batch, axis=1)
        for _ in range(20):
            result = sorter.sort(batch)
            assert result.execution_plan.engine == "radix"
            assert result.batch.tobytes() == expected.tobytes()
        (counts,) = planner.plan_counts().values()
        assert counts == {"radix": 20}

    def test_arena_result_repeated_sorts_stay_correct(self, rng):
        sorter = GpuArraySort(planner=StaticPlanner("fused"))
        for _ in range(3):
            batch = self._batch(rng)
            result = sorter.sort(batch)
            assert result.scratch is True
            assert np.array_equal(result.batch, np.sort(batch, axis=1))

    def test_streaming_accepts_planner(self, rng):
        from repro.core import StreamingSorter

        sorter = StreamingSorter(
            array_size=64, batch_arrays=100, planner="fused",
            dtype=np.float32,
        )
        slab = rng.uniform(0, 100, (250, 64)).astype(np.float32)
        sorter.push_slab(slab)
        sorter.flush()
        merged = np.vstack(sorter.results)
        assert merged.shape == (250, 64)
        assert np.all(np.diff(merged, axis=1) >= 0)

    def test_resilient_accepts_planner(self, rng):
        from repro.resilience import ResilientSorter

        batch = self._batch(rng, rows=130, cols=50)
        result = ResilientSorter(planner="fused").sort(batch)
        assert np.array_equal(result.batch, np.sort(batch, axis=1))
