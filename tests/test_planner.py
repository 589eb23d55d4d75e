"""Unit tests for repro.planner (cost model, calibration, planners)."""

import json

import numpy as np
import pytest

from repro.core import GpuArraySort, SortConfig
from repro.planner import (
    CACHE_SCHEMA,
    ExecutionPlan,
    ExecutionPlanner,
    HostProfile,
    StaticPlanner,
    calibrate_host,
    default_cache_path,
    host_fingerprint,
    load_profile,
    predict_ms,
    resolve_planner,
    save_profile,
    set_default_planner,
    shape_class_key,
)

# A deterministic 2-core profile so planner tests never run the ~0.3 s
# calibration and never depend on this host's measured constants.
STUB = HostProfile(cpu_count=2, calibrated=True)
BIG = (100_000, 1000)  # rows, row_len — above the fan-out guard
SMALL = (1000, 500)  # below it: serial is the only candidate


def make_planner(**kwargs):
    kwargs.setdefault("cache_path", None)
    return ExecutionPlanner(STUB, **kwargs)


class TestModel:
    def test_predictions_positive_for_every_engine(self):
        for engine in ("serial", "thread", "process"):
            ms = predict_ms(STUB, engine, *BIG, np.float32, workers=2, shards=2)
            assert ms > 0

    def test_serial_prediction_scales_with_rows(self):
        small = predict_ms(STUB, "serial", 1000, 1000, np.float32)
        big = predict_ms(STUB, "serial", 100_000, 1000, np.float32)
        assert big > small * 10

    def test_process_costs_more_overhead_than_thread(self):
        t = predict_ms(STUB, "thread", *BIG, np.float32, workers=2, shards=2)
        p = predict_ms(STUB, "process", *BIG, np.float32, workers=2, shards=2)
        assert p > t  # staging copies + spawn cost

    def test_profile_dict_round_trip(self):
        data = STUB.as_dict()
        assert HostProfile.from_dict(data) == STUB
        data["future_field"] = 123  # forward compat: unknown keys ignored
        assert HostProfile.from_dict(data) == STUB

    def test_radix_prediction_positive_and_dtype_aware(self):
        f32 = predict_ms(STUB, "radix", *BIG, np.float32)
        f64 = predict_ms(STUB, "radix", *BIG, np.float64)
        assert f32 > 0
        assert f64 > f32  # wider keys: more passes and more bytes copied

    def test_unknown_engine_error_lists_every_engine(self):
        from repro.planner.model import ENGINE_NAMES

        assert ENGINE_NAMES == ("serial", "thread", "process", "radix")
        with pytest.raises(ValueError) as excinfo:
            predict_ms(STUB, "quantum", *BIG, np.float32)
        for engine in ENGINE_NAMES:
            assert engine in str(excinfo.value)


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


class TestCalibration:
    def test_calibrate_host_measures_everything(self):
        profile = calibrate_host(rows=64, row_len=256)
        assert profile.calibrated
        assert profile.sort_ns > 0
        assert profile.copy_ns_per_byte > 0
        assert profile.gather_ns > 0
        assert 0.1 <= profile.thread_efficiency <= 1.0
        assert profile.cpu_count >= 1

    def test_cache_round_trip(self, tmp_path):
        path = tmp_path / "planner.json"
        obs = {"k": {"serial": {"ema_ms": 1.5, "count": 3}}}
        assert save_profile(STUB, obs, path)
        profile, loaded_obs = load_profile(path)
        assert profile == STUB
        assert loaded_obs == obs

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "planner.json"
        save_profile(STUB, {}, path)
        data = json.loads(path.read_text())
        data["schema"] = "something-else"
        path.write_text(json.dumps(data))
        assert load_profile(path) == (None, {})

    def test_load_rejects_foreign_fingerprint(self, tmp_path):
        path = tmp_path / "planner.json"
        save_profile(STUB, {}, path)
        data = json.loads(path.read_text())
        data["fingerprint"] = "other-host|Linux|cpus=64|numpy=0.0"
        path.write_text(json.dumps(data))
        assert load_profile(path) == (None, {})

    def test_load_missing_file_is_a_miss_not_an_error(self, tmp_path):
        assert load_profile(tmp_path / "absent.json") == (None, {})

    def test_env_var_overrides_cache_path(self, tmp_path, monkeypatch):
        target = tmp_path / "custom" / "cache.json"
        monkeypatch.setenv("REPRO_PLANNER_CACHE", str(target))
        assert default_cache_path() == target

    def test_cache_schema_written(self, tmp_path):
        path = tmp_path / "planner.json"
        save_profile(STUB, {}, path)
        data = json.loads(path.read_text())
        assert data["schema"] == CACHE_SCHEMA
        assert data["fingerprint"] == host_fingerprint()

    def test_stale_engine_set_invalidates_the_cache(self, tmp_path):
        """Regression: a cache written before the radix engine existed
        must read as a miss, not warm-start a planner whose EMA table
        has no radix entries (it would never explore the new engine).

        Pre-radix caches differ from current ones in two ways — the v1
        schema string and a fingerprint without the ``engines=`` token —
        and either alone must be sufficient to reject the file.
        """
        path = tmp_path / "planner.json"
        save_profile(STUB, {"k": {"serial": {"ema_ms": 1.0, "count": 9}}}, path)
        data = json.loads(path.read_text())

        v1 = dict(data)
        v1["schema"] = "repro-planner-cache/v1"
        path.write_text(json.dumps(v1))
        assert load_profile(path) == (None, {})

        engineless = dict(data)
        fingerprint = data["fingerprint"]
        assert "engines=" in fingerprint  # the engine set is part of identity
        engineless["fingerprint"] = "|".join(
            part for part in fingerprint.split("|")
            if not part.startswith("engines=")
        )
        path.write_text(json.dumps(engineless))
        assert load_profile(path) == (None, {})

    def test_fingerprint_names_every_engine(self):
        from repro.planner.model import ENGINE_NAMES

        fingerprint = host_fingerprint()
        assert f"engines={','.join(ENGINE_NAMES)}" in fingerprint
        assert "radix" in fingerprint

    def test_calibrate_host_measures_radix_pass(self):
        profile = calibrate_host(rows=32, row_len=128)
        assert profile.radix_pass_ns > 0

    @pytest.mark.parametrize(
        "garbage", [b"", b"{truncated", b"\x00\xff\x00", b"[1, 2, 3]"]
    )
    def test_corrupted_cache_is_a_miss_not_an_error(self, tmp_path, garbage):
        """A torn or garbage cache file (e.g. from a pre-atomic-write
        crash) must read as a miss, never raise."""
        path = tmp_path / "planner.json"
        path.write_bytes(garbage)
        assert load_profile(path) == (None, {})

    def test_concurrent_writers_leave_one_complete_file(self, tmp_path):
        """The persistence race: many threads saving at once must leave
        exactly one writer's complete payload — never an interleaving —
        and no stray temp files."""
        import threading

        path = tmp_path / "planner.json"
        workers = 8

        def writer(worker_id):
            obs = {"winner": {"serial": {"ema_ms": float(worker_id),
                                         "count": worker_id}}}
            for _ in range(25):
                assert save_profile(STUB, obs, path)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        profile, obs = load_profile(path)
        assert profile == STUB
        # The observations must be one writer's intact payload.
        count = obs["winner"]["serial"]["count"]
        assert obs["winner"]["serial"]["ema_ms"] == float(count)
        assert count in range(workers)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_failed_publish_is_silent_and_leaves_no_temp(self, tmp_path):
        """An unwritable cache location disables persistence without
        raising and without littering temp files."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        path = blocker / "planner.json"  # parent is a file: mkdir fails
        assert save_profile(STUB, {}, path) is False
        assert [p for p in tmp_path.iterdir()] == [blocker]


class TestExecutionPlanner:
    def test_small_batch_skips_the_fanout_engines(self):
        # Below the fan-out guard there is no thread/process candidate,
        # but radix stays in: it runs in-caller, so sharding economics
        # never apply to it.
        planner = make_planner()
        engines = set()
        for _ in range(4):
            plan = planner.plan(*SMALL, np.float32)
            engines.add(plan.engine)
            planner.observe(plan, 5.0 if plan.engine == "serial" else 50.0)
        assert engines == {"serial", "radix"}
        assert planner.plan(*SMALL, np.float32).engine == "serial"

    def test_exploration_visits_each_candidate_then_settles(self):
        planner = make_planner()
        seen = []
        for _ in range(6):
            plan = planner.plan(*BIG, np.float32)
            seen.append((plan.engine, plan.source))
            # Feed timings that make "thread" the measured winner.
            planner.observe(plan, 10.0 if plan.engine == "thread" else 100.0)
        engines = [e for e, _ in seen]
        assert set(engines[:4]) == {"serial", "thread", "process", "radix"}
        assert seen[0][1] == "model"  # nothing observed yet
        assert seen[1][1] == "explore"
        assert seen[4] == ("thread", "observed")
        assert seen[5] == ("thread", "observed")

    def test_explore_factor_skips_hopeless_candidates(self):
        # A profile where process spawn cost is enormous relative to the
        # serial sort pushes "process" past the exploration cutoff.
        slow_spawn = HostProfile(
            cpu_count=2, process_spawn_ms=1e6, calibrated=True
        )
        planner = ExecutionPlanner(
            slow_spawn, cache_path=None, explore_factor=2.0
        )
        engines = set()
        for _ in range(6):
            plan = planner.plan(*BIG, np.float32)
            engines.add(plan.engine)
            planner.observe(plan, 50.0)
        assert "process" not in engines

    def test_ema_tracks_drift(self):
        planner = make_planner(ema_alpha=0.5)
        plan = planner.plan(*BIG, np.float32)
        planner.observe(plan, 100.0)
        planner.observe(plan, 200.0)
        entry = planner.observations(plan.shape_key)[plan.engine]
        assert entry["count"] == 2
        assert entry["ema_ms"] == pytest.approx(150.0)

    def test_persistence_warm_starts_a_new_planner(self, tmp_path):
        path = tmp_path / "planner.json"
        first = ExecutionPlanner(STUB, cache_path=path)
        for _ in range(4):
            plan = first.plan(*BIG, np.float32)
            first.observe(plan, 10.0 if plan.engine == "serial" else 500.0)
        assert first.save()

        second = ExecutionPlanner(cache_path=path)
        plan = second.plan(*BIG, np.float32)
        assert plan.source == "observed"
        assert plan.engine == "serial"

    def test_validation(self):
        with pytest.raises(ValueError):
            make_planner(explore_factor=0.5)
        with pytest.raises(ValueError):
            make_planner(ema_alpha=0.0)

    def test_executor_for_serial_is_none_and_engines_are_cached(self):
        planner = make_planner()
        serial = ExecutionPlan(engine="serial")
        assert planner.executor_for(serial) is None
        sharded = ExecutionPlan(engine="thread", workers=2)
        engine = planner.executor_for(sharded)
        assert engine is not None
        assert planner.executor_for(sharded) is engine  # no per-batch churn

    def test_executor_for_radix_is_none(self):
        # Radix runs in-caller like serial: no executor, no shards.
        assert make_planner().executor_for(ExecutionPlan(engine="radix")) is None

    def test_radix_candidate_requires_a_supported_dtype(self):
        planner = make_planner()
        engines_f32 = set()
        engines_obj = set()
        for _ in range(6):
            plan = planner.plan(*BIG, np.float32)
            engines_f32.add(plan.engine)
            planner.observe(plan, 50.0)
            plan = planner.plan(*BIG, np.dtype("datetime64[ns]"))
            engines_obj.add(plan.engine)
            planner.observe(plan, 50.0)
        assert "radix" in engines_f32
        assert "radix" not in engines_obj

    def test_plan_counts_track_selections_per_shape(self):
        planner = make_planner()
        for _ in range(3):
            plan = planner.plan(*SMALL, np.float32)
            planner.observe(plan, 5.0)
        counts = planner.plan_counts()
        assert len(counts) == 1
        (shape_counts,) = counts.values()
        assert sum(shape_counts.values()) == 3
        # The snapshot is a copy: mutating it never corrupts the planner.
        shape_counts["serial"] = 10**6
        (fresh,) = planner.plan_counts().values()
        assert sum(fresh.values()) == 3


class TestPlannerHotPath:
    def test_observe_does_no_file_io(self, tmp_path, monkeypatch):
        import repro.planner.planner as planner_module

        saves = []

        def counting_save(*args, **kwargs):
            saves.append(args)
            return True

        monkeypatch.setattr(planner_module, "save_profile", counting_save)
        path = tmp_path / "planner.json"
        planner = ExecutionPlanner(STUB, cache_path=path)
        for _ in range(200):
            plan = planner.plan(*SMALL, np.float32)
            planner.observe(plan, 5.0)
        assert saves == []
        assert not path.exists()
        assert planner.save()
        assert len(saves) == 1  # the explicit save is the only write

    def test_plan_prices_a_shape_class_once(self, monkeypatch):
        import repro.planner.planner as planner_module

        calls = []

        def counting_predict(*args, **kwargs):
            calls.append(args)
            return predict_ms(*args, **kwargs)

        monkeypatch.setattr(planner_module, "predict_ms", counting_predict)
        planner = make_planner()
        first = planner.plan(*SMALL, np.float32)
        assert calls  # the first batch of a class prices its candidates
        calls.clear()
        for rows in (SMALL[0], SMALL[0] + 100, SMALL[0] - 100):
            plan = planner.plan(rows, SMALL[1], np.float32)
            assert plan.shape_key == first.shape_key
            planner.observe(plan, 5.0)
        assert calls == []
        planner.plan(*SMALL, np.float64)  # a new class is priced again
        assert calls


class TestStaticPlanner:
    @pytest.mark.parametrize(
        "mode,engine",
        [
            ("fused", "serial"),
            ("serial", "serial"),
            ("sharded", "thread"),
            ("thread", "thread"),
            ("process", "process"),
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

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            StaticPlanner("quantum")

    def test_observe_and_save_are_noops(self):
        planner = StaticPlanner("fused")
        planner.observe(planner.plan(*BIG, np.float32), 1.0)
        assert planner.save() is False


class TestResolvePlanner:
    def test_none_passthrough(self):
        assert resolve_planner(None) is None
        assert resolve_planner("none") is None

    def test_auto_returns_the_shared_planner(self):
        probe = make_planner()
        set_default_planner(probe)
        try:
            assert resolve_planner("auto") is probe
            assert resolve_planner("auto") is probe
        finally:
            set_default_planner(None)

    def test_mode_names_build_static_planners(self):
        planner = resolve_planner("sharded", workers=3)
        assert isinstance(planner, StaticPlanner)
        assert planner.workers == 3

    def test_instance_passthrough(self):
        planner = make_planner()
        assert resolve_planner(planner) is planner

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_planner("warp-drive")
        with pytest.raises(TypeError):
            resolve_planner(42)


class TestSorterIntegration:
    def _batch(self, rng, rows=600, cols=300):
        return rng.uniform(0, 1e6, (rows, cols)).astype(np.float32)

    def test_planner_and_parallel_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            GpuArraySort(parallel="thread", planner="auto")

    def test_planner_requires_vectorized(self):
        with pytest.raises(ValueError):
            GpuArraySort(engine="model", planner="fused")

    def test_output_identical_across_planner_choices(self, rng):
        batch = self._batch(rng)
        baseline = GpuArraySort().sort(batch)
        # NaN rows split off every non-radix plan, sharded ones included.
        poisoned = batch.copy()
        poisoned[::7, 3] = np.nan
        config = SortConfig(nan_policy="sort_to_end")
        planners = [
            "fused",
            StaticPlanner("sharded", workers=2, min_rows_per_worker=1),
            make_planner(),
        ]
        for planner in planners:
            result = GpuArraySort(planner=planner).sort(batch)
            assert result.batch.tobytes() == baseline.batch.tobytes(), planner
            result = GpuArraySort(config, planner=planner).sort(poisoned)
            assert result.batch.tobytes() == np.sort(poisoned, axis=1).tobytes()
            assert result.execution_plan is not None

    def test_planned_result_records_the_plan_and_feeds_the_ema(self, rng):
        planner = make_planner()
        sorter = GpuArraySort(planner=planner)
        batch = self._batch(rng)
        result = sorter.sort(batch)
        plan = result.execution_plan
        # Below the fan-out guard the candidates are serial and radix;
        # whichever the model seeds first, the plan must round-trip into
        # the EMA for that engine.
        assert plan.engine in ("serial", "radix")
        entry = planner.observations(plan.shape_key)[plan.engine]
        assert entry["count"] == 1
        assert entry["ema_ms"] > 0

    def test_nan_shape_leaves_exploration(self, rng):
        # A NaN-carrying batch under a non-radix plan is split; the split
        # must still report to the planner, or that engine stays
        # "unexplored" and is picked on every call.
        planner = make_planner()
        sorter = GpuArraySort(
            SortConfig(nan_policy="sort_to_end"), planner=planner
        )
        batch = rng.standard_normal((64, 2000)).astype(np.float32)
        batch[rng.choice(64, 8, replace=False), 7] = np.nan
        expected = np.sort(batch, axis=1)
        for _ in range(20):
            result = sorter.sort(batch)
            assert result.execution_plan is not None
            assert result.batch.tobytes() == expected.tobytes()
        (counts,) = planner.plan_counts().values()
        assert counts.get("serial", 0) <= 1
        assert sum(counts.values()) == 20

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

    def test_resilient_rejects_planner_plus_parallel(self):
        from repro.resilience import ResilientSorter

        with pytest.raises(ValueError):
            ResilientSorter(planner="fused", parallel="thread")
