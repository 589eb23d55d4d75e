"""Budget parsing and the working-set model (repro.outofcore.budget)."""

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.outofcore.budget import (
    BudgetError,
    ENGINE_EXTRA_COPIES,
    SAFETY_FACTOR,
    format_memory_size,
    parse_memory_size,
    plan_budget,
    working_set_bytes_per_row,
)

pytestmark = pytest.mark.capacity


class TestParseMemorySize:
    @pytest.mark.parametrize("text,expected", [
        ("1024", 1024),
        ("1K", 1024),
        ("1k", 1024),
        ("512M", 512 * 1024**2),
        ("8G", 8 * 1024**3),
        ("8GB", 8 * 1024**3),
        ("8GiB", 8 * 1024**3),
        ("1.5G", int(1.5 * 1024**3)),
        ("2T", 2 * 1024**4),
        (" 64 M ", 64 * 1024**2),
    ])
    def test_parses(self, text, expected):
        assert parse_memory_size(text) == expected

    def test_plain_int_passes_through(self):
        assert parse_memory_size(12345) == 12345
        assert parse_memory_size(np.int64(77)) == 77

    @pytest.mark.parametrize("bad", [
        "", "G", "8X", "-1G", "8 gigs", "1..5G", "0", "0M", None, 1.5,
        [], True, 0, -7,
    ])
    def test_rejects(self, bad):
        with pytest.raises(BudgetError):
            parse_memory_size(bad)

    def test_format_roundtrips_units(self):
        assert format_memory_size(8 * 1024**3) == "8.0G"
        assert format_memory_size(512) == "512"
        assert parse_memory_size(format_memory_size(256 * 1024**2)) == \
            256 * 1024**2


class TestWorkingSetModel:
    def test_monotone_in_row_len(self):
        costs = [working_set_bytes_per_row(n, np.float64)
                 for n in (10, 100, 1000, 10000)]
        assert costs == sorted(costs)
        assert costs[0] > 0

    def test_engine_ordering(self):
        """serial < radix == auto (worst case)."""
        per = {engine: working_set_bytes_per_row(1000, np.float64,
                                                 engine=engine)
               for engine in ENGINE_EXTRA_COPIES}
        per["auto"] = working_set_bytes_per_row(1000, np.float64)
        assert per["serial"] < per["radix"] == per["auto"]
        # auto budgets radix's two extra payloads; every planner="auto"
        # spill chunk schedule is sized from this worst case.
        assert max(ENGINE_EXTRA_COPIES.values()) == 2.0

    def test_dtype_scales_payload(self):
        f32 = working_set_bytes_per_row(1000, np.float32)
        f64 = working_set_bytes_per_row(1000, np.float64)
        assert f32 < f64 <= 2 * f32 + 1024  # metadata term is dtype-free

    def test_exceeds_raw_payload_by_safety_factor(self):
        n = 1000
        payload = 8 * n
        per = working_set_bytes_per_row(n, np.float64, engine="serial")
        assert per >= int(2 * payload * SAFETY_FACTOR)

    def test_rejects_bad_inputs(self):
        with pytest.raises(BudgetError):
            working_set_bytes_per_row(0, np.float64)
        with pytest.raises(BudgetError):
            working_set_bytes_per_row(10, np.float64, engine="warp")


class TestPlanBudget:
    def test_chunk_schedule_covers_batch(self):
        plan = plan_budget(10_000, 500, np.float64, "4M")
        bounds = plan.chunk_bounds()
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 10_000
        # Contiguous and non-overlapping.
        for (a_start, a_stop), (b_start, _) in zip(bounds, bounds[1:]):
            assert a_stop == b_start
        assert plan.num_chunks == len(bounds)
        assert plan.working_set_bytes <= parse_memory_size("4M")

    def test_oversubscription_ratio(self):
        plan = plan_budget(4096, 1000, np.float64, "8M")
        assert plan.total_bytes == 4096 * 1000 * 8
        assert plan.oversubscription == pytest.approx(
            plan.total_bytes / plan.budget_bytes
        )

    def test_cramped_budget_floors_at_one_row(self):
        plan = plan_budget(100, 100_000, np.float64, "4K")
        assert plan.cramped
        assert plan.chunk_rows == 1
        assert plan.num_chunks == 100

    def test_max_chunk_rows_cap(self):
        plan = plan_budget(1000, 10, np.float64, "1G", max_chunk_rows=32)
        assert plan.chunk_rows == 32

    def test_single_chunk_when_budget_ample(self):
        plan = plan_budget(100, 10, np.float64, "1G")
        assert plan.num_chunks == 1
        assert plan.chunk_rows == 100

    def test_empty_batch(self):
        plan = plan_budget(0, 10, np.float64, "1M")
        assert plan.num_chunks == 0
        assert plan.chunk_bounds() == []

    def test_config_feeds_model(self):
        small = plan_budget(1000, 1000, np.float64, "1M",
                            config=SortConfig(sampling_rate=0.01))
        big = plan_budget(1000, 1000, np.float64, "1M",
                          config=SortConfig(sampling_rate=0.5))
        assert small.chunk_rows >= big.chunk_rows

    def test_rejects_negative_rows(self):
        with pytest.raises(BudgetError):
            plan_budget(-1, 10, np.float64, "1M")
