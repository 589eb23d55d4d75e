"""Schema + gate tests for benchmarks/bench_hotpath.py (tiny grid)."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_hotpath  # noqa: E402


@pytest.fixture(scope="module")
def smoke_report():
    """One real run of the smallest grid — seconds, not minutes."""
    return bench_hotpath.run_grid("smoke", repeats=1, planner_warmup=1)


class TestRunGrid:
    def test_schema_self_valid(self, smoke_report):
        assert bench_hotpath.check_schema(smoke_report) == []

    def test_covers_every_cell(self, smoke_report):
        names = [r["name"] for r in smoke_report["results"]]
        assert names == [c[0] for c in bench_hotpath.GRIDS["smoke"]]

    def test_timings_positive_and_phased(self, smoke_report):
        for cell in smoke_report["results"]:
            assert cell["fused_ms"] > 0
            assert cell["unfused_ms"] > 0
            assert cell["radix_ms"] > 0
            assert cell["planner_ms"] > 0
            assert set(cell["fused_phase_ms"]) == {
                "phase1_splitters", "phase23_fused",
            }
            assert set(cell["unfused_phase_ms"]) == {
                "phase1_splitters", "phase2_bucketing", "phase3_sorting",
            }
            assert cell["planner_phase_ms"]  # non-empty, keys vary by engine

    def test_planner_column(self, smoke_report):
        for cell in smoke_report["results"]:
            assert cell["planner_engine"] == "radix"
            assert cell["planner_vs_best_static"] > 0
        assert (
            smoke_report["speedups"]["planner_vs_best_static_max"]
            == max(r["planner_vs_best_static"]
                   for r in smoke_report["results"])
        )

    def test_speedup_summary_consistent(self, smoke_report):
        speedups = [
            r["speedup_fused_vs_unfused"] for r in smoke_report["results"]
        ]
        assert smoke_report["speedups"]["fused_vs_unfused_min"] == min(speedups)

    def test_gate_pass_and_fail(self, smoke_report):
        report = json.loads(json.dumps(smoke_report))  # work on a copy
        assert bench_hotpath.apply_gate(report, min_speedup=0.0) is True
        assert report["gate"]["passed"] is True
        assert bench_hotpath.apply_gate(report, min_speedup=1e9) is False
        assert report["gate"]["failures"]
        # gate block itself must stay schema-valid
        assert bench_hotpath.check_schema(report) == []

    def test_planner_gate_pass_and_fail(self, smoke_report):
        report = json.loads(json.dumps(smoke_report))
        assert bench_hotpath.apply_planner_gate(report, tolerance=1e9) is True
        assert report["planner_gate"]["passed"] is True
        assert bench_hotpath.apply_planner_gate(
            report, tolerance=0.0, slack_ms=0.0
        ) is False
        assert report["planner_gate"]["failures"]
        assert bench_hotpath.check_schema(report) == []

    def test_radix_column(self, smoke_report):
        for cell in smoke_report["results"]:
            assert cell["speedup_radix_vs_fused"] == pytest.approx(
                cell["fused_ms"] / cell["radix_ms"]
            )
            assert cell["radix_expected"] is False  # smoke grid: none
            assert cell["radix_phase_ms"]
        assert "radix_vs_fused_median" in smoke_report["speedups"]
        assert smoke_report["speedups"]["radix_vs_fused_expected_min"] is None

    def test_radix_gate_needs_expected_cells(self, smoke_report):
        # The smoke grid has no radix_expected cells, so the gate must
        # fail loudly instead of vacuously passing.
        report = json.loads(json.dumps(smoke_report))
        assert bench_hotpath.apply_radix_gate(report) is False
        assert any("radix_expected" in f
                   for f in report["radix_gate"]["failures"])
        assert bench_hotpath.check_schema(report) == []

    def test_radix_gate_pass_and_fail(self, smoke_report):
        report = json.loads(json.dumps(smoke_report))
        cell = report["results"][0]
        cell["radix_expected"] = True
        cell["planner_engine"] = "radix"
        cell["speedup_radix_vs_fused"] = 2.0
        report["speedups"]["radix_vs_fused_expected_min"] = 2.0
        assert bench_hotpath.apply_radix_gate(report, min_speedup=1.5) is True
        assert report["radix_gate"]["passed"] is True
        # Too slow: speedup below the floor.
        assert bench_hotpath.apply_radix_gate(report, min_speedup=3.0) is False
        # Fast enough but the planner picked something else.
        cell["planner_engine"] = "serial"
        assert bench_hotpath.apply_radix_gate(report, min_speedup=1.5) is False
        assert any("planner" in f for f in report["radix_gate"]["failures"])
        assert bench_hotpath.check_schema(report) == []

    def test_json_round_trip(self, smoke_report, tmp_path):
        out = tmp_path / "report.json"
        out.write_text(json.dumps(smoke_report))
        assert bench_hotpath.check_schema(json.loads(out.read_text())) == []


class TestCheckSchema:
    def test_rejects_wrong_schema_tag(self):
        assert bench_hotpath.check_schema({"schema": "nope"})
        assert bench_hotpath.check_schema({"schema": "bench-hotpath/v1"})

    def test_rejects_empty_results(self):
        errors = bench_hotpath.check_schema(
            {"schema": bench_hotpath.SCHEMA, "results": [], "speedups": {}}
        )
        assert any("non-empty" in e for e in errors)

    def _valid_cell(self, **overrides):
        cell = {
            "name": "x", "dtype": "float32", "num_arrays": 1,
            "array_size": 1, "repeats": 1, "fused_ms": 1.0,
            "unfused_ms": 1.0, "radix_ms": 1.0,
            "planner_ms": 1.0,
            "fused_phase_ms": {}, "unfused_phase_ms": {},
            "radix_phase_ms": {},
            "planner_phase_ms": {}, "planner_engine": "serial",
            "speedup_fused_vs_unfused": 1.0,
            "speedup_radix_vs_fused": 1.0,
            "radix_expected": False,
            "planner_vs_best_static": 1.0,
        }
        cell.update(overrides)
        return cell

    def _report(self, cell):
        return {
            "schema": bench_hotpath.SCHEMA,
            "results": [cell],
            "speedups": {
                "fused_vs_unfused_min": 1.0,
                "fused_vs_unfused_median": 1.0,
                "radix_vs_fused_median": 1.0,
                "planner_vs_best_static_max": 1.0,
            },
        }

    def test_rejects_nonpositive_timing(self):
        errors = bench_hotpath.check_schema(
            self._report(self._valid_cell(fused_ms=0.0))
        )
        assert any("fused_ms" in e for e in errors)

    def test_rejects_missing_planner_column(self):
        cell = self._valid_cell()
        del cell["planner_ms"]
        errors = bench_hotpath.check_schema(self._report(cell))
        assert any("planner_ms" in e for e in errors)

    def test_rejects_missing_radix_column(self):
        cell = self._valid_cell()
        del cell["radix_ms"]
        errors = bench_hotpath.check_schema(self._report(cell))
        assert any("radix_ms" in e for e in errors)

    def test_expected_cell_requires_expected_min_summary(self):
        report = self._report(self._valid_cell(radix_expected=True))
        errors = bench_hotpath.check_schema(report)
        assert any("radix_vs_fused_expected_min" in e for e in errors)
        report["speedups"]["radix_vs_fused_expected_min"] = 2.0
        assert bench_hotpath.check_schema(report) == []


class TestCommittedArtifact:
    """The repo-level BENCH_hotpath.json must stay valid and fast."""

    @pytest.fixture()
    def artifact(self):
        path = REPO_ROOT / "BENCH_hotpath.json"
        if not path.exists():
            pytest.skip("no committed BENCH_hotpath.json (run make bench-hotpath)")
        return json.loads(path.read_text())

    def test_schema_valid(self, artifact):
        assert bench_hotpath.check_schema(artifact) == []

    def test_fused_never_slower(self, artifact):
        assert artifact["speedups"]["fused_vs_unfused_min"] >= 1.0

    def test_planner_within_tolerance_everywhere(self, artifact):
        tol = bench_hotpath.DEFAULT_PLANNER_TOLERANCE
        slack = bench_hotpath.DEFAULT_PLANNER_SLACK_MS
        for cell in artifact["results"]:
            best = min(cell[f"{e}_ms"] for e in bench_hotpath.STATIC_ENGINES)
            assert cell["planner_ms"] <= tol * best + slack, cell["name"]

    def test_radix_gate_holds(self, artifact):
        # Same check `make radix-gate` runs: recompute the gate from the
        # committed numbers and require it to pass at the default floor.
        report = json.loads(json.dumps(artifact))
        assert bench_hotpath.apply_radix_gate(report) is True, (
            report["radix_gate"]["failures"]
        )

    def test_fig4_anchor_speedup(self, artifact):
        fig4 = [r for r in artifact["results"] if r["name"] == "fig4-f32"]
        if not fig4:
            pytest.skip("artifact was regenerated without the fig4 grid")
        cell = fig4[0]
        assert cell["num_arrays"] == 100_000
        assert cell["array_size"] == 1000
        assert cell["dtype"] == "float32"
        # Acceptance: fused >= 2x over the unfused (seed) pipeline.
        assert cell["speedup_fused_vs_unfused"] >= 2.0
