"""Schema + gate tests for benchmarks/bench_service.py (tiny grid)."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_service  # noqa: E402
from _artifact import apply_gates  # noqa: E402

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def smoke_report():
    """One real run of the smallest grid — a second or two, not minutes."""
    return bench_service.run_grid(
        "smoke",
        size_mix=bench_service.parse_size_mix("1:0.7,4:0.3"),
        seed=0,
    )


class TestRunGrid:
    def test_schema_self_valid(self, smoke_report):
        assert bench_service.check_schema(smoke_report) == []

    def test_covers_every_cell(self, smoke_report):
        names = [r["name"] for r in smoke_report["results"]]
        assert names == [c[0] for c in bench_service.GRIDS["smoke"]]

    def test_both_sides_measured(self, smoke_report):
        for cell in smoke_report["results"]:
            for side in ("batched", "unbatched"):
                block = cell[side]
                assert block["requests_issued"] > 0
                assert block["completed"] > 0
                assert block["wall_seconds"] > 0
                assert block["throughput_rps"] > 0
                assert block["latency_ms"]["p99"] >= block["latency_ms"]["p50"]
            assert cell["speedup_batched_vs_unbatched"] > 0

    def test_service_stats_embedded(self, smoke_report):
        for cell in smoke_report["results"]:
            stats = cell["service_stats"]
            assert stats["batches"] >= 1
            assert stats["batched_rows"] >= stats["batches"]
            # Coalescing must actually have happened: fewer batches than
            # completed requests.
            assert stats["batches"] < cell["batched"]["completed"]

    def test_speedup_summary_consistent(self, smoke_report):
        by_cell = smoke_report["speedups"]["batched_vs_unbatched_by_cell"]
        assert by_cell == {
            r["name"]: r["speedup_batched_vs_unbatched"]
            for r in smoke_report["results"]
        }
        assert smoke_report["speedups"]["batched_vs_unbatched_max"] == max(
            by_cell.values()
        )

    def test_gate_pass_fail_and_missing_cell(self, smoke_report):
        report = json.loads(json.dumps(smoke_report))  # work on a copy
        (gate,) = bench_service.GATES

        def gated(**thresholds):
            return apply_gates(report, [dataclasses.replace(
                gate, thresholds={**gate.thresholds, **thresholds}
            )])

        # The smoke grid has no load-mid cell: the gate must fail loudly,
        # not silently pass.
        assert gated(min_speedup=0.0) is False
        assert any("load-mid" in f for f in report["gate"]["failures"])
        # Gating against the smoke cell itself exercises both branches.
        assert gated(min_speedup=0.0, p99_budget_ms=1e9, cell="smoke") is True
        assert report["gate"]["passed"] is True
        assert gated(min_speedup=1e9, cell="smoke") is False
        assert report["gate"]["failures"]
        # p99 budget violation is its own failure mode
        assert gated(min_speedup=0.0, p99_budget_ms=-1e9, cell="smoke") is False
        assert any("p99" in f for f in report["gate"]["failures"])
        # gate block itself must stay schema-valid
        assert bench_service.check_schema(report) == []

    def test_json_round_trip(self, smoke_report, tmp_path):
        out = tmp_path / "report.json"
        out.write_text(json.dumps(smoke_report))
        assert bench_service.check_schema(json.loads(out.read_text())) == []


class TestCheckSchema:
    def test_rejects_wrong_schema_tag(self):
        assert bench_service.check_schema({"schema": "nope"})
        assert bench_service.check_schema({"schema": "bench-hotpath/v2"})

    def test_rejects_empty_results(self):
        errors = bench_service.check_schema(
            {"schema": bench_service.SCHEMA, "results": [], "speedups": {}}
        )
        assert any("non-empty" in e for e in errors)

    def _valid_side(self):
        return {
            "requests_issued": 1, "completed": 1, "wall_seconds": 1.0,
            "throughput_rps": 1.0, "throughput_rows_per_s": 1.0,
            "latency_ms": {"p50": 1.0, "p95": 1.0, "p99": 1.0},
        }

    def _valid_cell(self, **overrides):
        cell = {
            "name": "x", "clients": 1, "total_requests": 1,
            "array_size": 1, "linger_ms": 1.0, "deadline_ms": None,
            "batched": self._valid_side(),
            "unbatched": self._valid_side(),
            "service_stats": {},
            "speedup_batched_vs_unbatched": 1.0,
        }
        cell.update(overrides)
        return cell

    def _report(self, cell):
        return {
            "schema": bench_service.SCHEMA,
            "results": [cell],
            "speedups": {"batched_vs_unbatched_max": 1.0},
        }

    def test_accepts_minimal_valid_report(self):
        assert bench_service.check_schema(self._report(self._valid_cell())) == []

    def test_rejects_missing_latency_percentile(self):
        cell = self._valid_cell()
        del cell["batched"]["latency_ms"]["p99"]
        errors = bench_service.check_schema(self._report(cell))
        assert any("p99" in e for e in errors)

    def test_rejects_missing_side(self):
        cell = self._valid_cell()
        del cell["unbatched"]
        errors = bench_service.check_schema(self._report(cell))
        assert any("unbatched" in e for e in errors)


class TestCommittedArtifact:
    """The repo-level BENCH_service.json must stay valid and gate-worthy."""

    @pytest.fixture()
    def artifact(self):
        path = REPO_ROOT / "BENCH_service.json"
        assert path.exists(), "BENCH_service.json missing from repo root"
        return json.loads(path.read_text())

    def test_artifact_schema_valid(self, artifact):
        assert bench_service.check_schema(artifact) == []

    def test_artifact_passed_its_gate(self, artifact):
        assert apply_gates(artifact, bench_service.GATES) is True

    def test_artifact_mid_cell_hits_two_x(self, artifact):
        """The PR's acceptance claim: >= 2x batched throughput at the
        mid traffic cell, p99 inside the linger + deadline budget."""
        cell = next(
            r for r in artifact["results"]
            if r["name"] == bench_service.GATE_CELL
        )
        assert cell["speedup_batched_vs_unbatched"] >= 2.0
        budget = cell["linger_ms"] + cell["deadline_ms"]
        assert cell["batched"]["latency_ms"]["p99"] <= budget
