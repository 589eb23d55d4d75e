"""Schema + gate tests for benchmarks/bench_fleet.py.

The full load grid takes minutes; these tests run the smoke grid once
(real fleets, small request counts) and otherwise exercise
``check_schema``/``apply_gates`` on synthetic reports, so every gate
failure mode is covered without re-measuring throughput.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_fleet  # noqa: E402
from _artifact import apply_gates  # noqa: E402

pytestmark = [pytest.mark.fleet, pytest.mark.service]


@pytest.fixture(scope="module")
def smoke_report():
    """One real run of the smallest grid (includes the failover cell)."""
    return bench_fleet.run_grid(
        "smoke",
        size_mix=bench_fleet.parse_size_mix("64:1.0"),
        seed=0,
        linger_ms=5.0,
        worker_bound=bench_fleet.DEFAULT_WORKER_BOUND,
        batch_target=bench_fleet.DEFAULT_BATCH_TARGET,
    )


@pytest.mark.timeout(300)
class TestRunGrid:
    def test_schema_self_valid(self, smoke_report):
        assert bench_fleet.check_schema(smoke_report) == []

    def test_covers_every_cell(self, smoke_report):
        names = [r["name"] for r in smoke_report["results"]]
        grid_names = [c[0] for c in bench_fleet.GRIDS["smoke"]]
        # Smoke has no load-mid-1w so no derived p99 cell, but it does
        # append the failover-drain cell.
        assert names == grid_names + [bench_fleet.FAILOVER_CELL]

    def test_load_cells_measured(self, smoke_report):
        load = [r for r in smoke_report["results"] if r["kind"] == "load"]
        assert load
        for cell in load:
            assert cell["traffic"]["completed"] == cell["total_requests"]
            assert cell["throughput_rps"] > 0
            latency = cell["traffic"]["latency_ms"]
            assert latency["p99"] >= latency["p50"]

    def test_failover_cell_drains_cleanly(self, smoke_report):
        cell = next(r for r in smoke_report["results"]
                    if r["kind"] == "failover")
        assert cell["dropped"] == 0
        assert cell["completed"] == cell["requests_issued"]
        assert cell["correct"] == cell["requests_issued"]
        assert cell["failovers"] >= 1
        assert cell["inflight_at_kill"] > 0

    def test_scaling_summary_consistent(self, smoke_report):
        by_workers = smoke_report["scaling"]["throughput_rps_by_workers"]
        assert by_workers == {
            str(r["workers"]): r["throughput_rps"]
            for r in smoke_report["results"] if r["kind"] == "load"
        }
        # No 4-worker cell in the smoke grid -> no 4w/1w ratio.
        assert smoke_report["scaling"]["speedup_4w_vs_1w"] is None

    def test_json_round_trip(self, smoke_report, tmp_path):
        out = tmp_path / "report.json"
        out.write_text(json.dumps(smoke_report))
        assert bench_fleet.check_schema(json.loads(out.read_text())) == []


def _load_cell(name, workers, rps, p99=10.0):
    return {
        "name": name, "kind": "load", "workers": workers, "clients": 8,
        "total_requests": 64, "array_size": 64, "linger_ms": 5.0,
        "mode": "closed", "offered_rate_rps": None,
        "traffic": {
            "requests_issued": 64, "completed": 64, "wall_seconds": 1.0,
            "throughput_rps": rps,
            "latency_ms": {"p50": 1.0, "p95": 5.0, "p99": p99},
        },
        "fleet_stats": {},
        "throughput_rps": rps,
        "throughput_rows_per_s": rps * 64,
    }


def _failover_cell(**overrides):
    cell = {
        "name": bench_fleet.FAILOVER_CELL, "kind": "failover", "workers": 2,
        "requests_issued": 16, "completed": 16, "correct": 16,
        "dropped": 0, "failovers": 1, "redispatched": 9,
        "fleet_stats": {},
    }
    cell.update(overrides)
    return cell


def _report(*cells):
    results = list(cells)
    return {
        "schema": bench_fleet.SCHEMA,
        "grid": "load",
        "results": results,
        "scaling": {
            "throughput_rps_by_workers": {
                str(r["workers"]): r["throughput_rps"]
                for r in results if r.get("kind") == "load"
            },
            "speedup_4w_vs_1w": None,
        },
    }


def _gateable_report(*, rps_1w=100.0, rps_4w=350.0, p99_2x=50.0,
                     failover=None):
    return _report(
        _load_cell(bench_fleet.GATE_CELL_1W, 1, rps_1w),
        _load_cell(bench_fleet.GATE_CELL_4W, 4, rps_4w),
        _load_cell(bench_fleet.P99_CELL, 4, rps_1w * 2, p99=p99_2x),
        failover if failover is not None else _failover_cell(),
    )


class TestCheckSchema:
    def test_rejects_wrong_schema_tag(self):
        assert bench_fleet.check_schema({"schema": "nope"})
        assert bench_fleet.check_schema({"schema": "bench-service/v1"})

    def test_rejects_empty_results(self):
        errors = bench_fleet.check_schema(
            {"schema": bench_fleet.SCHEMA, "results": [], "scaling": {}}
        )
        assert any("non-empty" in e for e in errors)

    def test_accepts_minimal_valid_report(self):
        assert bench_fleet.check_schema(_gateable_report()) == []

    def test_rejects_missing_latency_percentile(self):
        report = _gateable_report()
        del report["results"][0]["traffic"]["latency_ms"]["p99"]
        assert any("p99" in e for e in bench_fleet.check_schema(report))

    def test_rejects_unknown_cell_kind(self):
        report = _gateable_report()
        report["results"][0]["kind"] = "mystery"
        errors = bench_fleet.check_schema(report)
        assert any("kind" in e for e in errors)

    def test_rejects_failover_cell_missing_counts(self):
        report = _gateable_report()
        del report["results"][-1]["dropped"]
        errors = bench_fleet.check_schema(report)
        assert any("dropped" in e for e in errors)

    def test_rejects_missing_scaling_block(self):
        report = _gateable_report()
        del report["scaling"]
        errors = bench_fleet.check_schema(report)
        assert any("scaling" in e for e in errors)

    def test_rejects_malformed_gate_block(self):
        report = _gateable_report()
        report["gate"] = {"passed": "yes"}
        errors = bench_fleet.check_schema(report)
        assert any("gate" in e for e in errors)


class TestApplyGate:
    def test_passes_good_report_and_stays_schema_valid(self):
        report = _gateable_report()
        assert apply_gates(report, bench_fleet.GATES) is True
        assert report["gate"]["passed"] is True
        assert report["gate"]["failures"] == []
        assert bench_fleet.check_schema(report) == []

    def test_fails_on_low_scaling(self):
        report = _gateable_report(rps_1w=100.0, rps_4w=250.0)
        assert apply_gates(report, bench_fleet.GATES) is False
        assert any("2.50x < 3.00x" in f for f in report["gate"]["failures"])

    def test_fails_on_p99_over_budget(self):
        report = _gateable_report(p99_2x=900.0)
        assert apply_gates(report, bench_fleet.GATES) is False
        assert any("p99" in f for f in report["gate"]["failures"])

    def test_fails_on_dropped_requests(self):
        report = _gateable_report(
            failover=_failover_cell(dropped=1, completed=15, correct=15)
        )
        assert apply_gates(report, bench_fleet.GATES) is False
        failures = report["gate"]["failures"]
        assert any("dropped" in f for f in failures)
        assert any("completed" in f for f in failures)

    def test_fails_on_corrupt_results(self):
        report = _gateable_report(failover=_failover_cell(correct=15))
        assert apply_gates(report, bench_fleet.GATES) is False
        assert any("byte-correct" in f for f in report["gate"]["failures"])

    def test_fails_when_no_failover_happened(self):
        report = _gateable_report(failover=_failover_cell(failovers=0))
        assert apply_gates(report, bench_fleet.GATES) is False
        assert any("no failover" in f for f in report["gate"]["failures"])

    def test_fails_loudly_on_missing_cells(self):
        report = _report(_load_cell("smoke-1w", 1, 100.0))
        assert apply_gates(report, bench_fleet.GATES) is False
        failures = report["gate"]["failures"]
        assert any(bench_fleet.GATE_CELL_4W in f for f in failures)
        assert any(bench_fleet.P99_CELL in f for f in failures)
        assert any(bench_fleet.FAILOVER_CELL in f for f in failures)


class TestCommittedArtifact:
    """The repo-level BENCH_fleet.json must stay valid and gate-worthy."""

    @pytest.fixture()
    def artifact(self):
        path = REPO_ROOT / "BENCH_fleet.json"
        assert path.exists(), "BENCH_fleet.json missing from repo root"
        return json.loads(path.read_text())

    def test_artifact_schema_valid(self, artifact):
        assert bench_fleet.check_schema(artifact) == []

    def test_artifact_passed_its_gate(self, artifact):
        assert apply_gates(artifact, bench_fleet.GATES) is True

    def test_artifact_acceptance_claims(self, artifact):
        """The PR's acceptance criteria, re-checked from the artifact:
        >= 3x single-worker throughput at 4 workers, p99 bounded under
        2x single-worker load, failover drain with zero drops."""
        cells = {r["name"]: r for r in artifact["results"]}
        one = cells[bench_fleet.GATE_CELL_1W]["throughput_rps"]
        four = cells[bench_fleet.GATE_CELL_4W]["throughput_rps"]
        assert four / one >= 3.0
        p99 = cells[bench_fleet.P99_CELL]["traffic"]["latency_ms"]["p99"]
        assert p99 <= artifact["gate"]["p99_budget_ms"]
        failover = cells[bench_fleet.FAILOVER_CELL]
        assert failover["dropped"] == 0
        assert failover["correct"] == failover["requests_issued"]
