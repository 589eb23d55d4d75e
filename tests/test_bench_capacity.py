"""Schema + gate tests for benchmarks/bench_capacity.py.

The load grid takes minutes; these tests run one real smoke cell plus
the kill-resume cell, and otherwise exercise ``check_schema`` /
``apply_gates`` on synthetic reports so every gate failure mode is
covered without re-benchmarking.  The committed ``BENCH_capacity.json``
must itself pass both checks.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_capacity  # noqa: E402
from _artifact import apply_gates  # noqa: E402

pytestmark = pytest.mark.capacity


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One real run of the smallest grid (includes the kill-resume cell)."""
    work_dir = tmp_path_factory.mktemp("bench_capacity_smoke")
    return bench_capacity.run_grid("smoke", seed=0, work_dir=work_dir)


@pytest.mark.timeout(300)
class TestRunGrid:
    def test_schema_self_valid(self, smoke_report):
        assert bench_capacity.check_schema(smoke_report) == []

    def test_covers_every_cell(self, smoke_report):
        names = [r["name"] for r in smoke_report["results"]]
        grid_names = [c[0] for c in bench_capacity.GRIDS["smoke"]]
        assert names == grid_names + [bench_capacity.KILL_CELL]

    def test_oversub_cell_measured(self, smoke_report):
        cell = next(r for r in smoke_report["results"]
                    if r["kind"] == "oversubscription")
        assert cell["completed"] and cell["byte_identical"]
        assert cell["oversubscription"] >= bench_capacity.GATE_MIN_RATIO
        assert cell["num_chunks"] > 1
        assert cell["rows_per_gb"] > 0
        assert cell["stats"]["chunks_committed"] == cell["num_chunks"]

    def test_kill_resume_cell_properties(self, smoke_report):
        cell = next(r for r in smoke_report["results"]
                    if r["kind"] == "kill-resume")
        assert cell["killed_mid_run"]
        assert cell["pre_kill_chunks"] >= 2
        assert cell["chunks_resumed"] >= cell["pre_kill_chunks"]
        assert cell["reemitted_chunks"] == 0
        assert cell["completed"] and cell["byte_identical"]

    def test_gate_passes_on_real_smoke_run(self, smoke_report):
        report = copy.deepcopy(smoke_report)
        assert apply_gates(report, bench_capacity.GATES)
        assert report["gate"]["passed"]
        assert report["gate"]["failures"] == []
        assert bench_capacity.check_schema(report) == []


def synthetic_report():
    return {
        "schema": bench_capacity.SCHEMA,
        "grid": "synthetic",
        "seed": 0,
        "results": [
            {
                "name": "oversub", "kind": "oversubscription",
                "budget": "1M", "budget_bytes": 2**20,
                "rows": 1000, "row_len": 100, "dtype": "float64",
                "total_bytes": 5 * 2**20, "oversubscription": 5.0,
                "chunk_rows": 100, "num_chunks": 10, "rows_per_gb": 100_000,
                "completed": True, "verified": True, "byte_identical": True,
                "wall_seconds": 1.0, "rows_per_s": 1000.0,
                "stats": {"chunks_committed": 10},
            },
            {
                "name": "kill-resume", "kind": "kill-resume",
                "budget": "64K", "budget_bytes": 65536,
                "rows": 600, "row_len": 64, "dtype": "float64",
                "num_chunks": 10, "killed_mid_run": True,
                "pre_kill_chunks": 3, "chunks_resumed": 3,
                "resumed_committed": 7, "reemitted_chunks": 0,
                "completed": True, "byte_identical": True,
                "resume_wall_seconds": 0.5, "resume_stats": {},
            },
        ],
    }


class TestCheckSchema:
    def test_synthetic_valid(self):
        assert bench_capacity.check_schema(synthetic_report()) == []

    def test_flags_wrong_schema_string(self):
        report = synthetic_report()
        report["schema"] = "bench-capacity/v0"
        assert bench_capacity.check_schema(report)

    def test_flags_missing_key_and_bad_kind(self):
        report = synthetic_report()
        del report["results"][0]["byte_identical"]
        report["results"][1]["kind"] = "mystery"
        errors = bench_capacity.check_schema(report)
        assert any("byte_identical" in e for e in errors)
        assert any("kind" in e for e in errors)

    def test_flags_empty_results(self):
        assert bench_capacity.check_schema(
            {"schema": bench_capacity.SCHEMA, "results": []}
        )


class TestApplyGate:
    def test_passes_on_good_report(self):
        report = synthetic_report()
        assert apply_gates(report, bench_capacity.GATES)
        assert report["gate"]["best_oversubscription"] == 5.0

    def test_fails_below_min_ratio(self):
        report = synthetic_report()
        report["results"][0]["oversubscription"] = 2.0
        assert not apply_gates(report, bench_capacity.GATES)
        assert any("oversubscription" in f
                   for f in report["gate"]["failures"])

    def test_fails_without_byte_identity(self):
        report = synthetic_report()
        report["results"][0]["byte_identical"] = False
        assert not apply_gates(report, bench_capacity.GATES)

    def test_fails_when_child_not_killed(self):
        report = synthetic_report()
        report["results"][1]["killed_mid_run"] = False
        assert not apply_gates(report, bench_capacity.GATES)
        assert any("killed" in f for f in report["gate"]["failures"])

    def test_fails_on_reemission(self):
        report = synthetic_report()
        report["results"][1]["reemitted_chunks"] = 2
        assert not apply_gates(report, bench_capacity.GATES)
        assert any("re-emitted" in f for f in report["gate"]["failures"])

    def test_fails_when_nothing_resumed(self):
        report = synthetic_report()
        report["results"][1]["chunks_resumed"] = 0
        assert not apply_gates(report, bench_capacity.GATES)

    def test_fails_without_kill_cell(self):
        report = synthetic_report()
        report["results"] = report["results"][:1]
        assert not apply_gates(report, bench_capacity.GATES)
        assert any("missing" in f for f in report["gate"]["failures"])


class TestCommittedArtifact:
    """The committed BENCH_capacity.json must satisfy its own gate."""

    @pytest.fixture(scope="class")
    def artifact(self):
        path = REPO_ROOT / "BENCH_capacity.json"
        if not path.exists():
            pytest.skip("BENCH_capacity.json not generated yet")
        return json.loads(path.read_text())

    def test_schema_valid(self, artifact):
        assert bench_capacity.check_schema(artifact) == []

    def test_gate_passes(self, artifact):
        report = copy.deepcopy(artifact)
        assert apply_gates(report, bench_capacity.GATES), \
            report["gate"]["failures"]

    def test_committed_gate_block_matches(self, artifact):
        assert artifact["gate"]["passed"] is True
        best = artifact["gate"]["best_oversubscription"]
        assert best >= bench_capacity.GATE_MIN_RATIO
