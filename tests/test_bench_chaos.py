"""Schema + gate tests for benchmarks/bench_chaos.py, and the committed
BENCH_chaos.json artifact's standing obligations."""

import copy
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_chaos  # noqa: E402
from _artifact import apply_gates  # noqa: E402

pytestmark = [pytest.mark.service, pytest.mark.chaos]


@pytest.fixture(scope="module")
def smoke_report():
    """One real run of the smallest grid — a second or two."""
    return bench_chaos.run_grid("smoke", seed=0)


class TestRunGrid:
    def test_schema_self_valid(self, smoke_report):
        assert bench_chaos.check_schema(smoke_report) == []

    def test_covers_every_cell(self, smoke_report):
        names = [r["name"] for r in smoke_report["results"]]
        assert names == [c[0] for c in bench_chaos.GRIDS["smoke"]]

    def test_three_phases_embedded(self, smoke_report):
        for cell in smoke_report["results"]:
            for phase in ("baseline", "faulted", "flood"):
                block = cell["report"][phase]
                assert block["traffic"]
                assert block["tenants"]
                assert block["metrics"]["schema"] == "repro-service-metrics/v1"

    def test_faulted_phase_saw_injected_faults(self, smoke_report):
        for cell in smoke_report["results"]:
            injected = (cell["report"]["faulted"]["metrics"]["backend"]
                        ["fault_plan"]["injected"])
            assert injected["launches_seen"] > 0

    def test_json_serializable(self, smoke_report):
        json.dumps(smoke_report)


class TestCheckSchema:
    def test_rejects_wrong_schema_string(self, smoke_report):
        bad = dict(smoke_report, schema="bench-chaos/v0")
        assert any("schema" in e for e in bench_chaos.check_schema(bad))

    def test_rejects_empty_results(self):
        assert bench_chaos.check_schema({"schema": bench_chaos.SCHEMA,
                                         "results": []})

    def test_rejects_missing_slo_fields(self, smoke_report):
        bad = copy.deepcopy(smoke_report)
        del bad["results"][0]["slos"]["isolation_ok"]
        assert any("isolation_ok" in e for e in bench_chaos.check_schema(bad))


def _gated(report):
    """A deep copy of a report with its gate cell renamed to chaos-mid."""
    gated = copy.deepcopy(report)
    gated["results"][0]["name"] = bench_chaos.GATE_CELL
    return gated


class TestApplyGate:
    def test_missing_cell_fails(self, smoke_report):
        report = copy.deepcopy(smoke_report)  # only chaos-smoke inside
        assert not apply_gates(report, bench_chaos.GATES)
        assert "chaos-mid" in report["gate"]["failures"][0]

    def test_cross_tenant_quarantine_fails(self, smoke_report):
        report = _gated(smoke_report)
        report["results"][0]["slos"]["cross_tenant_quarantines"] = 2
        assert not apply_gates(report, bench_chaos.GATES)
        assert any("isolation" in f for f in report["gate"]["failures"])

    def test_unfired_probe_fails(self, smoke_report):
        report = _gated(smoke_report)
        cell = report["results"][0]
        traffic = cell["report"]["faulted"]["traffic"]
        traffic[cell["poison_tenant"]]["quarantined"] = 0
        assert not apply_gates(report, bench_chaos.GATES)
        assert any("probe" in f for f in report["gate"]["failures"])

    def test_p99_over_budget_fails(self, smoke_report):
        report = _gated(smoke_report)
        report["results"][0]["slos"]["p99_ratio"] = 2.7
        assert not apply_gates(report, bench_chaos.GATES)
        assert any("p99" in f for f in report["gate"]["failures"])
        # the gate recomputes from numbers: a hand-edited ok flag is moot
        report2 = _gated(smoke_report)
        report2["results"][0]["slos"]["p99_ratio"] = 2.7
        report2["results"][0]["slos"]["ok"] = True
        assert not apply_gates(report2, bench_chaos.GATES)

    def test_innocent_rejection_rate_fails(self, smoke_report):
        report = _gated(smoke_report)
        report["results"][0]["slos"]["innocent_rejection_rates"]["alpha"] = 0.2
        assert not apply_gates(report, bench_chaos.GATES)
        assert any("alpha" in f for f in report["gate"]["failures"])


class TestCommittedArtifact:
    """BENCH_chaos.json is a standing claim; it must keep satisfying both
    the schema and the gate exactly as `make chaos-gate` checks them."""

    @pytest.fixture(scope="class")
    def committed(self):
        path = REPO_ROOT / "BENCH_chaos.json"
        assert path.exists(), "BENCH_chaos.json must be committed"
        return json.loads(path.read_text())

    def test_every_cell_holds_slos(self, committed):
        for cell in committed["results"]:
            slos = cell["slos"]
            assert slos["ok"], slos
            # The stored verdict agrees with the stored numbers.
            assert slos["cross_tenant_quarantines"] == 0
            assert slos["p99_ratio"] <= slos["p99_budget_factor"] == 2.0
            assert max(slos["innocent_rejection_rates"].values()) <= (
                slos["max_rejection_rate"])

    def test_schema_valid(self, committed):
        assert bench_chaos.check_schema(committed) == []

    def test_gate_passes(self, committed):
        # The gate logic's passing case runs on these fixed numbers: a
        # live run's p99 ratio moves with the load on the host.
        report = copy.deepcopy(committed)
        assert apply_gates(report, bench_chaos.GATES), \
            report["gate"]["failures"]
        assert report["gate"]["passed"]
        assert report["gate"]["failures"] == []

    def test_gate_cell_present_with_flood_pressure(self, committed):
        cell = next(r for r in committed["results"]
                    if r["name"] == bench_chaos.GATE_CELL)
        flood = cell["report"]["flood"]["tenants"][cell["flood_tenant"]]
        # the committed artifact must show the flooder actually being
        # pushed back (otherwise fairness passed vacuously)
        assert flood["rejected_quota"] > 0
