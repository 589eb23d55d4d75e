"""Fleet metrics export: JSON schema, Prometheus families, per-worker
and aggregate views, hostile-label safety."""

import json
import mmap

import numpy as np
import pytest

from repro.fleet import (
    FLEET_METRICS_SCHEMA,
    SortFleet,
    collect_fleet_metrics,
    render_fleet_prometheus,
)

pytestmark = [pytest.mark.fleet, pytest.mark.service]

RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def served_fleet():
    with SortFleet(workers=2, linger_ms=1.0, heartbeat_s=0.02,
                   liveness_s=2.0, start_timeout_s=60.0) as fl:
        for _ in range(4):
            batch = RNG.integers(0, 100, size=(3, 16)).astype(np.float32)
            fl.submit(batch, tenant="alpha").result(timeout=30)
        fl.submit(
            RNG.integers(0, 100, size=(3, 16)).astype(np.float32),
            tenant='evil"tenant\nname\\',
        ).result(timeout=30)
        fl.flush(timeout=30)
        yield fl


class TestCollect:
    def test_schema_and_json_round_trip(self, served_fleet):
        metrics = collect_fleet_metrics(served_fleet)
        assert metrics["schema"] == FLEET_METRICS_SCHEMA
        # Strictly JSON-serializable, round-trips intact.
        assert json.loads(json.dumps(metrics)) == json.loads(
            json.dumps(metrics)
        )

    def test_fleet_counters(self, served_fleet):
        fleet_block = collect_fleet_metrics(served_fleet)["fleet"]
        assert fleet_block["submitted"] == 5
        assert fleet_block["completed"] == 5
        assert fleet_block["workers_total"] == 2
        assert fleet_block["workers_alive"] == 2
        assert fleet_block["failovers"] == 0
        assert fleet_block["inflight_requests"] == 0
        # Five sequential (3, 16) float32 requests: pooled slabs of the
        # smallest (one-page) class are reused, and none was retired.
        assert 1 <= fleet_block["slabs_created"] <= 2
        assert fleet_block["slabs_retired"] == 0
        assert fleet_block["slab_pool_bytes"] == (
            fleet_block["slabs_created"] * mmap.PAGESIZE
        )

    def test_per_worker_view(self, served_fleet):
        workers = collect_fleet_metrics(served_fleet)["workers"]
        assert set(workers) == {"0", "1"}
        for block in workers.values():
            assert block["alive"] is True
            assert block["pid"] > 0
            assert block["outstanding_rows"] == 0
            assert isinstance(block["service"], dict)
        assert sum(b["completed"] for b in workers.values()) == 5

    def test_aggregate_sums_worker_services(self, served_fleet):
        # The workers' services run in the parent: their counters are
        # exact once the fixture's flush() returned.
        aggregate = collect_fleet_metrics(served_fleet)["aggregate"]
        assert aggregate["completed"] == 5
        assert aggregate["submitted"] == 5
        assert aggregate["batched_rows"] == 15
        assert set(aggregate) >= {"batches", "batched_rows", "failed"}

    def test_tenant_slices(self, served_fleet):
        tenants = collect_fleet_metrics(served_fleet)["tenants"]
        assert tenants["alpha"]["completed"] == 4
        assert tenants['evil"tenant\nname\\']["completed"] == 1


class TestRender:
    def test_families_present(self, served_fleet):
        text = render_fleet_prometheus(collect_fleet_metrics(served_fleet))
        assert "repro_fleet_submitted_total 5" in text
        assert "repro_fleet_completed_total 5" in text
        assert "repro_fleet_workers_alive 2" in text
        assert "repro_fleet_failovers_total 0" in text
        assert "repro_fleet_slab_created_total " in text
        assert "repro_fleet_slab_retired_total 0" in text
        assert "repro_fleet_slab_pool_bytes " in text
        assert 'repro_fleet_worker_alive{worker="0"} 1' in text
        assert 'repro_fleet_worker_alive{worker="1"} 1' in text
        assert "repro_fleet_aggregate_completed_total" in text
        assert 'repro_fleet_tenant_completed_total{tenant="alpha"} 4' in text

    def test_hostile_tenant_label_is_escaped(self, served_fleet):
        text = render_fleet_prometheus(collect_fleet_metrics(served_fleet))
        # The raw newline/quote must not appear inside any label value.
        assert 'tenant="evil\\"tenant\\nname\\\\"' in text
        for line in text.splitlines():
            assert "\r" not in line
        # Exposition stays one-series-per-line despite the newline in
        # the tenant id.
        assert "\nname" not in text.replace("\\nname", "")

    def test_custom_prefix(self, served_fleet):
        text = render_fleet_prometheus(
            collect_fleet_metrics(served_fleet), prefix="acme"
        )
        assert "acme_submitted_total" in text
        assert "repro_fleet" not in text

    def test_render_tolerates_empty_snapshot(self):
        assert render_fleet_prometheus({}) == "\n"
