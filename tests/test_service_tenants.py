"""Multi-tenant QoS: WFQ fairness tags, quotas, per-tenant stats,
retry-after jitter, and the metrics export surface.

The batcher tests exercise the start-time-fair-queuing bookkeeping with
a synthetic clock and no threads; the service tests use tiny real
services; the jitter test is purely statistical on the submit path.
"""

import json

import numpy as np
import pytest

from repro.service import (
    DynamicBatcher,
    QueuedRequest,
    RejectedError,
    SortService,
    StatsRecorder,
    TenantQuota,
    collect_metrics,
    render_prometheus,
)

pytestmark = pytest.mark.service


def _request(seq, rows=1, row_len=8, tenant="default", deadline=None,
             priority=0, enqueued_at=0.0):
    return QueuedRequest(
        seq=seq,
        arrays=np.zeros((rows, row_len), dtype=np.float32),
        deadline=deadline,
        priority=priority,
        enqueued_at=enqueued_at,
        future=None,
        tenant=tenant,
    )


def _batcher(**kwargs):
    kwargs.setdefault("target_rows", 8)
    kwargs.setdefault("max_batch_rows", 32)
    kwargs.setdefault("linger_s", 10.0)
    return DynamicBatcher(**kwargs)


class TestWfqTags:
    def test_finish_tags_scale_inversely_with_weight(self):
        b = _batcher(tenant_weights={"heavy": 2.0, "light": 1.0})
        heavy = _request(0, rows=4, tenant="heavy")
        light = _request(1, rows=4, tenant="light")
        b.add(heavy)
        b.add(light)
        assert heavy.vfinish == pytest.approx(2.0)  # 4 rows / weight 2
        assert light.vfinish == pytest.approx(4.0)  # 4 rows / weight 1

    def test_backlog_accumulates_finish_tags(self):
        b = _batcher()
        tags = []
        for seq in range(3):
            r = _request(seq, rows=2, tenant="flood")
            b.add(r)
            tags.append(r.vfinish)
        assert tags == sorted(tags)
        assert tags[-1] == pytest.approx(6.0)  # 3 requests x 2 rows / 1.0

    def test_idle_tenant_earns_no_credit(self):
        """A tenant that sat out does not get to replay the past: its next
        vstart is floored at the advanced virtual time."""
        b = _batcher(target_rows=2)
        for seq in range(4):
            b.add(_request(seq, rows=2, tenant="busy"))
        lane = b.ready_lane(now=0.0)
        b.pop_batch(lane, now=0.0)  # advances the virtual clock
        late = _request(99, rows=2, tenant="latecomer")
        b.add(late)
        assert late.vstart >= 0.0
        busy_next = _request(100, rows=2, tenant="busy")
        b.add(busy_next)
        # The busy tenant's backlog tags stay ahead of the newcomer's.
        assert busy_next.vfinish > late.vfinish

    def test_flooder_sorts_behind_fresh_tenant_in_pop(self):
        """Equal urgency (no deadlines, default priority): the WFQ finish
        tag decides, so a flooding tenant's 5th queued row loses to
        another tenant's 1st."""
        b = _batcher(target_rows=1, max_batch_rows=2)
        for seq in range(5):
            b.add(_request(seq, rows=1, tenant="flood"))
        b.add(_request(5, rows=1, tenant="fresh"))
        lane = b.ready_lane(now=0.0)
        taken = b.pop_batch(lane, now=0.0)
        tenants = [r.tenant for r in taken]
        # The flooder's first request is legitimately first (earliest
        # finish tag); the fresh tenant beats the flooder's backlog.
        assert tenants == ["flood", "fresh"]

    def test_deadline_still_dominates_fairness(self):
        b = _batcher(target_rows=1, max_batch_rows=1)
        b.add(_request(0, rows=1, tenant="fresh"))
        urgent = _request(1, rows=1, tenant="flood", deadline=1.0)
        b.add(urgent)
        lane = b.ready_lane(now=0.0)
        taken = b.pop_batch(lane, now=0.0)
        assert taken == [urgent]

    def test_tenant_accounting_through_lifecycle(self):
        b = _batcher(target_rows=4)
        b.add(_request(0, rows=3, tenant="a"))
        b.add(_request(1, rows=1, tenant="b", deadline=5.0))
        assert b.tenant_queue_rows("a") == 3
        assert b.tenant_queue_requests("b") == 1
        assert b.tenant_backlog() == {"a": 3, "b": 1}
        assert b.shed_expired(now=10.0)  # b's deadline passed
        assert b.tenant_queue_rows("b") == 0
        lane = b.ready_lane(now=0.0, drain=True)
        b.pop_batch(lane, now=0.0)
        assert b.tenant_queue_rows("a") == 0
        assert b.tenant_backlog() == {}

    def test_idle_tenant_state_garbage_collected(self):
        b = _batcher(target_rows=1)
        b.add(_request(0, rows=1, tenant="transient"))
        lane = b.ready_lane(now=0.0)
        b.pop_batch(lane, now=0.0)
        # Still tracked: its finish tag (1.0) is ahead of the virtual
        # clock, so a quick return submission must start from it.
        assert "transient" in b._tenant_vfinish
        # Once another tenant's dispatches advance the clock past that
        # tag, the entry carries no information and is dropped.
        for seq in range(1, 4):
            b.add(_request(seq, rows=1, tenant="busy"))
        lane = b.ready_lane(now=0.0)
        b.pop_batch(lane, now=0.0)
        assert "transient" not in b._tenant_vfinish

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            _batcher(tenant_weights={"bad": 0.0})
        with pytest.raises(ValueError, match="default_tenant_weight"):
            _batcher(default_tenant_weight=-1.0)


class TestTenantQuota:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(max_queued_rows=0)
        with pytest.raises(ValueError):
            TenantQuota(max_queued_requests=-1)
        assert TenantQuota().max_queued_rows is None

    def test_int_shorthand_and_lookup(self):
        with SortService(batch_target_rows=16,
                         tenant_quotas={"small": 4}) as svc:
            assert svc.tenant_quota("small") == TenantQuota(max_queued_rows=4)
            assert svc.tenant_quota("other") is None

    def test_quota_rejection_is_tenant_scoped(self):
        """A tenant at quota is rejected with reason="tenant-quota" while
        another tenant is still admitted."""
        with SortService(batch_target_rows=64, linger_ms=50.0,
                         tenant_quotas={"capped": 2}) as svc:
            arrays = np.random.default_rng(0).uniform(size=(1, 16))
            f1 = svc.submit(arrays, tenant="capped")
            f2 = svc.submit(arrays, tenant="capped")
            with pytest.raises(RejectedError) as exc_info:
                svc.submit(arrays, tenant="capped")
            assert exc_info.value.reason == "tenant-quota"
            assert exc_info.value.tenant == "capped"
            assert exc_info.value.retry_after > 0
            f3 = svc.submit(arrays, tenant="free")  # shared queue has room
            svc.flush()
            for f in (f1, f2, f3):
                np.testing.assert_array_equal(
                    f.result(timeout=10), np.sort(arrays, axis=1)
                )
            stats = svc.stats()
        capped = stats.tenants["capped"]
        assert capped.rejected == 1
        assert capped.rejected_quota == 1
        assert capped.rejection_rate == pytest.approx(1 / 3)
        assert stats.tenants["free"].rejected == 0

    def test_default_tenant_quota_applies_to_unlisted(self):
        with SortService(batch_target_rows=64, linger_ms=50.0,
                         default_tenant_quota=TenantQuota(
                             max_queued_requests=1)) as svc:
            arrays = np.zeros((1, 8), dtype=np.float32)
            svc.submit(arrays, tenant="anyone")
            with pytest.raises(RejectedError) as exc_info:
                svc.submit(arrays, tenant="anyone")
            assert exc_info.value.reason == "tenant-quota"
            svc.flush()

    def test_empty_tenant_rejected(self):
        with SortService(batch_target_rows=16) as svc:
            with pytest.raises(ValueError, match="tenant"):
                svc.submit(np.zeros((1, 8), dtype=np.float32), tenant="")

    def test_per_tenant_latency_recorded(self):
        with SortService(batch_target_rows=4, linger_ms=0.5) as svc:
            rng = np.random.default_rng(1)
            futures = [
                svc.submit(rng.uniform(size=(1, 16)), tenant=t)
                for t in ("a", "b", "a")
            ]
            for f in futures:
                f.result(timeout=10)
            stats = svc.stats()
        assert stats.tenants["a"].completed == 2
        assert stats.tenants["b"].completed == 1
        assert stats.tenants["a"].latency_ms["p99"] > 0


class TestRetryJitter:
    """Anti-stampede satellite: retry_after hints are floored and carry a
    bounded random stretch so rejected fleets disperse."""

    def _rejected_hints(self, svc, count):
        arrays = np.zeros((8, 8), dtype=np.float32)
        hints = []
        for _ in range(count):
            with pytest.raises(RejectedError) as exc_info:
                svc.submit(arrays, tenant="flood")
            hints.append(exc_info.value.retry_after)
        return hints

    def _stuffed_service(self, **kwargs):
        # Stuff *below* the batch target so the lane cannot become ready
        # until the (long) linger expires — the queue provably stays full
        # while we probe, no matter how the threads get scheduled.
        svc = SortService(batch_target_rows=64, max_queue_rows=64,
                          linger_ms=2000.0, **kwargs)
        svc.submit(np.zeros((63, 8), dtype=np.float32))
        return svc

    def test_hints_disperse_within_bounds(self):
        svc = self._stuffed_service(retry_jitter_seed=123)
        try:
            hints = self._rejected_hints(svc, 40)
        finally:
            svc.close(drain=False)
        floor = max(svc.linger_ms / 1e3, 1e-3)
        base = 2 * floor  # no throughput EMA yet
        assert all(base <= h <= base * (1 + svc.retry_jitter) for h in hints)
        assert len(set(hints)) > 1  # genuinely dispersed
        spread = max(hints) - min(hints)
        assert spread > 0.05 * base

    def test_zero_jitter_is_deterministic(self):
        svc = self._stuffed_service(retry_jitter=0.0)
        try:
            hints = self._rejected_hints(svc, 5)
        finally:
            svc.close(drain=False)
        assert len(set(hints)) == 1

    def test_seeded_jitter_reproduces(self):
        seq = []
        for _ in range(2):
            svc = self._stuffed_service(retry_jitter_seed=7)
            try:
                seq.append(tuple(self._rejected_hints(svc, 10)))
            finally:
                svc.close(drain=False)
        assert seq[0] == seq[1]

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="retry_jitter"):
            SortService(batch_target_rows=16, retry_jitter=-0.1)

    def test_recorder_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            StatsRecorder(latency_window=0)
        with pytest.raises(ValueError):
            StatsRecorder(tenant_latency_window=0)


class TestMetricsExport:
    @pytest.fixture()
    def served(self):
        with SortService(batch_target_rows=4, linger_ms=0.5,
                         tenant_quotas={"capped": 1}) as svc:
            rng = np.random.default_rng(2)
            futures = [
                svc.submit(rng.uniform(size=(1, 16)), tenant=t)
                for t in ("alpha", "beta", "alpha")
            ]
            for f in futures:
                f.result(timeout=10)
            yield svc

    def test_collect_metrics_shape(self, served):
        metrics = collect_metrics(served)
        assert metrics["schema"] == "repro-service-metrics/v1"
        assert metrics["service"]["submitted"] == 3
        assert metrics["service"]["completed"] == 3
        assert metrics["queue"]["depth_rows"] == 0
        assert metrics["queue"]["max_queue_rows"] == served.max_queue_rows
        assert set(metrics["tenants"]) == {"alpha", "beta"}
        assert metrics["tenants"]["alpha"]["admitted"] == 2
        assert metrics["tenants"]["alpha"]["rejection_rate"] == 0.0
        json.dumps(metrics)  # JSON-ready end to end

    def test_backend_block_present_for_resilient(self):
        with SortService(backend="resilient", batch_target_rows=4,
                         linger_ms=0.5) as svc:
            svc.submit(np.random.default_rng(3).uniform(size=(2, 16)))
            svc.flush()
            metrics = collect_metrics(svc)
        assert metrics["backend"]["type"] == "ResilientSorter"
        assert metrics["backend"]["resilience"]["attempts"] >= 1

    def test_plain_backend_has_no_backend_block(self, served):
        assert "backend" not in collect_metrics(served)

    def test_render_prometheus_lines(self, served):
        text = render_prometheus(collect_metrics(served))
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "repro_service_submitted_total 3" in lines
        assert any(
            line.startswith('repro_service_tenant_admitted_total{tenant="alpha"} ')
            for line in lines
        )
        assert any(
            'quantile="p99"' in line
            for line in lines
            if line.startswith("repro_service_latency_ms")
        )
        # every line is "name{labels} value" with a numeric value
        for line in lines:
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name

    def test_label_escaping(self):
        from repro.service.metrics import _label

        assert _label('he said "hi"\n') == r'he said \"hi\"\n'
        assert _label("back\\slash") == r"back\\slash"

    def test_tenant_backlog_surface(self):
        with SortService(batch_target_rows=64, linger_ms=100.0) as svc:
            svc.submit(np.zeros((3, 8), dtype=np.float32), tenant="x")
            assert svc.tenant_backlog() == {"x": 3}
            metrics = collect_metrics(svc)
            assert metrics["queue"]["tenant_backlog_rows"] == {"x": 3}
            svc.flush()
            assert svc.tenant_backlog() == {}
