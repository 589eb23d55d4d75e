"""Dynamic batching core: queues, lanes, and dispatch decisions.

The batcher is the piece that turns many small concurrent requests into
the large batches GPU-ArraySort is actually good at — the paper's whole
advantage over STA is amortizing fixed per-launch cost across thousands
of arrays, so a serving front-end that sorts each request alone throws
that advantage away.

Requests are grouped into **lanes** keyed by ``(row_len, dtype)``: only
same-shape arrays can share one ``(N, n)`` batch.  Within a lane the
dispatch order is **EDF-over-WFQ**: earliest deadline first, then
priority, then the request's **weighted-fair-queuing virtual finish
time**, then arrival.  The WFQ layer is start-time fair queuing over
tenants — at admission a request is stamped

* ``vstart  = max(global virtual time, tenant's last vfinish)``
* ``vfinish = vstart + rows / tenant weight``

and the global virtual time advances to the largest ``vstart`` actually
dispatched.  A tenant that floods the queue accumulates ever-later
finish tags, so its backlog sorts *behind* every other tenant's fresh
requests instead of starving them; an idle tenant earns no unbounded
credit because its next ``vstart`` is floored at the current virtual
time.  Deadlines and priorities still dominate (the EDF layer is
unchanged) — fairness arbitrates only among requests of equal urgency,
which is exactly the flooding-tenant case (no deadline, default
priority).

A lane becomes *ready* when either

* its queued rows reach the batch size target (by default
  :data:`repro.service.service.DEFAULT_BATCH_TARGET_ROWS`), or
* its oldest request has lingered past ``linger_s`` (bounded latency for
  trickle traffic), or
* the service is draining (flush/close).

Each lane keeps its queued rows as a running count, and
:meth:`DynamicBatcher.add` returns it: ``SortService.submit`` reads it
on every request to tell one that fills its lane (and must wake the
batcher thread) from one that only joins it.

This module is deliberately free of clocks and futures: every method
takes ``now`` explicitly, so the whole decision surface is unit testable
with a synthetic clock.  :class:`~repro.service.SortService` owns the
worker thread and the real clock, and serializes *compound* decisions
(ready? → pop → dispatch) under its own lock; the batcher additionally
guards its queue state with an internal lock so each individual
operation is safe even for callers outside the service lock
(defense-in-depth — the service lock remains what makes multi-call
sequences atomic).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..statan import runtime as _sanitizer

__all__ = ["QueuedRequest", "Lane", "DynamicBatcher"]


@dataclasses.dataclass
class QueuedRequest:
    """One caller request waiting for (or riding in) a batch."""

    #: Monotonic admission sequence number — the FIFO tiebreaker.
    seq: int
    #: The caller's ``(rows, row_len)`` arrays (not copied at submit;
    #: callers must not mutate them until the future resolves).
    arrays: np.ndarray
    #: Absolute deadline on the service clock, or ``None`` for "whenever".
    deadline: Optional[float]
    #: Smaller = more urgent; tiebreaker between equal deadlines.
    priority: int
    #: Service-clock time the request was admitted.
    enqueued_at: float
    #: ``concurrent.futures.Future`` the caller holds (``object`` here to
    #: keep this module future-agnostic).
    future: object
    #: Copy the demuxed result out of the batch (True) or hand a
    #: zero-copy view valid until the next dispatch (False).
    copy: bool = True
    #: Submitted as a single 1-D array; the demuxed result unwraps to 1-D.
    single: bool = False
    #: Owning tenant (QoS accounting and WFQ fairness).
    tenant: str = "default"
    #: WFQ virtual start tag, stamped by :meth:`DynamicBatcher.add`.
    vstart: float = 0.0
    #: WFQ virtual finish tag (``vstart + rows / weight``).
    vfinish: float = 0.0

    @property
    def rows(self) -> int:
        return int(self.arrays.shape[0])

    def edf_key(self) -> Tuple[float, int, float, int]:
        """Dispatch ordering: deadline, priority, WFQ finish tag, arrival."""
        deadline = self.deadline if self.deadline is not None else math.inf
        return (deadline, self.priority, self.vfinish, self.seq)


class Lane:
    """All queued requests sharing one ``(row_len, dtype)`` batch shape."""

    def __init__(self, key: Tuple[int, str]) -> None:
        self.key = key
        #: Arrival order is preserved; EDF ordering is applied at pop time.
        self.requests: List[QueuedRequest] = []
        #: Queued rows, kept by the batcher's add/pop/shed (read per submit).
        self.rows = 0

    @property
    def oldest_enqueued_at(self) -> float:
        """Admission time of the longest-waiting request (lane non-empty)."""
        return self.requests[0].enqueued_at

    def earliest_deadline(self) -> float:
        """The lane's most urgent deadline (``inf`` when none set)."""
        return min(
            (r.deadline for r in self.requests if r.deadline is not None),
            default=math.inf,
        )

    def earliest_vfinish(self) -> float:
        """The lane's smallest WFQ finish tag (``inf`` when empty)."""
        return min((r.vfinish for r in self.requests), default=math.inf)


@_sanitizer.sanitize_guarded
class DynamicBatcher:
    """Lane bookkeeping + the ready/shed/pop decision logic.

    Parameters
    ----------
    target_rows:
        Rows that make a lane ready immediately — the planner-preferred
        batch size the service derives at construction.
    max_batch_rows:
        Hard cap on rows per dispatched batch (a burst above the target
        is split across batches instead of growing without bound).  A
        single request larger than the cap still dispatches, alone.
    linger_s:
        Longest a request may wait for co-batching before its lane is
        dispatched below target.
    tenant_weights:
        WFQ weight per tenant name; a tenant with weight 2 earns rows
        through the queue twice as fast as a weight-1 tenant under
        contention.  Unlisted tenants get ``default_tenant_weight``.
    default_tenant_weight:
        Weight for tenants absent from ``tenant_weights`` (default 1.0).
    """

    def __init__(
        self,
        *,
        target_rows: int,
        max_batch_rows: int,
        linger_s: float,
        tenant_weights: Optional[Dict[str, float]] = None,
        default_tenant_weight: float = 1.0,
    ) -> None:
        if target_rows < 1:
            raise ValueError(f"target_rows must be >= 1, got {target_rows}")
        if max_batch_rows < target_rows:
            raise ValueError(
                f"max_batch_rows ({max_batch_rows}) must be >= "
                f"target_rows ({target_rows})"
            )
        if linger_s < 0:
            raise ValueError(f"linger_s must be >= 0, got {linger_s}")
        if default_tenant_weight <= 0:
            raise ValueError(
                f"default_tenant_weight must be > 0, got {default_tenant_weight}"
            )
        weights = dict(tenant_weights or {})
        for tenant, weight in weights.items():
            if weight <= 0:
                raise ValueError(
                    f"tenant weight must be > 0, got {weight} for {tenant!r}"
                )
        self.target_rows = int(target_rows)
        self.max_batch_rows = int(max_batch_rows)
        self.linger_s = float(linger_s)
        self.tenant_weights: Dict[str, float] = weights
        self.default_tenant_weight = float(default_tenant_weight)
        self._lock = _sanitizer.make_lock("DynamicBatcher._lock")
        self._lanes: Dict[Tuple[int, str], Lane] = {}  # guarded-by: _lock
        self.total_rows = 0  # guarded-by: _lock
        self.total_requests = 0  # guarded-by: _lock
        #: WFQ global virtual time — the largest vstart dispatched so far.
        self._vtime = 0.0  # guarded-by: _lock
        self._tenant_vfinish: Dict[str, float] = {}  # guarded-by: _lock
        self._tenant_rows: Dict[str, int] = {}  # guarded-by: _lock
        self._tenant_requests: Dict[str, int] = {}  # guarded-by: _lock

    # -- queue maintenance -------------------------------------------------
    @staticmethod
    def lane_key(arrays: np.ndarray) -> Tuple[int, str]:
        return (int(arrays.shape[1]), np.dtype(arrays.dtype).str)

    def tenant_weight(self, tenant: str) -> float:
        """The WFQ weight used for ``tenant``'s requests."""
        return self.tenant_weights.get(tenant, self.default_tenant_weight)

    def tenant_queue_rows(self, tenant: str) -> int:
        """Rows ``tenant`` currently has queued (admission accounting)."""
        with self._lock:
            return self._tenant_rows.get(tenant, 0)

    def tenant_queue_requests(self, tenant: str) -> int:
        """Requests ``tenant`` currently has queued."""
        with self._lock:
            return self._tenant_requests.get(tenant, 0)

    def tenant_backlog(self) -> Dict[str, int]:
        """Snapshot of queued rows per tenant (metrics export)."""
        with self._lock:
            return {t: r for t, r in self._tenant_rows.items() if r > 0}

    def _forget_locked(self, request: QueuedRequest) -> None:
        """Drop one request from the aggregate and per-tenant tallies."""
        self.total_rows -= request.rows
        self.total_requests -= 1
        tenant = request.tenant
        self._tenant_rows[tenant] = self._tenant_rows.get(tenant, 0) - request.rows
        self._tenant_requests[tenant] = self._tenant_requests.get(tenant, 0) - 1

    def _gc_tenants_locked(self) -> None:
        """Forget WFQ state of tenants that are idle and fully caught up.

        Long-running services see tenants come and go; an entry whose
        finish tag is already behind the virtual clock carries no
        information (``vstart`` would be floored at ``_vtime`` anyway),
        so dropping it keeps the dicts bounded by *active* tenants.
        """
        for tenant in list(self._tenant_vfinish):
            if (
                self._tenant_rows.get(tenant, 0) <= 0
                and self._tenant_vfinish[tenant] <= self._vtime
            ):
                del self._tenant_vfinish[tenant]
                self._tenant_rows.pop(tenant, None)
                self._tenant_requests.pop(tenant, None)

    def add(self, request: QueuedRequest) -> int:
        """Queue ``request`` in its lane; return the lane's rows after it."""
        key = self.lane_key(request.arrays)
        tenant = request.tenant
        weight = self.tenant_weight(tenant)
        with self._lock:
            # Start-time fair queuing: the start tag is floored at the
            # global virtual time so an idle tenant cannot bank credit.
            request.vstart = max(self._vtime, self._tenant_vfinish.get(tenant, 0.0))
            request.vfinish = request.vstart + request.rows / weight
            self._tenant_vfinish[tenant] = request.vfinish
            self._tenant_rows[tenant] = (
                self._tenant_rows.get(tenant, 0) + request.rows
            )
            self._tenant_requests[tenant] = (
                self._tenant_requests.get(tenant, 0) + 1
            )
            lane = self._lanes.get(key)
            if lane is None:
                lane = self._lanes[key] = Lane(key)
            lane.requests.append(request)
            lane.rows += request.rows
            self.total_rows += request.rows
            self.total_requests += 1
            return lane.rows

    def drop_all(self) -> List[QueuedRequest]:
        """Remove and return every queued request (close without drain)."""
        with self._lock:
            dropped = [
                r for lane in self._lanes.values() for r in lane.requests
            ]
            self._lanes.clear()
            self.total_rows = 0
            self.total_requests = 0
            self._tenant_rows.clear()
            self._tenant_requests.clear()
            self._gc_tenants_locked()
            return dropped

    def shed_expired(self, now: float) -> List[QueuedRequest]:
        """Remove and return queued requests whose deadline has passed.

        Shedding happens *before* dispatch: a request that can no longer
        meet its deadline must not occupy batch capacity, and must fail
        with a typed error rather than be delivered late.
        """
        shed: List[QueuedRequest] = []
        with self._lock:
            for key in list(self._lanes):
                lane = self._lanes[key]
                keep: List[QueuedRequest] = []
                for request in lane.requests:
                    if request.deadline is not None and request.deadline < now:
                        shed.append(request)
                        lane.rows -= request.rows
                        self._forget_locked(request)
                    else:
                        keep.append(request)
                if keep:
                    lane.requests = keep
                else:
                    del self._lanes[key]
        return shed

    # -- dispatch decisions ------------------------------------------------
    def _lane_ready(self, lane: Lane, now: float, *, drain: bool) -> bool:
        if not lane.requests:
            return False
        if drain:
            return True
        if lane.rows >= self.target_rows:
            return True
        return now - lane.oldest_enqueued_at >= self.linger_s

    def ready_lane(self, now: float, *, drain: bool = False) -> Optional[Lane]:
        """The ready lane with the most urgent deadline (EDF across lanes).

        Ties (no deadlines anywhere) fall to the lane holding the
        smallest WFQ finish tag — cross-lane fairness — then to the
        longest-waiting lane.
        """
        with self._lock:
            ready = [
                lane
                for lane in self._lanes.values()
                if self._lane_ready(lane, now, drain=drain)
            ]
        if not ready:
            return None
        return min(
            ready,
            key=lambda lane: (
                lane.earliest_deadline(),
                lane.earliest_vfinish(),
                lane.oldest_enqueued_at,
            ),
        )

    def next_event_at(self, now: float) -> Optional[float]:
        """Earliest time a waiting lane becomes ready or a deadline expires.

        ``None`` when the queue is empty.  The service sleeps until this
        moment (or the next submit wakes it).
        """
        event = math.inf
        with self._lock:
            for lane in self._lanes.values():
                if not lane.requests:
                    continue
                event = min(event, lane.oldest_enqueued_at + self.linger_s)
                deadline = lane.earliest_deadline()
                if deadline is not math.inf:
                    event = min(event, deadline)
        return None if event is math.inf else event

    def pop_batch(self, lane: Lane, now: float) -> List[QueuedRequest]:
        """Remove and return the lane's next batch, EDF/WFQ-ordered.

        Takes the most urgent requests first (deadline, then priority,
        then WFQ finish tag), stopping before the batch would exceed
        ``max_batch_rows`` — except that the first request always rides
        (an oversized request dispatches alone rather than starving).
        The remaining requests keep their arrival order.  The WFQ
        virtual clock advances to the latest start tag dispatched, so
        tenants submitting *after* this batch compete from the present,
        not from the flooding tenant's backlog past.
        """
        with self._lock:
            ordered = sorted(lane.requests, key=QueuedRequest.edf_key)
            taken: List[QueuedRequest] = []
            rows = 0
            for request in ordered:
                if taken and rows + request.rows > self.max_batch_rows:
                    break
                taken.append(request)
                rows += request.rows
            taken_ids = {id(r) for r in taken}
            lane.requests = [r for r in lane.requests if id(r) not in taken_ids]
            lane.rows -= rows
            if not lane.requests:
                del self._lanes[lane.key]
            for request in taken:
                self._forget_locked(request)
                if request.vstart > self._vtime:
                    self._vtime = request.vstart
            self._gc_tenants_locked()
            return taken
