"""Load-aware request routing for the sort fleet.

:class:`FleetRouter` is the fleet's pure decision core: given the lane a
request belongs to (the same ``(row_len, dtype.str)`` lane key the
in-process :class:`~repro.service.batcher.DynamicBatcher` batches by)
and the request's row count, it picks the worker process the request
should run on — or declines, which the fleet surfaces as a
:class:`~repro.service.errors.RejectedError`.

The policy is **least-outstanding-rows with lane affinity**:

* Each lane remembers the worker it last dispatched to.  Requests from
  one lane keep landing on one worker while that worker is healthy and
  not pulling far ahead of the least-loaded worker, so a worker's
  batcher sees full lanes and its planner keeps hitting one shape
  class — the whole point of batching by ``(row_len, dtype)``.
* When the affinity worker is saturated (its outstanding rows exceed
  ``spill_factor`` times the least-loaded worker's, beyond a small slack
  allowance), the lane *spills*: the request goes to the worker with the
  fewest outstanding rows, and the lane's affinity follows it.  Load
  balance beats affinity — affinity is a tiebreak, not a pin.
* Admission is bounded per worker (``max_worker_queue_rows``).  A
  request no worker can take is declined; the fleet's backpressure hint
  then derives from :meth:`retry_after`, which estimates how long the
  **most-loaded** worker needs to drain (the conservative bound — by the
  time the deepest queue has drained, every queue has) and stretches it
  by a bounded, **seedable** jitter so a herd of rejected clients
  disperses instead of stampeding back in one tick.  Seeding the RNG
  (``retry_jitter_seed``) keeps rejected-client dispersal deterministic
  under test, exactly like ``SortService(retry_jitter_seed=)``.

Failover uses a separate door: :meth:`route_failover` ignores the
admission bound and returns the least-loaded surviving worker, because a
dead worker's in-flight requests must land *somewhere* — re-queueing
pressure is survivable, dropping accepted work is not.

The router is clock-free and process-free: it never spawns anything and
never reads time, so every policy decision is unit-testable with plain
integers.  All mutable state is guarded by one lock.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..statan import runtime as _sanitizer

__all__ = ["FleetRouter", "DEFAULT_SPILL_FACTOR", "DEFAULT_SPILL_SLACK_ROWS"]

#: Affinity holds until the lane's worker carries more than
#: ``spill_factor`` x the least-loaded worker's outstanding rows.
DEFAULT_SPILL_FACTOR = 2.0

#: Absolute slack under which affinity always holds (so a worker at 10
#: rows vs an idle one at 0 does not count as "2x ahead").
DEFAULT_SPILL_SLACK_ROWS = 64


@_sanitizer.sanitize_guarded
class FleetRouter:
    """Lane-affinity, least-outstanding-rows router over fleet workers.

    Parameters
    ----------
    max_worker_queue_rows:
        Per-worker admission bound on outstanding (dispatched, not yet
        completed) rows.  A request that would push every worker past
        this bound is declined.  A single request larger than the bound
        is still admitted onto an idle worker — otherwise it could never
        run at all.
    spill_factor / spill_slack_rows:
        When the affinity worker's outstanding rows exceed
        ``spill_factor * least_loaded + spill_slack_rows``, the lane
        spills to the least-loaded worker.
    linger_s:
        The workers' batching linger, used as the floor of
        :meth:`retry_after` hints (a hint below one batching cycle would
        tell clients to spin).
    retry_jitter:
        Bounded jitter fraction stretching :meth:`retry_after` hints
        (0 disables).
    retry_jitter_seed:
        Seed for the jitter RNG — deterministic backpressure under test.
    """

    def __init__(
        self,
        *,
        max_worker_queue_rows: int,
        spill_factor: float = DEFAULT_SPILL_FACTOR,
        spill_slack_rows: int = DEFAULT_SPILL_SLACK_ROWS,
        linger_s: float = 0.002,
        retry_jitter: float = 0.25,
        retry_jitter_seed: Optional[int] = None,
    ) -> None:
        if max_worker_queue_rows < 1:
            raise ValueError(
                f"max_worker_queue_rows must be >= 1, got {max_worker_queue_rows}"
            )
        if spill_factor < 1.0:
            raise ValueError(f"spill_factor must be >= 1.0, got {spill_factor}")
        if spill_slack_rows < 0:
            raise ValueError(
                f"spill_slack_rows must be >= 0, got {spill_slack_rows}"
            )
        if retry_jitter < 0:
            raise ValueError(f"retry_jitter must be >= 0, got {retry_jitter}")
        self.max_worker_queue_rows = int(max_worker_queue_rows)
        self.spill_factor = float(spill_factor)
        self.spill_slack_rows = int(spill_slack_rows)
        self.linger_s = float(linger_s)
        self.retry_jitter = float(retry_jitter)
        self._lock = _sanitizer.make_lock("FleetRouter._lock")
        # Jitter draws happen under the router lock (decline path only).
        self._retry_rng = np.random.default_rng(retry_jitter_seed)  # guarded-by: _lock
        self._outstanding_rows: Dict[int, int] = {}  # guarded-by: _lock
        self._outstanding_requests: Dict[int, int] = {}  # guarded-by: _lock
        self._alive: Dict[int, bool] = {}  # guarded-by: _lock
        self._affinity: Dict[Hashable, int] = {}  # guarded-by: _lock

    # -- membership --------------------------------------------------------
    def add_worker(self, worker_id: int) -> None:
        """Register a worker as routable."""
        with self._lock:
            self._alive[int(worker_id)] = True
            self._outstanding_rows.setdefault(int(worker_id), 0)
            self._outstanding_requests.setdefault(int(worker_id), 0)

    def mark_dead(self, worker_id: int) -> None:
        """Remove a worker from routing (its accounting is retained so
        the fleet can enumerate what must fail over)."""
        with self._lock:
            if worker_id in self._alive:
                self._alive[worker_id] = False
            for lane, owner in list(self._affinity.items()):
                if owner == worker_id:
                    del self._affinity[lane]

    def alive_workers(self) -> List[int]:
        with self._lock:
            return sorted(w for w, ok in self._alive.items() if ok)

    # -- routing -----------------------------------------------------------
    def _fits_locked(self, worker_id: int, rows: int) -> bool:
        load = self._outstanding_rows[worker_id]
        if rows > self.max_worker_queue_rows:
            # An oversized request is admissible only onto an idle
            # worker; bounding it out entirely would make it unservable.
            return load == 0
        return load + rows <= self.max_worker_queue_rows

    def _least_loaded_locked(self) -> Optional[int]:
        best: Optional[int] = None
        best_load = -1
        for worker_id in sorted(self._alive):
            if not self._alive[worker_id]:
                continue
            load = self._outstanding_rows[worker_id]
            if best is None or load < best_load:
                best, best_load = worker_id, load
        return best

    def route(self, lane_key: Hashable, rows: int) -> Optional[int]:
        """Pick a worker for ``rows`` rows on ``lane_key``; record the
        dispatch; ``None`` when no worker can admit the request."""
        rows = int(rows)
        with self._lock:
            least = self._least_loaded_locked()
            if least is None:
                return None  # no alive workers at all
            chosen: Optional[int] = None
            affinity = self._affinity.get(lane_key)
            if affinity is not None and self._alive.get(affinity, False):
                least_load = self._outstanding_rows[least]
                bound = (
                    self.spill_factor * least_load + self.spill_slack_rows
                )
                if (
                    self._fits_locked(affinity, rows)
                    and self._outstanding_rows[affinity] <= bound
                ):
                    chosen = affinity
            if chosen is None and self._fits_locked(least, rows):
                chosen = least
            if chosen is None:
                return None
            self._affinity[lane_key] = chosen
            self._outstanding_rows[chosen] += rows
            self._outstanding_requests[chosen] += 1
            return chosen

    def route_failover(
        self, lane_key: Hashable, rows: int
    ) -> Optional[int]:
        """Least-loaded surviving worker, **ignoring** the admission
        bound — failed-over requests are never dropped for capacity.
        Returns ``None`` only when no worker survives."""
        rows = int(rows)
        with self._lock:
            least = self._least_loaded_locked()
            if least is None:
                return None
            self._affinity[lane_key] = least
            self._outstanding_rows[least] += rows
            self._outstanding_requests[least] += 1
            return least

    def record_done(self, worker_id: int, rows: int) -> None:
        """A dispatched request completed (or failed terminally)."""
        with self._lock:
            if worker_id in self._outstanding_rows:
                self._outstanding_rows[worker_id] = max(
                    0, self._outstanding_rows[worker_id] - int(rows)
                )
                self._outstanding_requests[worker_id] = max(
                    0, self._outstanding_requests[worker_id] - 1
                )

    def forget_outstanding(self, worker_id: int) -> None:
        """Zero a dead worker's accounting once its pending work has
        been re-dispatched elsewhere."""
        with self._lock:
            if worker_id in self._outstanding_rows:
                self._outstanding_rows[worker_id] = 0
                self._outstanding_requests[worker_id] = 0

    # -- observability / backpressure --------------------------------------
    def outstanding_rows(self, worker_id: Optional[int] = None) -> int:
        with self._lock:
            if worker_id is not None:
                return self._outstanding_rows.get(worker_id, 0)
            return sum(self._outstanding_rows.values())

    def snapshot(self) -> Dict[int, Tuple[bool, int, int]]:
        """``worker_id -> (alive, outstanding_rows, outstanding_requests)``."""
        with self._lock:
            return {
                worker_id: (
                    self._alive.get(worker_id, False),
                    self._outstanding_rows.get(worker_id, 0),
                    self._outstanding_requests.get(worker_id, 0),
                )
                for worker_id in sorted(self._outstanding_rows)
            }

    def retry_after(self, rows_per_s: Optional[float]) -> float:
        """Backpressure hint: seconds for the **most-loaded** worker to
        drain at the observed per-worker completion rate.

        Conservative by construction — once the deepest queue has
        drained, every queue has, so a client that sleeps this long
        re-arrives at a fleet with admission headroom.  Floored at one
        batching linger (a ~0 hint says "spin on submit") and stretched
        by the seeded bounded jitter so simultaneously rejected clients
        disperse their resubmissions (satellite of PR 7's service-side
        anti-stampede hints; same formula, fleet-level inputs).
        """
        with self._lock:
            deepest = max(
                (
                    self._outstanding_rows[w]
                    for w, ok in self._alive.items()
                    if ok
                ),
                default=0,
            )
            floor = max(self.linger_s, 1e-3)
            if not rows_per_s or rows_per_s <= 0:
                base = 2 * floor
            else:
                base = max(floor, deepest / rows_per_s)
            if self.retry_jitter > 0:
                base *= 1.0 + float(self._retry_rng.random()) * self.retry_jitter
            return base
