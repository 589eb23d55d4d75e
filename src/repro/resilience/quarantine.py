"""Dead-letter queue: where unsortable rows go instead of killing a session.

A streaming acquisition session must not abort because one spectrum
arrived poisoned (NaN) or one row kept failing verification under a
hostile fault pattern.  Those rows are *quarantined*: pulled out of the
emitted batch, preserved verbatim with their provenance (batch id, row
index, reason), and left for offline inspection — the standard
dead-letter-queue pattern from message brokers, applied to arrays.

This module intentionally imports nothing from :mod:`repro.core` so the
streaming sorter can use it without an import cycle.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..statan import runtime as _sanitizer

__all__ = ["DEFAULT_DEAD_LETTER_CAPACITY", "DeadLetter", "DeadLetterQueue"]

#: Default bound consumers (the streaming sorter) apply when creating a
#: queue for an unattended session: enough to inspect any realistic
#: incident, small enough that a hostile fault pattern cannot grow the
#: queue without bound.  Pass ``capacity=None`` explicitly for an
#: unbounded queue.
DEFAULT_DEAD_LETTER_CAPACITY = 4096


@dataclasses.dataclass(frozen=True)
class DeadLetter:
    """One quarantined row with its provenance."""

    #: Monotonic id of the batch the row was part of.
    batch_id: int
    #: Row index inside that batch.
    row_index: int
    #: Why the row was quarantined (e.g. ``"nan-input"``,
    #: ``"validation-failed"``).
    reason: str
    #: The original, unsorted row as it arrived.
    payload: np.ndarray
    #: Owning tenant, when the producer serves multi-tenant traffic
    #: (:mod:`repro.service`); ``None`` for single-caller sessions.
    tenant: Optional[str] = None


@_sanitizer.sanitize_guarded
class DeadLetterQueue:
    """Append-only store of quarantined rows.

    ``capacity`` bounds memory in unattended sessions: beyond it the
    payloads of the *oldest* entries are dropped (the provenance counters
    survive), matching broker DLQs that age out bodies but keep receipts.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.capacity = capacity
        self._lock = _sanitizer.make_lock("DeadLetterQueue._lock")
        self._letters: List[DeadLetter] = []  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock

    def add(
        self,
        *,
        batch_id: int,
        row_index: int,
        payload: np.ndarray,
        reason: str = "validation-failed",
        tenant: Optional[str] = None,
    ) -> DeadLetter:
        letter = DeadLetter(
            batch_id=int(batch_id),
            row_index=int(row_index),
            reason=str(reason),
            payload=np.array(payload, copy=True),
            tenant=None if tenant is None else str(tenant),
        )
        with self._lock:
            self._letters.append(letter)
            if self.capacity is not None and len(self._letters) > self.capacity:
                overflow = len(self._letters) - self.capacity
                self._letters = self._letters[overflow:]
                self._dropped += overflow
        return letter

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._letters)

    def __iter__(self) -> Iterator[DeadLetter]:
        with self._lock:
            return iter(list(self._letters))

    @property
    def dropped(self) -> int:
        """Letters aged out by the capacity bound."""
        with self._lock:
            return self._dropped

    def payloads(self) -> np.ndarray:
        """All quarantined rows stacked into one matrix (empty-safe)."""
        with self._lock:
            letters = list(self._letters)
        if not letters:
            return np.empty((0, 0))
        return np.vstack([letter.payload for letter in letters])

    def reasons(self) -> Dict[str, int]:
        """Histogram of quarantine reasons."""
        with self._lock:
            letters = list(self._letters)
        histogram: Dict[str, int] = {}
        for letter in letters:
            histogram[letter.reason] = histogram.get(letter.reason, 0) + 1
        return histogram

    def tenants(self) -> Dict[str, int]:
        """Histogram of owning tenants (untagged letters under ``""``)."""
        with self._lock:
            letters = list(self._letters)
        histogram: Dict[str, int] = {}
        for letter in letters:
            key = letter.tenant or ""
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def drain(self) -> List[DeadLetter]:
        """Return all letters and empty the queue (reprocessing hook)."""
        with self._lock:
            letters, self._letters = self._letters, []
        return letters
