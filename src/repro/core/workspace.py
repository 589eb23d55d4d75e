"""Scratch arena: reusable preallocated buffers for the batch-sort hot path.

The ROADMAP's "serve heavy streaming traffic" north star means the same
``(N, n)`` shape is sorted thousands of times per session.  On the seed
hot path every one of those sorts paid for fresh NumPy allocations: the
work copy (``batch.astype(copy=True)``), the phase-1 sample matrix and
splitter staging, and the fused path's ``offsets``/``sizes`` metadata.
None of those buffers change shape between batches — the allocator churn
is pure overhead, and on large batches it also defeats the page cache.

:class:`ScratchArena` is the fix: a per-sorter pool of buffers keyed by
``(tag, dtype)``.  A buffer is allocated on first use, **grown
geometrically** (capacity at least doubles) when a larger request
arrives, and otherwise handed back as a zero-copy view — so steady-state
streaming traffic sorts with no NumPy allocations on the hot path.

Thread-safety: buffer **checkout and growth are lock-guarded** — since
the sort service arrived, an arena is reachable from the service's
batcher thread and from caller threads concurrently, and an unguarded
grow could drop or double-count pooled buffers.  The lock covers the
pool bookkeeping only; the *storage* stays single-owner: two threads
requesting the same ``(tag, dtype)`` key receive views of the **same**
buffer, so concurrent use of one key still needs external coordination
(each sorter keeps its own arena, exactly like the paper's per-block
shared-memory staging belongs to one block).

Scratch semantics: views handed out by :meth:`ScratchArena.get` are
valid **until the next request for the same ``(tag, dtype)`` key** — a
sorter's next batch reuses them.  Callers that retain results across
sorts (e.g. :class:`~repro.core.streaming.StreamingSorter` collecting to
``results``) must copy; results delivered to an ``on_batch`` consumer
follow the classic streaming contract (valid until the next emission).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from ..statan import runtime as _sanitizer

__all__ = ["ScratchArena", "WorkspaceStats"]


@dataclasses.dataclass
class WorkspaceStats:
    """Allocation accounting for one :class:`ScratchArena`."""

    hits: int = 0
    allocations: int = 0
    grows: int = 0
    bytes_held: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@_sanitizer.sanitize_guarded
class ScratchArena:
    """Pool of reusable NumPy buffers keyed by ``(tag, dtype)``.

    >>> arena = ScratchArena()
    >>> a = arena.get("work", (4, 8), np.float32)
    >>> b = arena.get("work", (4, 8), np.float32)
    >>> a.base is b.base  # same storage, zero new allocations
    True
    >>> arena.get("work", (4, 8), np.int64).base is a.base  # dtypes never alias
    False
    """

    def __init__(self, growth: float = 2.0) -> None:
        if growth < 1.0:
            raise ValueError(f"growth factor must be >= 1.0, got {growth}")
        self.growth = float(growth)
        self.stats = WorkspaceStats()
        #: Guards pool checkout/growth and close (see module docstring).
        self._lock = _sanitizer.make_lock("ScratchArena._lock")
        self._pools: Dict[Tuple[str, str], np.ndarray] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    # -- plain buffers -----------------------------------------------------
    def get(self, tag: str, shape, dtype) -> np.ndarray:
        """A C-contiguous ``shape``/``dtype`` view of the pooled buffer.

        Valid until the next ``get`` with the same ``(tag, dtype)`` key.
        Contents are undefined (no zeroing — the hot path always
        overwrites).
        """
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        need = 1
        for s in shape:
            need *= s
        key = (tag, dtype.str)
        with self._lock:
            if self._closed:
                raise RuntimeError("arena is closed")
            pool = self._pools.get(key)
            if pool is None or pool.size < need:
                capacity = need
                if pool is not None:
                    capacity = max(need, int(pool.size * self.growth))
                    self.stats.grows += 1
                    self.stats.bytes_held -= pool.nbytes
                pool = np.empty(capacity, dtype)
                self._pools[key] = pool
                self.stats.allocations += 1
                self.stats.bytes_held += pool.nbytes
            else:
                self.stats.hits += 1
            view = pool[:need].reshape(shape)
            if _sanitizer.enabled():
                # Checked build: this get() invalidates the previous view
                # for the same key (the documented contract), and the new
                # view is tracked so use-after-reuse raises.
                region = ("ScratchArena", id(self), key)
                _sanitizer.new_epoch(region)
                view = _sanitizer.track_view(
                    view, region,
                    label=f"ScratchArena.get({tag!r}, {dtype.str})",
                )
            return view

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Release every pooled buffer.

        Idempotent.  After closing, ``get`` raises.  An arena that is
        never closed frees its pools when it is collected; there is no
        finalizer, because one would take this arena's (possibly
        instrumented) lock from whatever thread the GC happens to run
        on, and that thread may already hold the sanitizer's own lock.
        """
        with self._lock:
            if self._closed:
                return
            self._pools.clear()
            self.stats.bytes_held = 0
            self._closed = True

    def __enter__(self) -> "ScratchArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
