"""Checked-build concurrency sanitizer: statan's contracts, at runtime.

statan's static passes (``guarded_by``, ``scratch_escape``, the
whole-program lock-order analysis) prove what they can from the AST;
this module enforces the same contracts on a *running* process, the way
TSan/Eraser complement a compiler's lock annotations.  Three detectors:

* **Lockset / guarded-by** — :func:`sanitize_guarded` installs data
  descriptors for every attribute annotated ``# guarded-by: <lock>`` in
  a class's ``__init__``, and :func:`make_lock` / :func:`make_rlock`
  return instrumented locks that maintain a per-thread held-lock stack.
  An access to a guarded attribute without any acceptable lock held
  raises :class:`GuardedAccessError` carrying *both* stacks: the
  violating access and the most recent access from another thread.
* **Lock order** — every instrumented acquisition records edges
  ``held lock -> acquired lock`` in a global graph (with the stack that
  first created each edge).  An acquisition that completes a cycle
  raises :class:`LockOrderError` naming the cycle and showing the
  conflicting first-seen stacks.  The observed graph is exported by
  :func:`lock_order_edges` so tests can diff it against the static
  may-acquire graph (:mod:`repro.statan.lockorder`).
* **View lifetime** — zero-copy hazards are modeled as *epochs* on
  named regions.  Producers call :func:`new_epoch` when storage is
  about to be reused (ScratchArena handing out the same pooled buffer,
  the service dispatching its next batch, a spill chunk being
  recommitted) and :func:`track_view` to wrap the views they hand out;
  any element access through a wrapped view whose region has moved on
  raises :class:`StaleViewError` with the creation and invalidation
  stacks.  :func:`guard_readonly` additionally write-protects regions
  one side of a protocol must never touch (the fleet's input slab
  half).

Everything is gated on ``REPRO_SANITIZE=1`` (or :func:`enable` in
tests).  When disabled — the default — every hook is a cheap boolean
check or an identity function: ``make_lock`` returns a plain
``threading.Lock``, ``sanitize_guarded`` returns the class untouched,
``track_view`` returns its argument.  ``make sanitize`` runs the
concurrency test subset with the environment variable set.

Violations raise by default (a checked build should fail loudly at the
bug, not at the end); :func:`set_raise_on_violation` switches to
record-only mode, and every violation — raised or not — is appended to
the report readable via :func:`violations`.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "GuardedAccessError",
    "LockOrderError",
    "RegionWriteError",
    "SanitizerError",
    "StaleViewError",
    "enable",
    "disable",
    "enabled",
    "guard_readonly",
    "lock_order_edges",
    "make_lock",
    "make_rlock",
    "new_epoch",
    "reset",
    "sanitize_guarded",
    "set_raise_on_violation",
    "track_view",
    "violations",
]

_ENV_VAR = "REPRO_SANITIZE"
_STACK_LIMIT = 12


def _env_enabled() -> bool:
    return os.environ.get(_ENV_VAR, "").strip().lower() not in (
        "", "0", "false", "no", "off",
    )


class _State:
    """All sanitizer bookkeeping; guarded by ``meta_lock`` (leaf lock)."""

    def __init__(self) -> None:
        self.enabled = _env_enabled()
        self.raise_on_violation = True
        self.meta_lock = threading.Lock()
        self.violations: List["SanitizerError"] = []
        #: (held name, acquired name) -> first-seen stack string.
        self.lock_edges: Dict[Tuple[str, str], str] = {}
        #: region key -> (epoch, stack that invalidated the previous one).
        self.regions: Dict[object, Tuple[int, str]] = {}
        #: (object id, attr) -> (thread name, stack) of the last access.
        self.last_access: Dict[Tuple[int, str], Tuple[str, str]] = {}
        #: read-only region labels, for reporting.
        self.readonly_regions: List[str] = []


_STATE = _State()
_HELD = threading.local()  # .stack: List[_SanitizedLockBase]


def _held_stack() -> List["_SanitizedLockBase"]:
    stack = getattr(_HELD, "stack", None)
    if stack is None:
        stack = []
        _HELD.stack = stack
    return stack


def _format_stack(skip: int = 2) -> str:
    """The current stack rendered compactly, dropping sanitizer frames.

    Walks frames directly instead of ``traceback.format_stack`` — this
    runs on every guarded access in a sanitized build, so it must be
    cheap (no source-line reads).
    """
    import sys

    try:
        frame = sys._getframe(skip)
    except ValueError:
        frame = sys._getframe(1)
    parts = []
    while frame is not None and len(parts) < _STACK_LIMIT:
        code = frame.f_code
        parts.append(f"  {code.co_filename}:{frame.f_lineno} in {code.co_name}")
        frame = frame.f_back
    return "\n".join(parts)


# -- switches ---------------------------------------------------------------

def enabled() -> bool:
    """Is the sanitizer active for this process?"""
    return _STATE.enabled


def enable() -> None:
    """Turn the sanitizer on (tests; production uses ``REPRO_SANITIZE=1``)."""
    _STATE.enabled = True


def disable() -> None:
    _STATE.enabled = False


def set_raise_on_violation(flag: bool) -> None:
    """``False`` switches to record-only mode (see :func:`violations`)."""
    _STATE.raise_on_violation = bool(flag)


def violations() -> List["SanitizerError"]:
    """Every violation recorded since the last :func:`reset`."""
    with _STATE.meta_lock:
        return list(_STATE.violations)


def reset() -> None:
    """Clear recorded violations, the lock-order graph, and region epochs."""
    with _STATE.meta_lock:
        _STATE.violations.clear()
        _STATE.lock_edges.clear()
        _STATE.regions.clear()
        _STATE.last_access.clear()
        _STATE.readonly_regions.clear()


# -- violations -------------------------------------------------------------

class SanitizerError(RuntimeError):
    """Base of every sanitizer violation.

    ``report`` is a plain-data dict (strings/ints only) so it survives
    the fleet's ``(kind, message, fields)`` error serialization.
    """

    check = "sanitizer"

    def __init__(self, message: str, report: Optional[Dict[str, object]] = None):
        super().__init__(message)
        self.report: Dict[str, object] = dict(report or {})
        self.report.setdefault("check", self.check)
        self.report.setdefault("message", message)


class GuardedAccessError(SanitizerError):
    """Guarded attribute accessed without holding an acceptable lock."""

    check = "guarded-access"


class LockOrderError(SanitizerError):
    """A lock acquisition completed a cycle in the acquisition graph."""

    check = "lock-order"


class StaleViewError(SanitizerError):
    """A zero-copy view was used after its region's epoch moved on."""

    check = "stale-view"


class RegionWriteError(SanitizerError):
    """A write landed in a region registered read-only for this side."""

    check = "region-write"


def _record_violation(error: SanitizerError) -> None:
    with _STATE.meta_lock:
        _STATE.violations.append(error)
    if _STATE.raise_on_violation:
        raise error


# -- instrumented locks -----------------------------------------------------

class _SanitizedLockBase:
    """Shared acquire/release bookkeeping for both lock flavours.

    ``name`` should be ``ClassName._lockattr`` so runtime edges line up
    with the static may-acquire graph's node names.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: str, inner) -> None:
        self.name = name
        self._inner = inner

    # threading.Condition(lock) support: Condition copies these.
    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} inner={self._inner!r}>"

    def _note_acquired(self) -> None:
        stack = _held_stack()
        held_names = [lock.name for lock in stack]
        if self.name not in held_names:
            for held in held_names:
                if held != self.name:
                    self._add_edge(held, self.name)
        stack.append(self)

    def _note_released(self) -> None:
        stack = _held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break

    def _add_edge(self, held: str, acquired: str) -> None:
        edge = (held, acquired)
        with _STATE.meta_lock:
            if edge in _STATE.lock_edges:
                return
            here = _format_stack(skip=4)
            _STATE.lock_edges[edge] = here
            cycle = _find_cycle(_STATE.lock_edges, acquired, held)
        if cycle is not None:
            path = " -> ".join(cycle + [cycle[0]])
            with _STATE.meta_lock:
                stacks = {
                    f"{a}->{b}": _STATE.lock_edges.get((a, b), "")
                    for a, b in zip(cycle, cycle[1:] + [cycle[0]])
                }
            _record_violation(LockOrderError(
                f"lock acquisition order cycle: {path} (acquiring "
                f"{acquired!r} while holding {held!r})",
                report={
                    "cycle": path,
                    "edge": f"{held}->{acquired}",
                    "stacks": stacks,
                },
            ))

    def acquire(self, blocking: bool = True, timeout: float = -1):
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._note_acquired()
        return got

    def release(self) -> None:
        self._inner.release()
        self._note_released()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()


class SanitizedLock(_SanitizedLockBase):
    """Instrumented ``threading.Lock``."""

    __slots__ = ()

    def __init__(self, name: str) -> None:
        super().__init__(name, threading.Lock())


class SanitizedRLock(_SanitizedLockBase):
    """Instrumented ``threading.RLock`` (re-entry adds no edges)."""

    __slots__ = ()

    def __init__(self, name: str) -> None:
        super().__init__(name, threading.RLock())

    def _is_owned(self) -> bool:  # Condition(RLock) uses this fast path
        return self._inner._is_owned()


def _find_cycle(
    edges: Dict[Tuple[str, str], str], start: str, goal: str
) -> Optional[List[str]]:
    """A path ``start -> ... -> goal`` in ``edges`` (DFS), else ``None``.

    Called right after adding edge ``goal -> start``; a path back from
    ``start`` to ``goal`` therefore closes a cycle through that edge.
    """
    adjacency: Dict[str, List[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    path = [goal, start]
    seen = {start}

    def walk(node: str) -> Optional[List[str]]:
        for nxt in adjacency.get(node, ()):
            if nxt == goal:
                return list(path)
            if nxt not in seen:
                seen.add(nxt)
                path.append(nxt)
                found = walk(nxt)
                if found is not None:
                    return found
                path.pop()
        return None

    return walk(start)


def make_lock(name: str):
    """A lock for ``self.<attr> = make_lock("Class._attr")`` hook sites.

    Plain ``threading.Lock`` when the sanitizer is off (zero overhead,
    identical semantics); a :class:`SanitizedLock` when on.
    """
    if not _STATE.enabled:
        return threading.Lock()
    return SanitizedLock(name)


def make_rlock(name: str):
    """Re-entrant variant of :func:`make_lock`."""
    if not _STATE.enabled:
        return threading.RLock()
    return SanitizedRLock(name)


def holds(lock) -> bool:
    """Does the calling thread hold ``lock`` (instrumented locks only)?"""
    return any(held is lock for held in _held_stack())


def lock_order_edges() -> Dict[Tuple[str, str], str]:
    """Observed acquisition edges ``(held, acquired) -> first-seen stack``."""
    with _STATE.meta_lock:
        return dict(_STATE.lock_edges)


# -- guarded-by field checking ----------------------------------------------

def _resolve_lock(candidate):
    """The instrumented lock behind ``candidate`` (Condition unwraps)."""
    if isinstance(candidate, _SanitizedLockBase):
        return candidate
    inner = getattr(candidate, "_lock", None)  # threading.Condition
    if isinstance(inner, _SanitizedLockBase):
        return inner
    return None


class _GuardedField:
    """Data descriptor enforcing a guarded-by annotation at access time.

    Internal accesses (``self.X`` from a method of the owning instance)
    must hold one of the annotated locks; external reads are exempt,
    mirroring the static checker, which only examines ``self.X``
    expressions inside the class.  ``__init__`` is exempt via the
    published flag (construction happens-before publication).
    """

    __slots__ = ("attr", "locks", "slot", "cls_name")

    def __init__(self, cls_name: str, attr: str, locks: Sequence[str]) -> None:
        self.cls_name = cls_name
        self.attr = attr
        self.locks = tuple(locks)
        self.slot = f"_san_slot_{attr}"

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        self._check(obj, "read")
        try:
            return obj.__dict__[self.slot]
        except KeyError:
            raise AttributeError(self.attr) from None

    def __set__(self, obj, value) -> None:
        self._check(obj, "write")
        obj.__dict__[self.slot] = value

    def _check(self, obj, mode: str) -> None:
        import sys

        if not obj.__dict__.get("_san_published", False):
            return
        frame = sys._getframe(2)
        if frame.f_locals.get("self") is not obj:
            return  # external access — outside the annotation's contract
        for name in self.locks:
            lock = _resolve_lock(obj.__dict__.get(name))
            if lock is not None and holds(lock):
                self._note(obj)
                return
        key = (id(obj), self.attr)
        with _STATE.meta_lock:
            prev = _STATE.last_access.get(key)
        here = _format_stack(skip=3)
        other = ""
        if prev is not None and prev[0] != threading.current_thread().name:
            other = prev[1]
        want = " or ".join(f"self.{name}" for name in self.locks)
        _record_violation(GuardedAccessError(
            f"{self.cls_name}.{self.attr} ({mode}) without holding {want} "
            f"in thread {threading.current_thread().name!r}",
            report={
                "class": self.cls_name,
                "attr": self.attr,
                "mode": mode,
                "thread": threading.current_thread().name,
                "stack": here,
                "other_thread_stack": other,
            },
        ))
        self._note(obj)

    def _note(self, obj) -> None:
        key = (id(obj), self.attr)
        entry = (threading.current_thread().name, _format_stack(skip=4))
        with _STATE.meta_lock:
            _STATE.last_access[key] = entry


def _guarded_map_for_class(cls) -> Dict[str, Tuple[str, ...]]:
    """attr -> lock names, parsed from the class source annotations.

    Reuses the static checker's extraction (same comments, same
    semantics) so the runtime and static passes can never drift.
    """
    import ast
    import inspect
    import textwrap

    from .guarded_by import _guarded_attrs
    from .suppress import scan_markers

    try:
        source = textwrap.dedent(inspect.getsource(cls))
    except (OSError, TypeError):
        return {}
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return {}
    markers = scan_markers(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            return _guarded_attrs(node, markers)
    return {}


def sanitize_guarded(cls=None, *, force: bool = False):
    """Class decorator enforcing ``# guarded-by`` annotations at runtime.

    Identity when the sanitizer is disabled at class-definition time
    (import time for product classes — ``REPRO_SANITIZE=1`` must be in
    the environment before import).  ``force=True`` instruments
    regardless; tests use it to build fixtures without flipping the
    global switch before importing the module under test.
    """

    def instrument(target):
        if not (_STATE.enabled or force):
            return target
        guarded = _guarded_map_for_class(target)
        if not guarded:
            return target
        for attr, locks in guarded.items():
            setattr(target, attr, _GuardedField(target.__name__, attr, locks))
        original_init = target.__init__

        def __init__(self, *args, **kwargs):
            # A sanitized subclass's __init__ runs this wrapper around
            # its base's: only the outermost one publishes.
            outermost = "_san_published" not in self.__dict__
            self.__dict__["_san_published"] = False
            original_init(self, *args, **kwargs)
            if outermost:
                self.__dict__["_san_published"] = True

        __init__.__wrapped__ = original_init
        __init__.__name__ = "__init__"
        target.__init__ = __init__
        target._san_guarded = dict(guarded)
        return target

    if cls is not None:
        return instrument(cls)
    return instrument


# -- view lifetime (epochs) -------------------------------------------------

def new_epoch(key: object, label: str = "") -> None:
    """Storage behind ``key`` is being reused; outstanding views go stale."""
    if not _STATE.enabled:
        return
    stack = _format_stack(skip=2)
    with _STATE.meta_lock:
        epoch, _ = _STATE.regions.get(key, (0, ""))
        _STATE.regions[key] = (epoch + 1, stack)


def _region_epoch(key: object) -> Tuple[int, str]:
    with _STATE.meta_lock:
        return _STATE.regions.setdefault(key, (0, ""))


class SanitizedView(np.ndarray):
    """An ndarray that checks its region's epoch on element access.

    Derived views (slices, reshapes) inherit the region; computed
    results (ufuncs, ``np.concatenate``...) are plain ndarrays — a copy
    of stale-checked data is by definition not stale.
    """

    def __array_finalize__(self, obj) -> None:
        if obj is not None and isinstance(obj, SanitizedView):
            self._san_key = getattr(obj, "_san_key", None)
            self._san_epoch = getattr(obj, "_san_epoch", 0)
            self._san_label = getattr(obj, "_san_label", "")
            self._san_created = getattr(obj, "_san_created", "")

    def _san_check(self) -> None:
        key = getattr(self, "_san_key", None)
        if key is None or not _STATE.enabled:
            return
        with _STATE.meta_lock:
            entry = _STATE.regions.get(key)
        if entry is None:
            return
        epoch, invalidated_at = entry
        if epoch != getattr(self, "_san_epoch", 0):
            _record_violation(StaleViewError(
                f"stale zero-copy view {self._san_label or key!r}: region "
                f"epoch moved {getattr(self, '_san_epoch', 0)} -> {epoch} "
                "(storage was reused; copy before the next dispatch/get)",
                report={
                    "label": str(self._san_label or key),
                    "view_epoch": int(getattr(self, "_san_epoch", 0)),
                    "region_epoch": int(epoch),
                    "created_at": str(getattr(self, "_san_created", "")),
                    "invalidated_at": invalidated_at,
                    "use_at": _format_stack(skip=3),
                },
            ))

    def __getitem__(self, item):
        self._san_check()
        return super().__getitem__(item)

    def __setitem__(self, item, value) -> None:
        self._san_check()
        super().__setitem__(item, value)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        for value in inputs:
            if isinstance(value, SanitizedView):
                value._san_check()
        plain_inputs = tuple(
            value.view(np.ndarray) if isinstance(value, SanitizedView) else value
            for value in inputs
        )
        if out is not None:
            for value in out:
                if isinstance(value, SanitizedView):
                    value._san_check()
            kwargs["out"] = tuple(
                value.view(np.ndarray)
                if isinstance(value, SanitizedView) else value
                for value in out
            )
        return getattr(ufunc, method)(*plain_inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        def unwrap(value):
            if isinstance(value, SanitizedView):
                value._san_check()
                return value.view(np.ndarray)
            if isinstance(value, (list, tuple)):
                return type(value)(unwrap(v) for v in value)
            return value

        return func(*unwrap(list(args)), **{
            key: unwrap(value) for key, value in kwargs.items()
        })

    def copy(self, order="C"):
        self._san_check()
        return self.view(np.ndarray).copy(order)

    def astype(self, dtype, *args, **kwargs):
        self._san_check()
        return self.view(np.ndarray).astype(dtype, *args, **kwargs)


def track_view(array: np.ndarray, key: object, label: str = "") -> np.ndarray:
    """Wrap ``array`` so use after :func:`new_epoch(key)` is a violation.

    Identity when the sanitizer is off.  The wrapped array shares the
    original storage (``.base`` chains through), so zero-copy semantics
    are preserved.
    """
    if not _STATE.enabled:
        return array
    epoch, _ = _region_epoch(key)
    view = array.view(SanitizedView)
    view._san_key = key
    view._san_epoch = epoch
    view._san_label = label
    view._san_created = _format_stack(skip=2)
    return view


def guard_readonly(array: np.ndarray, label: str) -> np.ndarray:
    """Write-protect a region one side of a protocol must never touch.

    The fleet worker's input slab half, for instance: failover
    re-dispatch is only byte-correct because the worker never writes
    it.  NumPy raises ``ValueError`` on writes to a non-writeable
    array; the label is recorded so reports can name the region.
    """
    if not _STATE.enabled:
        return array
    array.flags.writeable = False
    with _STATE.meta_lock:
        _STATE.readonly_regions.append(label)
    return array
