"""Project-native static analysis for the repo's three real hazard classes.

The paper's central claim is *in-place safety*: phase 2 writes buckets
back into the storage other threads read.  PRs 3-4 extended that hazard
surface onto the host — :class:`~repro.core.workspace.ScratchArena`
buffers are reused across sorts (``SortResult.scratch=True``),
``copy=False`` service futures hand out views that die at the next
dispatch, and the service stack shares mutable state across threads.
:mod:`repro.gpusim.memcheck` checks the *device*-side contracts at
runtime over traces; ``statan`` checks the *host*-side contracts
statically, over the AST, on every ``make lint``:

* ``guarded-by`` — attributes annotated ``# guarded-by: _lock`` in
  ``__init__`` may only be touched inside a ``with self._lock:`` block
  of that class (:mod:`.guarded_by`);
* ``scratch-escape`` — arena-backed buffers and demux row views must be
  copied before escaping a function, or the escape must be named in the
  checked ``baseline.toml`` (:mod:`.scratch_escape`);
* ``nondeterminism`` / ``silent-except`` / ``mutable-default`` /
  ``unused-import`` — the determinism & hygiene audit
  (:mod:`.determinism`, :mod:`.hygiene`), which also covers
  ``benchmarks/``;
* ``lock-order`` — cycles in the whole-program may-acquire graph
  (:mod:`.lockorder`), diffable against the runtime-observed graph;
* ``crash-safety`` — durable writes in ``outofcore/``/``planner/``
  outside the tmp-write → fsync → rename shape (:mod:`.crashsafety`).

The same contracts are enforced at runtime by the checked-build
sanitizer (:mod:`.runtime`, ``REPRO_SANITIZE=1`` / ``make sanitize``):
instrumented locks validate every guarded-by access and record the
acquisition graph, and region epochs catch zero-copy views used after
their storage was reused.

Entry points: :func:`analyze_paths` (the pytest gate uses it) and the
``repro statan`` CLI subcommand (:mod:`.cli`).
"""

from __future__ import annotations

from .baseline import Baseline, load_baseline
from .engine import AnalysisResult, analyze_paths, analyze_source, iter_python_files
from .findings import RULES, Finding

__all__ = [
    "AnalysisResult",
    "Baseline",
    "Finding",
    "RULES",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "load_baseline",
]
