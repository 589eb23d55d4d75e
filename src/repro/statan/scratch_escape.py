"""Scratch-escape lint: reused storage must not leak without a copy.

:meth:`ScratchArena.get` hands out views that die at the next same-key
request, and demuxed service rows are views into a batch buffer the next
dispatch overwrites.  The bug class this catches is *retaining* such a
view: returning it, storing it on ``self``, appending it to a container
on ``self``, or resolving a future with it.

Taint model (intra-procedural, per function):

* **sources** — calls to ``.get(...)`` on a receiver whose dotted name
  mentions ``arena`` or ``workspace`` (``self.workspace.get(...)``,
  ``arena.get(...)``), and any
  assignment whose line carries a ``# statan: scratch-view`` marker (the
  project convention for "this expression is a view of reused storage"
  where the lint cannot see it, e.g. ``out = result.batch``);
* **propagation** — through names, attributes, subscripts/slices,
  ndarray view methods (``reshape``/``ravel``/``view``/``transpose``/
  ``squeeze``/``swapaxes``), conditional expressions, tuples/lists, and
  through any call that receives a tainted value, and through lowercase
  helper calls that receive an arena object (``fused_bucket_sort(...,
  workspace=...)`` returns arena-backed results; a *constructor* given
  the arena merely owns it, so ``GpuArraySort(..., workspace=ws)`` is
  not a view);
* **sanitizers** — ``.copy()``, ``np.array(...)`` (unless
  ``copy=False``), ``.astype(...)`` (unless ``copy=False``), and other
  allocating/aggregating calls kill taint;
* **sinks** — ``return``/``yield`` of a tainted expression, ``self.X =
  tainted``, ``self.X...append(tainted)``, and ``*.set_result(tainted)``.

A sink firing is only *sometimes* a bug: ``GpuArraySort.sort`` returning
an arena-backed batch is the documented ``SortResult.scratch`` contract.
Such contracts are allowlisted per function in ``baseline.toml`` — with
a reason — and the baseline is itself checked for staleness.
"""

from __future__ import annotations

import ast
from typing import List, Set

from .findings import Finding
from .suppress import CommentMarkers

__all__ = ["check_scratch_escape"]

#: Receiver substrings that make ``X.get(...)`` an arena checkout.
_ARENA_HINTS = ("arena", "workspace")

#: ndarray methods whose result aliases the receiver's storage.
_VIEW_METHODS = {"reshape", "ravel", "view", "transpose", "squeeze", "swapaxes"}

#: Call names (final dotted component) whose result is fresh storage or
#: a scalar — taint does not pass through them.
_SANITIZERS = {
    "array", "copy", "deepcopy", "astype", "tolist", "item", "copyto",
    "sort", "sorted", "concatenate", "vstack", "hstack", "stack",
    "zeros_like", "ones_like", "empty_like", "full_like",
    "sum", "mean", "std", "min", "max", "all", "any", "nonzero",
    "len", "int", "float", "bool", "str", "repr", "list", "dict", "set",
    "tuple", "range", "enumerate", "zip", "isinstance", "getattr",
}


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name: ``self.workspace``, ``np.random``, ..."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_arena_expr(node: ast.AST) -> bool:
    dotted = _dotted(node).lower()
    return bool(dotted) and any(hint in dotted for hint in _ARENA_HINTS)


def _copy_kw_false(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "copy" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


class _FunctionTaint:
    """Fixpoint taint of local names, then a sink scan, for one function."""

    def __init__(
        self,
        fn: ast.AST,
        qualname: str,
        path: str,
        markers: CommentMarkers,
    ) -> None:
        self.fn = fn
        self.qualname = qualname
        self.path = path
        self.markers = markers
        self.tainted: Set[str] = set()

    # -- taint predicate ---------------------------------------------------
    def is_tainted(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            return self.is_tainted(node.value)
        if isinstance(node, ast.Subscript):
            return self.is_tainted(node.value)
        if isinstance(node, ast.Starred):
            return self.is_tainted(node.value)
        if isinstance(node, ast.IfExp):
            return self.is_tainted(node.body) or self.is_tainted(node.orelse)
        if isinstance(node, ast.BoolOp):
            return any(self.is_tainted(v) for v in node.values)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self.is_tainted(elt) for elt in node.elts)
        if isinstance(node, ast.NamedExpr):
            return self.is_tainted(node.value)
        if isinstance(node, ast.Call):
            return self._call_tainted(node)
        return False

    def _call_tainted(self, call: ast.Call) -> bool:
        func = call.func
        name = ""
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        # Source: arena.get(...).
        if (
            isinstance(func, ast.Attribute)
            and name == "get"
            and _is_arena_expr(func.value)
        ):
            return True
        # Sanitizers allocate fresh storage (np.array(x, copy=False) and
        # x.astype(..., copy=False) keep the alias, so they stay tainted).
        if name in _SANITIZERS:
            if name in ("array", "astype", "asarray") and _copy_kw_false(call):
                pass  # copy=False: still a view
            else:
                return False
        # View methods alias the receiver.
        if (
            isinstance(func, ast.Attribute)
            and name in _VIEW_METHODS
            and self.is_tainted(func.value)
        ):
            return True
        # Propagation: a call fed a tainted value may hand it back.
        args = list(call.args) + [kw.value for kw in call.keywords]
        if any(self.is_tainted(arg) for arg in args):
            return True
        # A call fed the arena *object* propagates only for lowercase
        # helpers (select_splitters, fused_bucket_sort — they return
        # arena-backed results).  Capitalized names are constructors:
        # the instance *owns* the arena, it is not a view of it.
        if name and not name[0].isupper():
            if any(_is_arena_expr(arg) for arg in args):
                return True
        return False

    # -- passes ------------------------------------------------------------
    def _walk_within(self):
        """Walk this function's own body, not nested defs (they get their
        own analysis with their own taint set)."""

        def inner(node: ast.AST):
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                     ast.ClassDef),
                ):
                    continue
                yield child
                yield from inner(child)

        yield from inner(self.fn)

    def _collect(self) -> None:
        for _ in range(8):  # fixpoint: taint through later-defined names
            before = len(self.tainted)
            for node in self._walk_within():
                if isinstance(node, ast.Assign):
                    tainted = (
                        node.lineno in self.markers.scratch_view_lines
                        or self.is_tainted(node.value)
                    )
                    if tainted:
                        for target in node.targets:
                            self._taint_target(target)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if (
                        node.lineno in self.markers.scratch_view_lines
                        or self.is_tainted(node.value)
                    ):
                        self._taint_target(node.target)
                elif isinstance(node, ast.AugAssign):
                    if self.is_tainted(node.value):
                        self._taint_target(node.target)
                elif isinstance(node, ast.NamedExpr):
                    if self.is_tainted(node.value):
                        self._taint_target(node.target)
            if len(self.tainted) == before:
                break

    def _taint_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._taint_target(elt)
        # self.X = tainted is a sink, handled in the sink pass.

    def findings(self) -> List[Finding]:
        self._collect()
        out: List[Finding] = []

        def add(node: ast.AST, what: str) -> None:
            out.append(Finding(
                rule="scratch-escape",
                path=self.path,
                line=node.lineno,
                message=(
                    f"{what} in {self.qualname} without .copy(); copy it "
                    "or allowlist the contract in statan/baseline.toml"
                ),
                qualname=self.qualname,
            ))

        for node in self._walk_within():
            if isinstance(node, ast.Return) and node.value is not None:
                if self.is_tainted(node.value):
                    add(node, "arena-backed value returned")
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                value = getattr(node, "value", None)
                if value is not None and self.is_tainted(value):
                    add(node, "arena-backed value yielded")
            elif isinstance(node, ast.Assign):
                value_tainted = (
                    self.is_tainted(node.value)
                    or node.lineno in self.markers.scratch_view_lines
                )
                if value_tainted:
                    for target in node.targets:
                        attr_root = target
                        if (
                            isinstance(attr_root, ast.Attribute)
                            and isinstance(attr_root.value, ast.Name)
                            and attr_root.value.id == "self"
                        ):
                            add(node, f"scratch view stored on self.{attr_root.attr}")
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                args_tainted = any(self.is_tainted(a) for a in node.args)
                if not args_tainted:
                    continue
                if func.attr == "set_result":
                    add(node, "scratch view delivered via set_result")
                elif func.attr in ("append", "extend") and _dotted(
                    func.value
                ).startswith("self."):
                    add(node, f"scratch view retained in {_dotted(func.value)}")
        return out


def _walk_functions(tree: ast.Module, path: str, markers: CommentMarkers):
    """Yield (function node, dotted qualname) for every def in the module."""

    def visit(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield child, qual
                yield from visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def check_scratch_escape(
    tree: ast.Module, path: str, markers: CommentMarkers
) -> List[Finding]:
    findings: List[Finding] = []
    for fn, qualname in _walk_functions(tree, path, markers):
        findings.extend(
            _FunctionTaint(fn, qualname, path, markers).findings()
        )
    return findings
