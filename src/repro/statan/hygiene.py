"""Hygiene audit, repo-wide: ``silent-except``, ``mutable-default`` and
``unused-import``.

* ``silent-except`` — a bare ``except:`` (catches ``KeyboardInterrupt``
  and ``SystemExit``), or an ``except Exception:`` / ``except
  BaseException:`` whose body is only ``pass``.  CONTRIBUTING's "faults
  must stay loud" rule, enforced.  A handler that logs, counts,
  re-raises, or falls back is fine — it is the silent swallow that is
  forbidden.
* ``mutable-default`` — ``def f(x=[])`` / ``={}`` / ``=set()`` share one
  object across calls; the classic aliasing bug.
* ``unused-import`` — a module-level import whose name is never read
  in the module, named in ``__all__``, or used in a string annotation.
  ``__future__`` imports and ``__init__.py`` files (re-exports) are
  skipped; an import kept for its side effect takes a suppression.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator, List, Set

from .findings import Finding

__all__ = ["check_silent_except", "check_mutable_default",
           "check_unused_import"]


def _is_pass_only(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or ellipsis
        return False
    return True


def _broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    if isinstance(handler.type, ast.Name):
        return handler.type.id in ("Exception", "BaseException")
    return False


def check_silent_except(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append(Finding(
                rule="silent-except", path=path, line=node.lineno,
                message=(
                    "bare 'except:' catches KeyboardInterrupt/SystemExit; "
                    "name the exception types"
                ),
            ))
        elif _broad_handler(node) and _is_pass_only(node.body):
            findings.append(Finding(
                rule="silent-except", path=path, line=node.lineno,
                message=(
                    "'except Exception: pass' swallows every error "
                    "silently; handle, count, or narrow it"
                ),
            ))
    return findings


_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "deque"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


def check_mutable_default(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                findings.append(Finding(
                    rule="mutable-default", path=path, line=default.lineno,
                    message=(
                        f"mutable default argument in {node.name}() is "
                        "shared across calls; default to None and build "
                        "inside the function"
                    ),
                ))
    return findings


def _module_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Import statements at module level, including inside top-level
    ``if``/``try`` blocks (optional dependencies, ``TYPE_CHECKING``)."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            yield from _module_imports(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            blocks = stmt.body + stmt.orelse + stmt.finalbody
            for handler in stmt.handlers:
                blocks = blocks + handler.body
            yield from _module_imports(blocks)


def _string_annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Names read by the string literals inside one annotation."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        # ast.arg and ast.AnnAssign carry .annotation, function defs .returns.
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            if annotation is not None:
                used.update(_string_annotation_names(annotation))
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return used


def check_unused_import(tree: ast.Module, path: str) -> List[Finding]:
    if PurePosixPath(path).name == "__init__.py":
        return []
    used = _used_names(tree)
    findings: List[Finding] = []
    for stmt in _module_imports(tree.body):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            if alias.name == "*":
                continue
            if alias.asname is not None:
                bound = alias.asname
            elif isinstance(stmt, ast.Import):
                bound = alias.name.split(".")[0]
            else:
                bound = alias.name
            if bound not in used:
                findings.append(Finding(
                    rule="unused-import", path=path, line=alias.lineno,
                    message=(
                        f"'{bound}' is imported but never used; delete "
                        "the import"
                    ),
                ))
    return findings
