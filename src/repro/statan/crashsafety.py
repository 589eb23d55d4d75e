"""Crash-safety lint for durable-write paths (spill store and planner).

The out-of-core tier's whole resumability story rests on data being
durable before anything points at it.  Two write shapes reach that:

* **tmp-write → fsync → rename** for files replaced whole: a file
  written with a bare ``open(path, "w")`` can be torn by a crash
  mid-write, and a rename without an fsync can land an *empty* file
  after power loss;
* **write → fsync in place** for files written through a raw
  descriptor (the spill file's fixed-offset chunks, the journal's
  appended records): a write the function never syncs can still be in
  the page cache when the next record claims it is durable.

This pass checks every function in the durable-write scope
(``repro/outofcore/`` and ``repro/planner/`` — the spill store, and the
planner package, so any file it ever writes must be durable) for those
shapes:

* a write-mode ``open()`` / ``os.fdopen()`` in a function with **no**
  ``os.replace`` / ``os.rename`` is a bare durable write (the data is
  written in place; a crash tears it);
* a write in a function that renames but never calls ``os.fsync`` /
  ``os.fdatasync`` is renamed-without-fsync (the rename can be durable
  before the data is);
* a descriptor write (``os.write`` / ``os.pwrite`` / ``os.writev`` /
  ``os.pwritev`` — how an fd from ``os.open`` with write flags is
  written) with no ``os.fsync`` / ``os.fdatasync`` *after* it in the
  same function is an unsynced descriptor write;
* ``Path.write_text`` / ``Path.write_bytes`` are always flagged in
  scope — they cannot express either shape at all.

Read-mode opens are exempt.  Functions, not files, are the unit: the
repo's idiom writes and syncs inside one function (``commit_chunk``,
``SpillStore._append``), so a function-local check matches how the code
is actually written while staying simple enough to trust.  A
legitimately non-durable write (a debug dump) takes a same-line
``# statan: ignore[crash-safety] -- reason``.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Set, Tuple

from .findings import Finding

__all__ = ["check_crash_safety"]

#: Files whose writes must be durable: the spill store (consulted on
#: resume) and the planner package.
_SCOPE_RE = re.compile(r"(^|/)repro/(outofcore|planner)/")

_WRITE_MODE_RE = re.compile(r"[wax+]")

_FD_WRITES = ("os.write", "os.pwrite", "os.writev", "os.pwritev")


def _call_name(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _dotted(func: ast.AST) -> str:
    """``os.replace`` for ``Attribute(Name('os'), 'replace')``, else ''. """
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
    ):
        return f"{func.value.id}.{func.attr}"
    return ""


def _open_mode(call: ast.Call) -> Optional[str]:
    """The mode string of an ``open``/``fdopen`` call, if statically known."""
    name = _call_name(call.func)
    if name == "open":
        mode_pos = 1
    elif name == "fdopen":
        mode_pos = 1
    else:
        return None
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            value = kw.value.value
            return value if isinstance(value, str) else None
    if len(call.args) > mode_pos:
        arg = call.args[mode_pos]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return "r"  # open() without a mode reads


class _FunctionFacts:
    """Durability-relevant calls inside one function body."""

    def __init__(self) -> None:
        self.write_opens: List[ast.Call] = []
        self.path_writes: List[ast.Call] = []
        self.fd_writes: List[ast.Call] = []
        self.has_rename = False
        #: Source position of the function's last fsync/fdatasync call.
        self.last_fsync: Optional[Tuple[int, int]] = None


def _own_nodes(fn: ast.AST):
    """Every node of ``fn``'s body, not descending into nested defs."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _collect(fn: ast.AST) -> _FunctionFacts:
    facts = _FunctionFacts()
    for node in _own_nodes(fn):
        if not isinstance(node, ast.Call):
            continue
        mode = _open_mode(node)
        if mode is not None and _WRITE_MODE_RE.search(mode):
            facts.write_opens.append(node)
        name = _call_name(node.func)
        if name in ("write_text", "write_bytes"):
            facts.path_writes.append(node)
        dotted = _dotted(node.func)
        if dotted in ("os.replace", "os.rename"):
            facts.has_rename = True
        if dotted in _FD_WRITES:
            facts.fd_writes.append(node)
        if dotted in ("os.fsync", "os.fdatasync"):
            position = (node.lineno, node.col_offset)
            facts.last_fsync = max(facts.last_fsync or position, position)
    return facts


def _functions(tree: ast.Module):
    """Every (qualname, function node) in the module, classes included."""

    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield (qualname, child)
                yield from walk(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def check_crash_safety(tree: ast.Module, path: str) -> List[Finding]:
    if not _SCOPE_RE.search(path):
        return []
    findings: List[Finding] = []
    seen: Set[int] = set()
    for qualname, fn in _functions(tree):
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        facts = _collect(fn)
        for call in facts.path_writes:
            findings.append(Finding(
                rule="crash-safety",
                path=path,
                line=call.lineno,
                message=(
                    "Path.write_text/write_bytes on a durable path cannot "
                    "stage through tmp-write -> fsync -> rename; use "
                    "_atomic_write_bytes or the open/fsync/os.replace shape"
                ),
                qualname=qualname,
            ))
        for call in facts.write_opens:
            if not facts.has_rename:
                findings.append(Finding(
                    rule="crash-safety",
                    path=path,
                    line=call.lineno,
                    message=(
                        f"bare durable write in {qualname}: open(..., "
                        "write mode) with no os.replace/os.rename in the "
                        "function — a crash mid-write tears the file; "
                        "write a tmp file, fsync it, then os.replace"
                    ),
                    qualname=qualname,
                ))
            elif facts.last_fsync is None:
                findings.append(Finding(
                    rule="crash-safety",
                    path=path,
                    line=call.lineno,
                    message=(
                        f"rename without fsync in {qualname}: the rename "
                        "can become durable before the data does (an empty "
                        "file after power loss); os.fsync the tmp file "
                        "before os.replace"
                    ),
                    qualname=qualname,
                ))
        for call in facts.fd_writes:
            if facts.last_fsync is None or facts.last_fsync < (
                call.lineno, call.col_offset
            ):
                findings.append(Finding(
                    rule="crash-safety",
                    path=path,
                    line=call.lineno,
                    message=(
                        f"unsynced descriptor write in {qualname}: "
                        f"{_dotted(call.func)} with no os.fsync/os.fdatasync "
                        "after it in the function — the bytes can still be "
                        "in the page cache when a crash hits; sync the fd "
                        "before anything records them as durable"
                    ),
                    qualname=qualname,
                ))
    return findings
