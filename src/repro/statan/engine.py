"""The statan engine: discover files, run rules, apply suppressions.

Pipeline per file: parse → run the per-file analysis rules → drop
findings silenced by a valid same-line ``# statan: ignore[rule] --
reason`` comment → drop findings covered by a ``baseline.toml`` entry.
Then the engine audits the silencers themselves: reason-less
suppressions are *ineffective* (the original finding stays **and** a
``suppression-missing-reason`` finding is added), unused suppressions
and stale baseline entries are findings, unknown rule names are
findings.  Meta findings cannot be suppressed — an allowlist must never
be able to silence its own decay.

Two scopes of analysis:

* ``src`` trees get the full rule set, including the whole-program
  lock-order pass (:mod:`repro.statan.lockorder`), which runs once
  over *all* parsed files because its edges span modules;
* ``benchmarks/`` files get the hygiene and determinism rules only —
  bench harnesses legitimately return views, hold no annotated locks,
  and write throwaway artifacts, but they must still be deterministic
  and must not swallow errors.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .baseline import Baseline
from .crashsafety import check_crash_safety
from .determinism import check_nondeterminism
from .findings import META_RULES, RULES, Finding
from .guarded_by import check_guarded_by
from .hygiene import (
    check_mutable_default,
    check_silent_except,
    check_unused_import,
)
from .lockorder import check_lock_order
from .scratch_escape import check_scratch_escape
from .suppress import CommentMarkers, scan_markers

__all__ = ["AnalysisResult", "analyze_paths", "analyze_source",
           "iter_python_files"]

#: Paths analyzed hygiene/determinism-only (no concurrency/lifetime
#: rules): benchmark harnesses.
_HYGIENE_ONLY_RE = re.compile(r"(^|/)benchmarks/")


@dataclasses.dataclass
class AnalysisResult:
    """Everything one statan run produced."""

    findings: List[Finding]
    files_analyzed: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_rule(self) -> dict:
        counts: dict = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def as_json(self) -> str:
        return json.dumps(
            {
                "schema": "statan/v1",
                "files_analyzed": self.files_analyzed,
                "findings": [f.as_dict() for f in self.findings],
                "by_rule": self.by_rule(),
                "clean": self.clean,
            },
            indent=2,
            sort_keys=True,
        )

    def render_text(self) -> str:
        if self.clean:
            return (
                f"statan: CLEAN — {self.files_analyzed} file(s), "
                "0 findings"
            )
        lines = [str(f) for f in self.findings]
        summary = ", ".join(
            f"{rule}={count}" for rule, count in sorted(self.by_rule().items())
        )
        lines.append(
            f"statan: {len(self.findings)} finding(s) in "
            f"{self.files_analyzed} file(s) ({summary})"
        )
        return "\n".join(lines)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories to ``.py`` files, sorted, deduplicated."""
    seen = set()
    for path in paths:
        path = Path(path)
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _file_rule_findings(
    tree: ast.Module, path: str, markers: CommentMarkers
) -> List[Finding]:
    """Raw per-file findings, scoped by path (see module docstring)."""
    raw: List[Finding] = []
    raw.extend(check_nondeterminism(tree, path))
    raw.extend(check_silent_except(tree, path))
    raw.extend(check_mutable_default(tree, path))
    raw.extend(check_unused_import(tree, path))
    if not _HYGIENE_ONLY_RE.search(path):
        raw.extend(check_guarded_by(tree, path, markers))
        raw.extend(check_scratch_escape(tree, path, markers))
        raw.extend(check_crash_safety(tree, path))
    return raw


def _apply_suppressions(
    raw: List[Finding],
    markers: CommentMarkers,
    baseline: Optional[Baseline],
) -> List[Finding]:
    """Drop suppressed/baselined findings, marking suppressions used."""
    by_line = markers.suppressions_by_line()
    kept: List[Finding] = []
    for finding in raw:
        suppressed = False
        if finding.rule not in META_RULES:
            for sup in by_line.get(finding.line, []):
                if finding.rule in sup.rules:
                    sup.used = True
                    if sup.reason:
                        suppressed = True
                    # A reason-less suppression is ineffective: the
                    # finding stays, and the meta audit below flags it.
        if suppressed:
            continue
        if baseline is not None and baseline.covers(finding):
            continue
        kept.append(finding)
    return kept


def _audit_markers(markers: CommentMarkers, path: str) -> List[Finding]:
    """Meta findings about the file's suppression comments themselves."""
    found: List[Finding] = []
    for sup in markers.suppressions:
        for rule in sup.rules:
            if rule not in RULES:
                found.append(Finding(
                    rule="unknown-rule", path=path, line=sup.line,
                    message=f"suppression names unknown rule {rule!r}",
                ))
            elif rule in META_RULES:
                found.append(Finding(
                    rule="unknown-rule", path=path, line=sup.line,
                    message=(
                        f"meta rule {rule!r} cannot be suppressed (the "
                        "allowlist must not silence its own audit)"
                    ),
                ))
        if not sup.reason:
            found.append(Finding(
                rule="suppression-missing-reason", path=path, line=sup.line,
                message=(
                    "suppression has no reason; write "
                    "'# statan: ignore[rule] -- why this is safe'"
                ),
            ))
        elif not sup.used:
            found.append(Finding(
                rule="unused-suppression", path=path, line=sup.line,
                message=(
                    "suppression matches no finding (expired); delete it"
                ),
            ))
    return found


def analyze_source(
    source: str,
    path: str,
    *,
    baseline: Optional[Baseline] = None,
) -> List[Finding]:
    """Run every rule over one source string; ``path`` scopes and labels.

    Returns post-suppression findings, including the meta findings about
    this file's suppression comments.  The lock-order pass sees only
    this one file here (single-module cycles); cross-module edges need
    :func:`analyze_paths`.  Baseline staleness is a *run* property —
    :func:`analyze_paths` checks it, not this.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding(
            rule="parse-error", path=path, line=exc.lineno or 0,
            message=f"file does not parse: {exc.msg}",
        )]
    markers = scan_markers(source)
    raw = _file_rule_findings(tree, path, markers)
    if not _HYGIENE_ONLY_RE.search(path):
        raw.extend(check_lock_order({path: tree}))
    kept = _apply_suppressions(raw, markers, baseline)
    kept.extend(_audit_markers(markers, path))
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def analyze_paths(
    paths: Sequence[Path],
    *,
    root: Optional[Path] = None,
    baseline: Optional[Baseline] = None,
    check_baseline_staleness: bool = True,
) -> AnalysisResult:
    """Analyze files/directories; paths in findings are ``root``-relative.

    The lock-order pass runs once over every parsed (non-benchmark)
    file, because its edges cross modules — then its findings flow
    through the owning file's suppressions and the baseline exactly
    like per-file findings.

    ``check_baseline_staleness=False`` is for partial runs (``--changed``):
    an entry for an unanalyzed file is not stale evidence.
    """
    root = Path(root) if root is not None else Path.cwd()
    findings: List[Finding] = []
    files = 0
    parsed: List[Tuple[str, ast.Module, CommentMarkers, List[Finding]]] = []
    for file_path in iter_python_files(paths):
        try:
            label = file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            label = file_path.as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(Finding(
                rule="parse-error", path=label, line=0,
                message=f"unreadable file: {exc}",
            ))
            continue
        files += 1
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(Finding(
                rule="parse-error", path=label, line=exc.lineno or 0,
                message=f"file does not parse: {exc.msg}",
            ))
            continue
        markers = scan_markers(source)
        parsed.append((
            label, tree, markers, _file_rule_findings(tree, label, markers)
        ))

    lock_trees: Dict[str, ast.Module] = {
        label: tree for label, tree, _, _ in parsed
        if not _HYGIENE_ONLY_RE.search(label)
    }
    lock_findings_by_path: Dict[str, List[Finding]] = {}
    for finding in check_lock_order(lock_trees):
        lock_findings_by_path.setdefault(finding.path, []).append(finding)

    for label, _tree, markers, raw in parsed:
        raw = raw + lock_findings_by_path.get(label, [])
        kept = _apply_suppressions(raw, markers, baseline)
        kept.extend(_audit_markers(markers, label))
        findings.extend(kept)

    if baseline is not None:
        problems = baseline.problems()
        if not check_baseline_staleness:
            problems = [p for p in problems if p.rule != "stale-baseline"]
        findings.extend(problems)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return AnalysisResult(findings=findings, files_analyzed=files)
