"""Tests for the statan static-analysis suite itself.

Each rule gets fixture sources proving it fires on the bug, stays quiet
on the correct form, and honors suppressions.  The suppression and
baseline machinery is then tested for its own failure modes: missing
reasons, expired ignores, stale allowlist entries, unknown rules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.statan import (
    AnalysisResult,
    analyze_paths,
    analyze_source,
    load_baseline,
)
from repro.statan.baseline import Baseline, BaselineEntry
from repro.statan.engine import iter_python_files
from repro.statan.findings import META_RULES, RULES
from repro.statan.suppress import scan_markers

CORE = "src/repro/core/mod.py"  # inside the determinism scope
MISC = "src/repro/analysis/mod.py"  # outside it


def run(source: str, path: str = CORE, baseline: Baseline = None):
    return analyze_source(textwrap.dedent(source), path, baseline=baseline)


def rules_of(findings) -> list:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# guarded-by


class TestGuardedBy:
    def test_fires_on_unlocked_access(self):
        findings = run(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def bump(self):
                    self._n += 1
            """
        )
        assert rules_of(findings) == ["guarded-by"]
        assert "self._n" in findings[0].message
        assert findings[0].qualname == "Box.bump"

    def test_clean_inside_with_lock(self):
        findings = run(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._n += 1
            """
        )
        assert findings == []

    def test_any_listed_lock_suffices(self):
        findings = run(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cv = threading.Condition(self._lock)
                    self._n = 0  # guarded-by: _cv, _lock

                def via_cv(self):
                    with self._cv:
                        self._n += 1

                def via_lock(self):
                    with self._lock:
                        return self._n
            """
        )
        assert findings == []

    def test_locked_suffix_methods_are_exempt(self):
        findings = run(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def _bump_locked(self):
                    self._n += 1
            """
        )
        assert findings == []

    def test_closure_does_not_inherit_held_locks(self):
        findings = run(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def deferred(self):
                    with self._lock:
                        def later():
                            return self._n
                        return later
            """
        )
        assert rules_of(findings) == ["guarded-by"]


# ---------------------------------------------------------------------------
# scratch-escape


class TestScratchEscape:
    def test_fires_on_returned_arena_view(self):
        findings = run(
            """
            def f(arena):
                buf = arena.get("x", (4,), "f8")
                return buf
            """
        )
        assert rules_of(findings) == ["scratch-escape"]
        assert findings[0].qualname == "f"

    def test_copy_sanitizes(self):
        findings = run(
            """
            def f(arena):
                buf = arena.get("x", (4,), "f8")
                return buf.copy()
            """
        )
        assert findings == []

    def test_copy_false_keeps_taint(self):
        findings = run(
            """
            import numpy as np

            def f(arena):
                buf = arena.get("x", (4,), "f8")
                return np.array(buf, copy=False)
            """
        )
        assert rules_of(findings) == ["scratch-escape"]

    def test_view_methods_propagate(self):
        findings = run(
            """
            def f(workspace):
                buf = workspace.get("x", (4, 2), "f8")
                return buf.reshape(-1)
            """
        )
        assert rules_of(findings) == ["scratch-escape"]

    def test_store_on_self_fires(self):
        findings = run(
            """
            class Holder:
                def grab(self, arena):
                    self.view = arena.get("x", (4,), "f8")
            """
        )
        assert rules_of(findings) == ["scratch-escape"]
        assert "self.view" in findings[0].message

    def test_append_to_self_container_fires(self):
        findings = run(
            """
            class Holder:
                def grab(self, arena):
                    row = arena.get("x", (4,), "f8")
                    self.rows.append(row)
            """
        )
        assert rules_of(findings) == ["scratch-escape"]

    def test_set_result_fires(self):
        findings = run(
            """
            def deliver(future, arena):
                rows = arena.get("x", (4,), "f8")
                future.set_result(rows)
            """
        )
        assert rules_of(findings) == ["scratch-escape"]

    def test_scratch_view_marker_taints_assignment(self):
        findings = run(
            """
            def f(result):
                out = result.batch  # statan: scratch-view
                return out
            """
        )
        assert rules_of(findings) == ["scratch-escape"]

    def test_helper_call_with_arena_propagates(self):
        findings = run(
            """
            def f(batch, workspace):
                offsets = searchsorted_rows(batch, workspace=workspace)
                return offsets
            """
        )
        assert rules_of(findings) == ["scratch-escape"]

    def test_constructor_owning_arena_is_clean(self):
        findings = run(
            """
            class Streamer:
                def __init__(self, workspace):
                    self._sorter = GpuArraySort(workspace=workspace)
            """
        )
        assert findings == []

    def test_baseline_entry_covers_contract(self):
        baseline = Baseline()
        baseline.add(BaselineEntry(
            rule="scratch-escape",
            key=f"{CORE}::f",
            reason="documented scratch contract",
        ))
        findings = run(
            """
            def f(arena):
                return arena.get("x", (4,), "f8")
            """,
            baseline=baseline,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# nondeterminism


class TestNondeterminism:
    def test_time_time_fires_in_scope(self):
        findings = run(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert rules_of(findings) == ["nondeterminism"]

    def test_perf_counter_is_fine(self):
        findings = run(
            """
            import time

            def tick():
                return time.perf_counter()
            """
        )
        assert findings == []

    def test_out_of_scope_paths_are_not_audited(self):
        findings = run(
            """
            import time

            def stamp():
                return time.time()
            """,
            path=MISC,
        )
        assert findings == []

    def test_random_import_fires(self):
        assert rules_of(run("import random\nRNG = random.Random\n")) == [
            "nondeterminism"
        ]
        assert rules_of(run("from random import shuffle\nMIX = shuffle\n")) == [
            "nondeterminism"
        ]

    def test_unseeded_default_rng_fires(self):
        findings = run(
            """
            import numpy as np

            def draw():
                return np.random.default_rng()
            """
        )
        assert rules_of(findings) == ["nondeterminism"]

    def test_seeded_default_rng_is_fine(self):
        findings = run(
            """
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed)
            """
        )
        assert findings == []

    def test_global_state_sampler_fires(self):
        findings = run(
            """
            import numpy as np

            def draw():
                return np.random.rand(3)
            """
        )
        assert rules_of(findings) == ["nondeterminism"]


# ---------------------------------------------------------------------------
# hygiene


class TestHygiene:
    def test_bare_except_fires(self):
        findings = run(
            """
            def f():
                try:
                    g()
                except:
                    return None
            """,
            path=MISC,
        )
        assert rules_of(findings) == ["silent-except"]

    def test_except_exception_pass_fires(self):
        findings = run(
            """
            def f():
                try:
                    g()
                except Exception:
                    pass
            """,
            path=MISC,
        )
        assert rules_of(findings) == ["silent-except"]

    def test_handled_broad_except_is_fine(self):
        findings = run(
            """
            def f(log):
                try:
                    g()
                except Exception as exc:
                    log.warning("g failed: %s", exc)
            """,
            path=MISC,
        )
        assert findings == []

    def test_narrow_except_pass_is_fine(self):
        findings = run(
            """
            def f():
                try:
                    g()
                except ValueError:
                    pass
            """,
            path=MISC,
        )
        assert findings == []

    def test_mutable_default_fires(self):
        findings = run("def f(x=[]):\n    return x\n", path=MISC)
        assert rules_of(findings) == ["mutable-default"]

    def test_mutable_kwonly_default_fires(self):
        findings = run("def f(*, x={}):\n    return x\n", path=MISC)
        assert rules_of(findings) == ["mutable-default"]

    def test_none_default_is_fine(self):
        findings = run("def f(x=None):\n    return x or []\n", path=MISC)
        assert findings == []

    def test_unused_import_fires(self):
        findings = run(
            """
            import os
            import sys as system
            from json import (
                dumps,
                loads,
            )
            try:
                import numpy as np
            except ImportError:
                np = None

            def f():
                return os.getcwd(), dumps
            """,
            path=MISC,
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("unused-import", 3),   # system
            ("unused-import", 6),   # loads
            ("unused-import", 9),   # np: only rebound, never read
        ]

    def test_used_imports_are_fine(self):
        findings = run(
            """
            from __future__ import annotations

            import os.path
            from typing import TYPE_CHECKING, Optional

            if TYPE_CHECKING:
                from collections import OrderedDict
            from json import dumps

            __all__ = ["dumps"]

            def f(x: "Optional[OrderedDict]") -> None:
                return os.path.basename(x)
            """,
            path=MISC,
        )
        assert findings == []

    def test_init_reexports_are_skipped(self):
        findings = run(
            "from .mod import thing\n", path="src/repro/analysis/__init__.py"
        )
        assert findings == []


# ---------------------------------------------------------------------------
# suppressions


class TestSuppressions:
    def test_suppression_with_reason_silences(self):
        findings = run(
            "def f(x=[]):  # statan: ignore[mutable-default] -- fixture\n"
            "    return x\n",
            path=MISC,
        )
        assert findings == []

    def test_reasonless_suppression_is_ineffective(self):
        findings = run(
            "def f(x=[]):  # statan: ignore[mutable-default]\n"
            "    return x\n",
            path=MISC,
        )
        assert sorted(rules_of(findings)) == [
            "mutable-default",
            "suppression-missing-reason",
        ]

    def test_unused_suppression_is_a_finding(self):
        findings = run(
            "def f(x=None):  # statan: ignore[mutable-default] -- stale\n"
            "    return x\n",
            path=MISC,
        )
        assert rules_of(findings) == ["unused-suppression"]

    def test_unknown_rule_is_a_finding(self):
        findings = run(
            "x = 1  # statan: ignore[no-such-rule] -- why\n", path=MISC
        )
        assert "unknown-rule" in rules_of(findings)

    def test_meta_rules_cannot_be_suppressed(self):
        findings = run(
            "x = 1  # statan: ignore[stale-baseline] -- nice try\n",
            path=MISC,
        )
        assert "unknown-rule" in rules_of(findings)

    def test_suppression_only_covers_its_own_line(self):
        findings = run(
            """
            def f(x=[]):
                return x  # statan: ignore[mutable-default] -- wrong line
            """,
            path=MISC,
        )
        assert "mutable-default" in rules_of(findings)
        assert "unused-suppression" in rules_of(findings)

    def test_scan_markers_parses_lock_lists(self):
        markers = scan_markers(
            "x = 1  # guarded-by: _wakeup, _lock\n"
            "y = 2  # statan: scratch-view\n"
        )
        assert markers.guarded_by[1] == ("_wakeup", "_lock")
        assert markers.scratch_view_lines == {2}


# ---------------------------------------------------------------------------
# parse errors, baseline, engine


class TestEngineAndBaseline:
    def test_syntax_error_becomes_parse_error_finding(self):
        findings = run("def f(:\n", path=MISC)
        assert rules_of(findings) == ["parse-error"]

    def test_meta_rules_are_registered(self):
        assert META_RULES <= set(RULES)

    def test_baseline_roundtrip(self, tmp_path):
        toml = tmp_path / "baseline.toml"
        toml.write_text(
            '[["scratch-escape"]]\n'
            'key = "src/repro/core/mod.py::f"\n'
            'reason = "documented contract"\n'
        )
        baseline = load_baseline(toml)
        findings = run(
            """
            def f(arena):
                return arena.get("x", (4,), "f8")
            """,
            baseline=baseline,
        )
        assert findings == []
        assert baseline.problems() == []  # entry was used -> not stale

    def test_stale_baseline_entry_is_a_finding(self, tmp_path):
        toml = tmp_path / "baseline.toml"
        toml.write_text(
            '[["scratch-escape"]]\n'
            'key = "src/repro/core/gone.py::f"\n'
            'reason = "the function was deleted"\n'
        )
        baseline = load_baseline(toml)
        problems = baseline.problems()
        assert rules_of(problems) == ["stale-baseline"]

    def test_baseline_entry_without_reason_is_a_finding(self, tmp_path):
        toml = tmp_path / "baseline.toml"
        toml.write_text(
            '[["scratch-escape"]]\nkey = "src/repro/core/mod.py::f"\n'
        )
        baseline = load_baseline(toml)
        findings = run(
            """
            def f(arena):
                return arena.get("x", (4,), "f8")
            """,
            baseline=baseline,
        )
        # Reason-less entries do not cover, and the baseline audit flags them.
        assert "scratch-escape" in rules_of(findings)
        assert rules_of(baseline.problems()) == ["suppression-missing-reason"]

    def test_baseline_unknown_rule_is_a_finding(self, tmp_path):
        toml = tmp_path / "baseline.toml"
        toml.write_text(
            '[["no-such-rule"]]\nkey = "a.py::f"\nreason = "why"\n'
        )
        assert rules_of(load_baseline(toml).problems()) == ["unknown-rule"]

    def test_missing_baseline_file_is_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "absent.toml")
        assert baseline.entries == {}

    def test_analyze_paths_relative_labels(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import random\nRNG = random.Random\n")
        (pkg / "ok.py").write_text("x = 1\n")
        result = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert isinstance(result, AnalysisResult)
        assert result.files_analyzed == 2
        assert [f.path for f in result.findings] == ["src/repro/core/bad.py"]
        assert result.by_rule() == {"nondeterminism": 1}

    def test_iter_python_files_dedups(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        files = list(iter_python_files([tmp_path, tmp_path / "a.py"]))
        assert files == [tmp_path / "a.py"]

    def test_json_schema(self, tmp_path):
        (tmp_path / "bad.py").write_text("import random\n")
        bad = tmp_path / "bad.py"
        # Give the file an in-scope label by analyzing from a fake root.
        result = analyze_paths([bad], root=tmp_path)
        payload = json.loads(result.as_json())
        assert payload["schema"] == "statan/v1"
        assert set(payload) == {
            "schema", "files_analyzed", "findings", "by_rule", "clean",
        }
        for finding in payload["findings"]:
            assert set(finding) == {
                "rule", "path", "line", "message", "qualname",
            }

    def test_render_text_clean_and_dirty(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        clean = analyze_paths([tmp_path / "ok.py"], root=tmp_path)
        assert "CLEAN" in clean.render_text()
        (tmp_path / "bad.py").write_text("def f(x=[]):\n    return x\n")
        dirty = analyze_paths([tmp_path / "bad.py"], root=tmp_path)
        assert "mutable-default=1" in dirty.render_text()


# ---------------------------------------------------------------------------
# CLI


REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "statan", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def git(cwd, *args):
    subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True,
        env={**os.environ,
             "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
             "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
    )


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        proc = run_cli(["ok.py", "--baseline", "none.toml"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN" in proc.stdout

    def test_finding_exits_one(self, tmp_path):
        (tmp_path / "bad.py").write_text("def f(x=[]):\n    return x\n")
        proc = run_cli(["bad.py", "--baseline", "none.toml"], tmp_path)
        assert proc.returncode == 1
        assert "[mutable-default]" in proc.stdout

    def test_missing_path_exits_two(self, tmp_path):
        proc = run_cli(["no/such/dir"], tmp_path)
        assert proc.returncode == 2
        assert "no such path" in proc.stderr

    def test_json_format(self, tmp_path):
        (tmp_path / "bad.py").write_text("def f(x=[]):\n    return x\n")
        proc = run_cli(
            ["bad.py", "--format=json", "--baseline", "none.toml"], tmp_path
        )
        payload = json.loads(proc.stdout)
        assert payload["schema"] == "statan/v1"
        assert payload["clean"] is False

    def test_changed_mode_analyzes_only_dirty_files(self, tmp_path):
        git(tmp_path, "init", "-q")
        (tmp_path / "committed.py").write_text(
            "def f(x=[]):\n    return x\n"  # a finding, but committed+clean
        )
        git(tmp_path, "add", ".")
        git(tmp_path, "commit", "-qm", "seed")
        proc = run_cli(["--changed", "--baseline", "none.toml"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no changed python files" in proc.stdout

        # A modified tracked file and a new untracked file both count.
        (tmp_path / "committed.py").write_text(
            "def f(x=[]):\n    return [x]\n"
        )
        (tmp_path / "fresh.py").write_text("import time\nx = 1\n")
        proc = run_cli(["--changed", "--baseline", "none.toml"], tmp_path)
        assert proc.returncode == 1
        assert "committed.py" in proc.stdout
        assert proc.stdout.count("[mutable-default]") == 1

    def test_changed_mode_outside_git_exits_two(self, tmp_path):
        proc = run_cli(["--changed"], tmp_path)
        assert proc.returncode == 2

    def test_changed_mode_survives_a_deleted_file(self, tmp_path):
        # `git diff --name-only` lists a deleted tracked file; analyzing
        # it would crash on read.  The deletion must be skipped while
        # the surviving dirty file is still analyzed.
        git(tmp_path, "init", "-q")
        (tmp_path / "doomed.py").write_text("x = 1\n")
        (tmp_path / "kept.py").write_text("y = 2\n")
        git(tmp_path, "add", ".")
        git(tmp_path, "commit", "-qm", "seed")
        (tmp_path / "doomed.py").unlink()
        (tmp_path / "kept.py").write_text("def f(x=[]):\n    return x\n")
        proc = run_cli(["--changed", "--baseline", "none.toml"], tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "kept.py" in proc.stdout
        assert "doomed.py" not in proc.stdout

    def test_changed_mode_with_only_deletions_is_clean(self, tmp_path):
        git(tmp_path, "init", "-q")
        (tmp_path / "doomed.py").write_text("x = 1\n")
        git(tmp_path, "add", ".")
        git(tmp_path, "commit", "-qm", "seed")
        (tmp_path / "doomed.py").unlink()
        proc = run_cli(["--changed", "--baseline", "none.toml"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no changed python files" in proc.stdout
