"""Crash-safety lint tests: durable writes must be tmp-write -> fsync ->
rename, or a descriptor write synced after it.

The seeded bug the pass exists for is an un-fsynced manifest write: the
rename publishes a name whose data may not be durable yet, so a power
loss can leave the spill manifest pointing at an empty file.  Fixtures
prove both failure shapes fire, the staged shape is clean, the scope is
respected, and suppressions work; then the real spill/calibration
modules are asserted clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.statan import analyze_source, analyze_paths, load_baseline

REPO_ROOT = Path(__file__).resolve().parent.parent

DURABLE = "src/repro/outofcore/mod.py"  # inside the durable-write scope
PLANNER = "src/repro/planner/mod.py"  # also in scope (planner package)
ELSEWHERE = "src/repro/core/mod.py"  # outside it


def run(source: str, path: str = DURABLE):
    return analyze_source(textwrap.dedent(source), path)


def rules_of(findings):
    return [f.rule for f in findings]


class TestCrashSafety:
    def test_seeded_unfsynced_manifest_write_fires(self):
        # The seeded bug: staged write + rename, but no fsync — the
        # rename can become durable before the data does.
        findings = run("""
            import json
            import os

            def write_manifest(path, records):
                tmp = str(path) + ".tmp"
                with open(tmp, "w") as handle:
                    handle.write(json.dumps(records))
                os.replace(tmp, path)
        """)
        assert rules_of(findings) == ["crash-safety"]
        assert "rename without fsync" in findings[0].message
        assert findings[0].qualname == "write_manifest"

    def test_bare_durable_write_fires(self):
        findings = run("""
            def write_manifest(path, payload):
                with open(path, "w") as handle:
                    handle.write(payload)
        """)
        assert rules_of(findings) == ["crash-safety"]
        assert "bare durable write" in findings[0].message

    def test_path_write_text_always_fires_in_scope(self):
        findings = run("""
            def save(path, payload):
                path.write_text(payload)
        """)
        assert rules_of(findings) == ["crash-safety"]
        assert "write_text" in findings[0].message

    def test_staged_shape_is_clean(self):
        findings = run("""
            import os

            def write_manifest(path, payload):
                tmp = str(path) + ".tmp"
                with open(tmp, "w") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
        """)
        assert findings == []

    def test_fdopen_write_is_checked_too(self):
        findings = run("""
            import os
            import tempfile

            def write_manifest(path, payload):
                fd, tmp = tempfile.mkstemp(dir=str(path))
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
        """)
        assert rules_of(findings) == ["crash-safety"]
        assert "rename without fsync" in findings[0].message

    def test_unsynced_descriptor_write_fires(self):
        # os.open + os.pwrite writes in place with no rename, so the
        # open()-mode check never sees it; the sync comes *before* the
        # write, which does not make the write durable.
        findings = run("""
            import os

            def commit(path, offset, payload):
                fd = os.open(path, os.O_RDWR | os.O_CREAT)
                os.fdatasync(fd)
                os.pwrite(fd, payload, offset)
                os.close(fd)
        """)
        assert rules_of(findings) == ["crash-safety"]
        assert "unsynced descriptor write" in findings[0].message
        assert "os.pwrite" in findings[0].message
        assert findings[0].qualname == "commit"

    def test_descriptor_write_synced_after_is_clean(self):
        findings = run("""
            import os

            def append(path, record):
                fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
                try:
                    os.write(fd, record)
                    os.fdatasync(fd)
                finally:
                    os.close(fd)
        """)
        assert findings == []

    def test_read_mode_open_is_exempt(self):
        findings = run("""
            import json

            def load_manifest(path):
                with open(path) as handle:
                    return json.load(handle)
        """)
        assert findings == []

    def test_out_of_scope_paths_are_not_audited(self):
        findings = run(
            """
            def dump(path, payload):
                with open(path, "w") as handle:
                    handle.write(payload)
            """,
            path=ELSEWHERE,
        )
        assert findings == []

    def test_planner_scope_is_audited(self):
        findings = run(
            """
            def save_cache(path, payload):
                path.write_text(payload)
            """,
            path=PLANNER,
        )
        assert rules_of(findings) == ["crash-safety"]

    def test_suppression_with_reason_works(self):
        findings = run("""
            def debug_dump(path, payload):
                with open(path, "w") as handle:  # statan: ignore[crash-safety] -- throwaway debug dump, not a durable artifact
                    handle.write(payload)
        """)
        assert findings == []

    def test_nested_function_facts_do_not_leak_to_parent(self):
        # The parent stages-and-renames correctly; the nested helper
        # writes bare.  The nested write must still fire (function-local
        # facts, not file-local).
        findings = run("""
            import os

            def outer(path, payload):
                tmp = str(path) + ".tmp"
                with open(tmp, "w") as handle:
                    handle.write(payload)
                    os.fsync(handle.fileno())
                os.replace(tmp, path)

                def sloppy(p, data):
                    with open(p, "w") as handle:
                        handle.write(data)
                return sloppy
        """)
        assert rules_of(findings) == ["crash-safety"]
        assert findings[0].qualname == "outer.sloppy"

    def test_real_spill_and_calibration_modules_are_clean(self):
        result = analyze_paths(
            [
                REPO_ROOT / "src" / "repro" / "outofcore",
                REPO_ROOT / "src" / "repro" / "planner",
            ],
            root=REPO_ROOT,
            baseline=load_baseline(),
            check_baseline_staleness=False,
        )
        crash = [f for f in result.findings if f.rule == "crash-safety"]
        assert crash == [], "\n".join(str(f) for f in crash)
