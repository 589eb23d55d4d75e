"""The committed ``BENCH_*.json`` artifacts and the shared artifact module
(``benchmarks/_artifact.py``) behind the five benchmark drivers.

Each committed artifact must validate through its driver's CLI, and every
gate block it stores must be re-derived, key for key, from its stored
numbers: the artifacts pin the gates' behaviour until they are
regenerated.
"""

import copy
import importlib
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import _artifact  # noqa: E402
from _artifact import NUM, ByKind, Gate, Opt  # noqa: E402

DRIVERS = ("hotpath", "service", "chaos", "fleet", "capacity")


def _driver(name):
    return importlib.import_module(f"bench_{name}")


@pytest.mark.parametrize("name", DRIVERS)
def test_committed_artifact_validates(name):
    path = REPO_ROOT / f"BENCH_{name}.json"
    assert _driver(name).main(["--check-schema", str(path)]) == 0


@pytest.mark.parametrize("name", DRIVERS)
def test_committed_gate_blocks_rederive(name):
    driver = _driver(name)
    path = REPO_ROOT / f"BENCH_{name}.json"
    stored = json.loads(path.read_text())
    report = copy.deepcopy(stored)
    assert _artifact.apply_gates(report, driver.GATES)
    for gate in driver.GATES:
        assert report[gate.block] == stored[gate.block], gate.block
    assert driver.main(["--check-gate", str(path)]) == 0


SPEC = {
    "schema": "toy/v1",
    "results": [ByKind({
        "a": {"name": str, "ms": NUM, "latency_ms": {"p99": NUM}},
        "b": {"name": str, "note": Opt(str)},
    })],
}


def _at_most(report, t):
    return [f"{c['name']}: {c['ms']} > {t['max_ms']}"
            for c in report["results"] if c.get("ms", 0) > t["max_ms"]]


GATES = (Gate("gate", {"max_ms": 5.0}, (_at_most,),
              derive=lambda report: {"cells": len(report["results"])}),)


def _toy(ms=1.0):
    return {
        "schema": "toy/v1",
        "results": [
            {"kind": "a", "name": "x", "ms": ms, "latency_ms": {"p99": 2.0}},
            {"kind": "b", "name": "y"},
        ],
    }


def _check(report):
    return _artifact.check_schema(report, SPEC, GATES)


class TestCheckSchema:
    def test_valid_report(self):
        assert _check(_toy()) == []

    def test_errors_name_their_path(self):
        report = _toy()
        del report["results"][0]["latency_ms"]["p99"]
        report["results"][1]["note"] = 3
        assert _check(report) == [
            "results[0].latency_ms.p99 missing or non-numeric",
            "results[1].note missing or not str",
        ]

    def test_literal_list_and_kind(self):
        assert _check({"schema": "toy/v0", "results": []}) == [
            "schema must be 'toy/v1', got 'toy/v0'",
            "results must be a non-empty list",
        ]
        report = _toy()
        report["results"][0]["kind"] = "c"
        assert _check(report) == [
            "results[0].kind must be one of ['a', 'b'], got 'c'"
        ]

    def test_gate_block_needs_boolean_passed(self):
        report = _toy()
        report["gate"] = {"passed": "yes"}
        assert _check(report) == ["gate.passed missing or not bool"]


class TestApplyGates:
    def test_block_holds_thresholds_derived_fields_and_verdict(self):
        report = _toy()
        assert _artifact.apply_gates(report, GATES) is True
        assert report["gate"] == {
            "max_ms": 5.0, "cells": 2, "passed": True, "failures": [],
        }
        assert _artifact.apply_gates(_toy(ms=9.0), GATES) is False

    def test_cells_present_names_each_missing_cell(self):
        report = _toy()
        assert _artifact.cells_present(report, {"cell": "x"}) == []
        failures = _artifact.cells_present(report, {"cells": ["x", "z", "w"]})
        assert len(failures) == 2
        assert "'z'" in failures[0] and "'w'" in failures[1]


class TestMain:
    def _main(self, argv, report):
        return _artifact.main(
            argv, description="toy", grids=["g"], default_grid="g",
            check=_check, gates=GATES, run=lambda args: report,
        )

    def test_run_gate_and_write(self, tmp_path):
        out = tmp_path / "toy.json"
        assert self._main(["--gate", "--out", str(out)], _toy()) == 0
        written = json.loads(out.read_text())
        assert written["gate"]["passed"] is True
        assert self._main(["--check-schema", str(out)], None) == 0
        assert self._main(["--check-gate", str(out)], None) == 0

    def test_failed_gate_exits_1_and_still_writes(self, tmp_path):
        out = tmp_path / "toy.json"
        assert self._main(["--gate", "--out", str(out)], _toy(ms=9.0)) == 1
        assert json.loads(out.read_text())["gate"]["passed"] is False
        assert self._main(["--check-gate", str(out)], None) == 1

    def test_invalid_file_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "toy/v1", "results": []}))
        assert self._main(["--check-schema", str(path)], None) == 1
        assert self._main(["--check-gate", str(path)], None) == 1

    def test_emitter_breaking_its_schema_exits_2(self, tmp_path):
        out = tmp_path / "toy.json"
        report = _toy()
        del report["results"][0]["ms"]
        assert self._main(["--out", str(out)], report) == 2
        assert not out.exists()
