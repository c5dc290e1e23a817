"""The benchmark's workloads, run as tests: every CLI call of one pass of
``closed_form``, ``general_path`` and ``oracle_verify``, and the quadratic
``optimize`` calls of ``large_network``, must pass their output checks
against the recorded references.  Reads
``perfbench/`` and writes only into the test's temporary directory."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from teampay.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while it loads.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _run_checked(call) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(call.argv))
    assert call.check(code, out.getvalue()) is None, call.label
    return out.getvalue()


def test_closed_form_workload_passes_its_reference_checks(tmp_path, monkeypatch):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    _, calls = _workloads(monkeypatch).build("closed_form", 1, tmp_path, reference)
    assert calls
    for call in calls:
        _run_checked(call)


def test_general_path_workload_passes_its_reference_checks(tmp_path, monkeypatch):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    _, calls = _workloads(monkeypatch).build("general_path", 1, tmp_path, reference)
    assert [call.command for call in calls] == ["optimize", "optimize", "equity"]
    for call in calls:
        _run_checked(call)


def test_oracle_verify_workload_passes_its_reference_checks(tmp_path, monkeypatch):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    _, calls = _workloads(monkeypatch).build("oracle_verify", 1, tmp_path, reference)
    assert [call.command for call in calls] == ["verify"]
    for call in calls:
        _run_checked(call)


@pytest.mark.parametrize("seed", [1, 2])
def test_large_network_optimize_calls_pass_their_reference_checks(tmp_path, monkeypatch, seed):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    _, calls = _workloads(monkeypatch).build("large_network", seed, tmp_path, reference)
    optimize = {call.label: call for call in calls if call.command == "optimize"}
    assert sorted(optimize) == ["gnp40", "weighted12", "weighted14"]
    methods = {label: json.loads(_run_checked(call))["method"] for label, call in optimize.items()}
    # The unweighted G(40, 0.5) graph takes the clique search, not the fallback.
    assert methods == dict.fromkeys(optimize, "quadratic_closed_form")
