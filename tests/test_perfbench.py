"""The benchmark's closed_form workload, run as a test: every CLI call of one
pass must pass its output check against the recorded references.  Reads
``perfbench/`` and writes only into the test's temporary directory."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from teampay.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while it loads.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_closed_form_workload_passes_its_reference_checks(tmp_path, monkeypatch):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    _, calls = _workloads(monkeypatch).build("closed_form", 1, tmp_path, reference)
    assert calls
    for call in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(list(call.argv))
        assert call.check(code, out.getvalue()) is None, call.label
