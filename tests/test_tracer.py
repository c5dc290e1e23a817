"""The benchmark's per-layer tracer against the program it patches."""

import contextlib
import importlib.util
import inspect
import io
import json
from pathlib import Path

from teampay import cli, contract_opt, diagnostics

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

TINY = {
    "n": 1,
    "production": {"type": "quadratic_network", "weights": [[0.0]]},
    "outcomes": {"type": "binary_success", "success": {"type": "logistic", "scale": 0.7, "shift": -0.3}},
    "utilities": {"type": "sqrt"},
    "costs": {"type": "power"},
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(tracing):
    """Every module the tracer patches, and every class defined in one."""
    owners = list(tracing.MODULES)
    for module in tracing.MODULES:
        owners += [obj for obj in vars(module).values()
                   if inspect.isclass(obj) and obj.__module__.startswith("teampay")]
    return owners


def test_tracer_sees_first_order_spans_and_restores_every_patched_attribute(tmp_path):
    tracing = _load_tracer()
    problem = tmp_path / "tiny.json"
    problem.write_text(json.dumps(TINY))
    owners = _owners(tracing)
    before = [dict(vars(owner)) for owner in owners]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert contract_opt._FirstOrderObjects is not diagnostics._FirstOrderObjects
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.run(["optimize", str(problem), "--method", "general"])
    finally:
        tracer.uninstall()

    assert code == 0
    assert json.loads(out.getvalue())["principal_payoff"] > 0.0
    assert "diagnostics.first_order" in {rec[0] for rec in tracer.spans}
    assert tracing.layer_metrics(tracer, 0)["diagnostics.first_order_calls"] > 0
    for owner, saved in zip(owners, before):
        now = vars(owner)
        for attr in set(saved) | set(now):
            if attr == "__warningregistry__":
                continue
            assert attr in saved and attr in now and now[attr] is saved[attr], (owner, attr)
