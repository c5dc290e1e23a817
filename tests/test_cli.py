import inspect
import json
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teampay as tp
from teampay import cli, statics
from teampay.cli import dump_json, run

from helpers import KAPPA_HALF


TRIANGLE_PENDANT = {
    "n": 4,
    "production": {
        "type": "quadratic_network",
        "weights": [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]],
    },
    "outcomes": {"type": "binary_success", "success": {"type": "linear_capped", "slope": 0.5}},
    "utilities": {"type": "linear"},
    "costs": {"type": "power"},
}

FIGURE = {
    "n": 3,
    "production": {
        "type": "quadratic_network",
        "weights": [[0, 1, 0.8], [1, 0, 0], [0.8, 0, 0]],
    },
    "outcomes": {"type": "binary_success", "success": {"type": "linear_capped", "slope": 0.5}},
    "utilities": {"type": "linear"},
    "costs": {"type": "power"},
}


# On the (1, 2) pair, whose share rate is 1, slope * rate falls just below 1
# and the share cubic's value at s = 1 rounds to >= 0.
KNIFE_EDGE = {
    "n": 3,
    "production": {"type": "quadratic_network", "weights": [[0, 1, 0.8], [1, 0, 2], [0.8, 2, 0]]},
    "outcomes": {"type": "binary_success",
                 "success": {"type": "linear_capped", "slope": 0.9999999999999999}},
    "utilities": {"type": "linear"},
    "costs": {"type": "power"},
}


@pytest.fixture()
def files(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(TRIANGLE_PENDANT))
    figure = tmp_path / "figure.json"
    figure.write_text(json.dumps(FIGURE))
    contract = tmp_path / "zero.json"
    contract.write_text(json.dumps({"payments": [[0, 0]] * 4}))
    return tmp_path, problem, figure, contract


def test_validate_ok(files, capsys):
    _, problem, _, _ = files
    assert run(["validate", str(problem)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": True, "violations": []}


def test_validate_bad_problem_exits_one(files, capsys):
    tmp, _, _, _ = files
    bad = dict(TRIANGLE_PENDANT)
    bad["production"] = {
        "type": "quadratic_network",
        "weights": [[0, 1, 1, 0], [0.5, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]],
    }
    path = tmp / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"]


def test_unknown_field_rejected(files, capsys):
    tmp, _, _, _ = files
    bad = dict(TRIANGLE_PENDANT)
    bad["surprise"] = 1
    path = tmp / "unknown.json"
    path.write_text(json.dumps(bad))
    assert run(["validate", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "surprise" in err["error"]["message"]


def test_malformed_json_exits_one(files, capsys):
    tmp, _, _, _ = files
    path = tmp / "broken.json"
    path.write_text("{not json")
    assert run(["validate", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "input"


@pytest.mark.parametrize("problem, contract, kind, message", [
    ({**FIGURE, "n": "x"}, None, "input", "problem: malformed value: invalid literal for int()"),
    ({**FIGURE, "utilities": 5}, None, "input", "problem: malformed value: object of type 'int' has no len()"),
    ({**FIGURE, "production": 5}, None, "input", "production: expected an object"),
    (FIGURE, {"payments": "abc"}, "input", "contract: malformed value: could not convert string to float: 'abc'"),
    ("a directory", None, "input", "cannot read"),
    (b'{"n": "\xff"}', None, "input", "is not UTF-8 text"),
    # A ModelError raised while building the model stays a validation error.
    (FIGURE, {"payments": [0.1, 0.2, 0.3]}, "validation", "payments must be a 2-d array"),
], ids=["n-not-int", "utilities-int", "production-int", "payments-string", "directory", "not-utf8",
        "payments-1d"])
def test_malformed_input_file_is_one_json_error(tmp_path, capsys, problem, contract, kind, message):
    path = tmp_path / "problem.json"
    if problem == "a directory":
        path.mkdir()
    elif isinstance(problem, bytes):
        path.write_bytes(problem)
    else:
        path.write_text(json.dumps(problem))
    argv = ["validate", str(path)]
    if contract is not None:
        contract_path = tmp_path / "contract.json"
        contract_path.write_text(json.dumps(contract))
        argv = ["equilibrium", str(path), "--contract", str(contract_path)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert not captured.out
    err = json.loads(captured.err)["error"]
    assert err["type"] == kind
    assert message in err["message"]


CLIQUE2 = {**FIGURE, "n": 2, "production": {"type": "quadratic_network", "weights": [[0, 1], [1, 0]]}}
SOFTMAX2 = {**CLIQUE2, "outcomes": {"type": "softmax", "theta": [0, 2, 2.5], "shift": [1.5, 0, -1],
                                    "revenues": [0, "@", 2]},
            "utilities": {"type": "sqrt"}}


# "@" marks the number under test, written into the file as a bare literal.
@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("command, problem, contract", [
    ("equilibrium", CLIQUE2, {"payments": [[0, "@"], [0, 0.2]]}),
    ("equilibrium", {**CLIQUE2, "outcomes": {"type": "binary_success",
                                             "success": {"type": "linear_capped", "slope": "@"}}}, None),
    ("equilibrium", {**CLIQUE2, "costs": {"type": "power", "scale": "@"}}, None),
    ("optimize", SOFTMAX2, None),
], ids=["payment", "slope", "cost-scale", "revenue"])
def test_non_finite_numbers_in_input_files_are_input_errors(tmp_path, capsys, monkeypatch, command, problem,
                                                           contract, number):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a problem with a non-finite number")

    for solver in ("_solve_eq", "solve_equilibrium_general", "optimize_general", "optimize_quadratic_binary"):
        monkeypatch.setattr(cli, solver, no_solve)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem).replace('"@"', number))
    contract_path = tmp_path / "contract.json"
    contract_path.write_text(json.dumps(contract or {"payments": [[0, 0.2], [0, 0.2]]}).replace('"@"', number))
    argv = [command, str(path)] + (["--contract", str(contract_path)] if command == "equilibrium" else [])
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert not captured.out
    err = json.loads(captured.err)["error"]
    assert err["type"] == "input"
    # JSON's non-finite literals fail the parse; 1e999 parses as inf and fails validation.
    assert ("must be finite" if number == "1e999" else f"non-finite number {number} in") in err["message"]


# Tuning values that are module constants, not flags, on the subcommands
# that used to take them.
RETIRED_FLAGS = [
    ("equilibrium", "--tol"),
    ("optimize", "--starts"),
    ("optimize", "--tol"),
    ("statics", "--tol"),
    ("sweep", "--tol"),
    ("equity", "--starts"),
    ("equity", "--tol"),
    ("verify", "--dim-cap"),
    ("verify", "--starts"),
    ("verify", "--tol"),
]


def test_unknown_flag_exits_one(files, capsys):
    _, problem, _, contract = files
    required = {"equilibrium": ["--contract", str(contract)], "sweep": ["--param", "G23", "--grid", "0:1:0.5"]}
    for command, flag in [("validate", "--bogus"), *RETIRED_FLAGS]:
        assert run([command, str(problem), *required.get(command, []), flag, "1"]) == 1, (command, flag)
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "usage", (command, flag)
        assert f"unrecognized arguments: {flag} 1" in err["message"], (command, flag)


def test_standalone_of_the_wrong_length_is_a_validation_error(tmp_path, capsys):
    bad = {**FIGURE, "n": 2, "production": {"type": "quadratic_network", "weights": [[0, 1], [1, 0]],
                                            "standalone": [1, 1, 1]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    contract = tmp_path / "contract.json"
    contract.write_text(json.dumps({"payments": [[0, 0.3], [0, 0.3]]}))
    for argv in (["validate"], ["equilibrium", "--contract", str(contract)], ["optimize", "--method", "quadratic"]):
        assert run([argv[0], str(path), *argv[1:]]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {
            "type": "validation", "message": "standalone must have one entry per agent (2), got 3"}}


def test_equilibrium_zero_contract(files, capsys):
    _, problem, _, contract = files
    assert run(["equilibrium", str(problem), "--contract", str(contract)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["performance"] == 0.0
    assert out["actions"] == [0, 0, 0, 0]


def test_solver_failure_exits_two(files, capsys):
    tmp, problem, _, _ = files
    # Payments large enough that the slope-spectral condition fails.
    contract = tmp / "big.json"
    contract.write_text(json.dumps({"payments": [[0, 3.0]] * 4}))
    assert run(["equilibrium", str(problem), "--contract", str(contract)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "solver"


@pytest.mark.parametrize("pay, method", [
    pytest.param(0.9, "auto", id="0.9"),
    pytest.param(3.0, "auto", id="3.0"),
    pytest.param(0.9, "general", id="general-0.9"),
    pytest.param(3.0, "general", id="general-3.0"),
])
def test_cap_regime_exits_two(tmp_path, capsys, pay, method):
    # On the unit 2-clique at slope 0.5, paying 0.9 each puts performance past
    # the cap and 3.0 each breaks the spectral condition: both mean no interior
    # equilibrium, so both are solver failures.  The general solver sees both
    # as best responses piling up at the cap.
    problem = tmp_path / "two.json"
    problem.write_text(json.dumps({**FIGURE, "n": 2, "production": {
        "type": "quadratic_network", "weights": [[0, 1], [1, 0]]}}))
    contract = tmp_path / "pay.json"
    contract.write_text(json.dumps({"payments": [[0, pay]] * 2}))
    assert run(["equilibrium", str(problem), "--contract", str(contract), "--method", method]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "solver"
    if method == "general":
        assert "cap 2 " in err["error"]["message"]


def test_optimize_quadratic_triangle_pendant(files, capsys):
    _, problem, _, _ = files
    assert run(["optimize", str(problem), "--method", "quadratic"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["active_set"] == [0, 1, 2]
    tau = [row[1] for row in out["contract"]["payments"]]
    assert tau[0] == tau[1] == tau[2]
    assert tau[3] == 0
    assert out["method"] == "quadratic_closed_form"


def test_diagnose_outputs_report(files, capsys):
    tmp, problem, _, _ = files
    contract = tmp / "paid.json"
    contract.write_text(json.dumps({"payments": [[0, 0.2], [0, 0.2], [0, 0.2], [0, 0.0]]}))
    assert run(["diagnose", str(problem), "--contract", str(contract)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["active_agents"] == [0, 1, 2]
    assert len(out["alpha"]) == 3
    assert out["l_factor"] == 1


def test_diagnose_at_a_dormant_cobb_douglas_equilibrium_is_a_solver_failure(tmp_path, capsys):
    problem = tmp_path / "cobb_douglas.json"
    problem.write_text(json.dumps({
        "n": 2, "production": {"type": "cobb_douglas", "shares": [1, 2]},
        "outcomes": {"type": "binary_success", "success": {"type": "power", "exponent": 5}},
        "utilities": {"type": "linear"}, "costs": {"type": "power"},
    }))
    contract = tmp_path / "contract.json"
    contract.write_text(json.dumps({"payments": [[0, 0.1], [0, 0.2]]}))
    assert run(["diagnose", str(problem), "--contract", str(contract)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "solver"


SEPARABLE = {
    "cobb-douglas": {"type": "cobb_douglas", "shares": [1, 2]},
    "ces": {"type": "ces", "shares": [1, 4], "rho": 0.5, "returns": 1},
}


@pytest.mark.parametrize("method", sorted(SEPARABLE))
@pytest.mark.parametrize("field, spec", [
    pytest.param("utilities", {"type": "sqrt"}, id="sqrt-utilities"),
    pytest.param("costs", {"type": "power", "scale": 3, "exponent": 3}, id="cubic-costs"),
])
def test_separable_methods_reject_problems_outside_their_closed_form(tmp_path, capsys, method, field, spec):
    # The closed forms assume linear utilities and unit quadratic costs; on
    # any other problem they would optimize a different one.
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "n": 2, "production": SEPARABLE[method],
        "outcomes": {"type": "binary_success", "success": {"type": "power", "exponent": 5}},
        "utilities": {"type": "linear"}, "costs": {"type": "power"}, field: spec,
    }))
    assert run(["optimize", str(problem), "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "linear utilities and unit quadratic costs" in json.loads(captured.err)["error"]["message"]


@pytest.mark.filterwarnings("error")
def test_diagnose_at_a_zero_l_factor_is_a_solver_failure(tmp_path, capsys):
    # The equilibrium's l factor is exactly 0 under the first contract and
    # rounding noise (3.3e-16) under the second: [H - U G] is singular and
    # the centralities unbounded.
    problem = tmp_path / "cobb_douglas.json"
    problem.write_text(json.dumps({
        "n": 2, "production": SEPARABLE["cobb-douglas"],
        "outcomes": {"type": "binary_success", "success": {"type": "power", "exponent": 5}},
        "utilities": {"type": "sqrt"}, "costs": {"type": "power", "scale": 3, "exponent": 3},
    }))
    contract = tmp_path / "contract.json"
    for payments in ([[0, 0.45], [0, 0.45]], [[0, 0.3], [0, 0.6]]):
        contract.write_text(json.dumps({"payments": payments}))
        assert run(["diagnose", str(problem), "--contract", str(contract)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "solver" and "singular" in err["message"]


def test_active_set_command(files, capsys):
    _, problem, _, _ = files
    assert run(["active-set", str(problem)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["candidates"][0]["agents"] == [0, 1, 2]
    assert out["candidates"][0]["share_rate"] == pytest.approx(2 / 3)


def test_active_set_budget_stop_exits_two(files, capsys):
    _, problem, _, _ = files
    assert run(["active-set", str(problem), "--cap", "1"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "solver"
    assert "budget of 2 branch-and-bound nodes" in err["message"]


@pytest.mark.parametrize("which", ["0/1", "weighted"])
def test_negative_cap_is_an_input_error(files, capsys, which):
    _, problem, figure, _ = files
    assert run(["active-set", str(problem if which == "0/1" else figure), "--cap", "-1"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    err = json.loads(captured.err)["error"]
    assert err == {"type": "input", "message": "--cap must be non-negative, got -1"}


def test_sweep_out_to_a_missing_directory_is_an_input_error(files, capsys, monkeypatch):
    tmp, _, figure, _ = files
    solved = []
    solve = statics._quadratic_closed_forms
    monkeypatch.setattr(statics, "_quadratic_closed_forms", lambda *args: solved.append(args) or solve(*args))
    out = tmp / "missing" / "x.csv"
    assert run(["sweep", str(figure), "--param", "G23", "--grid", "0:1:0.5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    err = json.loads(captured.err)["error"]
    assert err["type"] == "input"
    assert err["message"].startswith(f"cannot write {out}")
    assert not solved


def test_sweep_csv_and_round_trip(files, capsys):
    _, _, figure, _ = files
    assert run(["sweep", str(figure), "--param", "G23", "--grid", "0:1:0.25"]) == 0
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    assert lines[0].startswith("G23,payment_0")
    payoffs = [float(line.split(",")[4]) for line in lines[1:]]
    assert payoffs == sorted(payoffs)


@pytest.mark.parametrize("spec, expected", [("0:1:0.6", [0.0, 0.6]), ("0:1:0.02", [0.02 * k for k in range(51)])])
def test_sweep_grid_stops_at_its_upper_bound(files, capsys, spec, expected):
    _, _, figure, _ = files
    assert run(["sweep", str(figure), "--param", "G23", "--grid", spec]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [float(row.split(",")[0]) for row in rows] == pytest.approx(expected, abs=1e-12)


def test_statics_command(files, capsys):
    _, _, figure, _ = files
    assert run(["statics", str(figure)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["active_set", "payments", "dshare_dlink", "dperformance_dlink"]
    tensor = np.asarray(out["dshare_dlink"], dtype=float)
    assert tensor.shape == (3, 3, 3)


EQUILIBRIUM_KEYS = ["actions", "performance", "probs", "iterations", "residual",
                    "spectral_margin", "global_check_passed"]
OPTIMIZE_KEYS = ["contract", "equilibrium", "principal_payoff", "active_set", "kkt_residual", "method",
                 "balance_constant", "neighborhood_action_constant", "max_balance_residual"]
RESULT_KEYS = {
    "equilibrium": EQUILIBRIUM_KEYS,
    "diagnose": ["active_agents", "curvature", "alpha", "hessian", "payment_utility", "centrality",
                 "centrality_all", "dY_dtau", "l_factor", "d_vector", "lambda_by_outcome",
                 "balance_residuals", "D_term"],
    "optimize": OPTIMIZE_KEYS,
    "equity": ["shares", "equilibrium", "principal_payoff", "balance_values", "balance_residual",
               "kkt_residual", "unrestricted_payoff"],
    "active-set": ["candidates"],
}


@pytest.mark.parametrize("argv", [
    ("equilibrium", "{figure}", "--contract", "{paid}"),
    ("diagnose", "{figure}", "--contract", "{paid}"),
    ("optimize", "{figure}", "--method", "quadratic"),
    ("optimize", "{figure}", "--method", "general"),
    ("equity", "{figure}", "--no-compare"),
    ("active-set", "{figure}"),
], ids=["equilibrium", "diagnose", "optimize-quadratic", "optimize-general", "equity", "active-set"])
def test_result_keys_follow_the_documented_order(files, capsys, argv):
    tmp, _, figure, _ = files
    paid = tmp / "paid3.json"
    paid.write_text(json.dumps({"payments": [[0, 0.2], [0, 0.15], [0, 0.1]]}))
    assert run([a.format(figure=figure, paid=paid) for a in argv]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == RESULT_KEYS[argv[0]]
    if "equilibrium" in out:
        assert list(out["equilibrium"]) == EQUILIBRIUM_KEYS
    if "contract" in out:
        assert list(out["contract"]) == ["payments"]
    if "candidates" in out:
        assert all(list(c) == ["agents", "share_rate", "direction"] for c in out["candidates"])


@dataclass(frozen=True)
class _Inner:
    weight: float
    flag: bool


@dataclass(frozen=True)
class _Outer:
    # Declared out of alphabetical order, so the rendered order is the declaration's.
    values: np.ndarray
    inner: _Inner
    missing: float | None
    agents: tuple
    ok: bool


def test_dump_json_renders_a_dataclass_as_its_fields():
    obj = _Outer(np.array([np.nan, np.inf, -np.inf, -0.0, 1.5]), _Inner(0.25, False), None, (0, 2), True)
    fields = {"values": obj.values, "inner": {"weight": 0.25, "flag": False}, "missing": None,
              "agents": (0, 2), "ok": True}
    assert dump_json(obj) == dump_json(fields) == (
        '{"values":[null,"inf","-inf",-0.0,1.5],"inner":{"weight":0.25,"flag":false},'
        '"missing":null,"agents":[0,2],"ok":true}'
    )
    with pytest.raises(TypeError):
        dump_json(_Outer)


def test_byte_determinism(files, capsys):
    _, problem, _, _ = files
    run(["optimize", str(problem), "--method", "quadratic"])
    first = capsys.readouterr().out
    run(["optimize", str(problem), "--method", "quadratic"])
    second = capsys.readouterr().out
    assert first == second


def test_float_round_trip_is_exact(files, capsys):
    _, problem, _, _ = files
    run(["optimize", str(problem), "--method", "quadratic"])
    out = json.loads(capsys.readouterr().out)
    import teampay as tp

    net = tp.Network(np.asarray(TRIANGLE_PENDANT["production"]["weights"], dtype=float))
    result = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    assert out["principal_payoff"] == result.principal_payoff
    assert out["contract"]["payments"][0][1] == result.contract.payments[0, 1]


def _float_bits(o):
    """``o`` with every number replaced by the bytes of its double."""
    if isinstance(o, dict):
        return {k: _float_bits(v) for k, v in o.items()}
    if isinstance(o, list):
        return [_float_bits(v) for v in o]
    return struct.pack("<d", o)


# Signed zeros and integral values, which ".17g" writes without a point,
# are drawn on purpose: plain float draws rarely hit -0.0.
FINITE_JSON = st.recursive(
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e17]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(obj=FINITE_JSON)
def test_json_round_trip_keeps_every_float_bit(obj):
    assert _float_bits(json.loads(dump_json(obj))) == _float_bits(obj)


def test_negative_zero_survives_the_json_round_trip():
    # ".17g" alone writes "-0", which parses as the integer 0.
    assert dump_json([-0.0, 0.0]) == "[-0.0,0]"
    assert _float_bits(json.loads(dump_json({"x": [-0.0]}))) == {"x": [struct.pack("<d", -0.0)]}


def test_problem_and_contract_round_trip_bit_exactly():
    rng = np.random.default_rng(20240611)
    n = 3
    terms = [(float(rng.uniform(0.2, 1.0)), [int(k) for k in rng.integers(0, 3, size=n)]) for _ in range(3)]
    theta, shift, revenues = (np.sort(rng.uniform(0.0, 2.5, size=3)), rng.uniform(-0.5, 0.5, size=3),
                              rng.uniform(0.0, 2.0, size=3))
    costs = [(float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.5, 3.0))) for _ in range(n)]
    source = {
        "n": n,
        "production": {"type": "polynomial", "n": n,
                       "terms": [{"coefficient": c, "powers": powers} for c, powers in terms]},
        "outcomes": {"type": "softmax", "theta": theta.tolist(), "shift": shift.tolist(),
                     "revenues": revenues.tolist()},
        "utilities": [{"type": "sqrt"}, {"type": "linear"}, {"type": "sqrt"}],
        "costs": [{"type": "power", "scale": scale, "exponent": exponent} for scale, exponent in costs],
    }
    problem = tp.problem_from_dict(json.loads(dump_json(source)))

    def bits(*xs):
        return [np.asarray(x, dtype=float).tobytes() for x in xs]

    assert bits(*(x for term in problem.production.terms for x in term)) == bits(*(x for term in terms for x in term))
    out = problem.outcomes
    assert bits(out.theta, out.shift, out.revenues) == bits(theta, shift, revenues)
    assert bits(*((c.scale, c.exponent) for c in problem.costs)) == bits(*costs)
    assert [type(u) for u in problem.utilities] == [tp.SqrtUtility, tp.LinearUtility, tp.SqrtUtility]
    payments = rng.uniform(0.0, 1.0, size=(n, 3))
    payments[0, 0] = -0.0
    back = tp.contract_from_dict(json.loads(dump_json(tp.Contract(payments))))
    assert back.payments.tobytes() == payments.tobytes()


def test_verify_command(files, capsys):
    tmp, _, _, _ = files
    clique2 = {
        "n": 2,
        "production": {"type": "quadratic_network", "weights": [[0, 1], [1, 0]]},
        "outcomes": {"type": "binary_success", "success": {"type": "linear_capped", "slope": 0.5}},
        "utilities": {"type": "linear"},
        "costs": {"type": "power"},
    }
    path = tmp / "clique2.json"
    path.write_text(json.dumps(clique2))
    assert run(["verify", str(path), "--step", "0.05", "--bound", "0.6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"]
    assert {c["name"] for c in out["checks"]} == {
        "equilibrium_matches_grid_oracle",
        "payoff_at_least_grid_best",
        "grid_argmax_near_optimum",
    }


@pytest.mark.parametrize("flag, value", [
    ("--step", "0"), ("--step", "nan"), ("--step", "-0.02"), ("--step", "inf"),
    ("--bound", "nan"), ("--bound", "-1"), ("--bound", "inf"),
])
def test_verify_rejects_a_bad_step_or_bound_before_any_solve(files, capsys, monkeypatch, flag, value):
    _, problem, _, _ = files

    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved before checking its flags")

    monkeypatch.setattr(cli, "optimize_quadratic_binary", no_solve)
    monkeypatch.setattr(cli, "optimize_general", no_solve)
    assert run(["verify", str(problem), flag, value]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    err = json.loads(captured.err)["error"]
    assert err["type"] == "input"
    assert err["message"].startswith(flag)


@pytest.mark.parametrize("step, bound", [("1e-300", "0.6"), ("1e-3", "1")])
def test_verify_rejects_a_contract_grid_past_the_cap_before_any_solve(files, capsys, monkeypatch, step, bound):
    # 1e-300 once ended in numpy's "Maximum allowed size exceeded"; 1e-3 on
    # [0, 1] is 1001^2 contracts, just past the million-contract cap.
    tmp, _, _, _ = files
    path = tmp / "clique2.json"
    path.write_text(json.dumps({**TRIANGLE_PENDANT, "n": 2, "production": {
        "type": "quadratic_network", "weights": [[0, 1], [1, 0]]}}))

    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved before checking its grid")

    monkeypatch.setattr(cli, "optimize_quadratic_binary", no_solve)
    monkeypatch.setattr(cli, "optimize_general", no_solve)
    assert run(["verify", str(path), "--step", step, "--bound", bound]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    err = json.loads(captured.err)["error"]
    assert err["type"] == "input"
    assert "more than 1000000" in err["message"]


@pytest.mark.parametrize("spec", ["0:1:nan", "0:inf:0.5", "nan:1:0.1", "0:1:1e-300", "0:1e308:1e-10"])
@pytest.mark.parametrize("command", ["sweep", "statics"])
def test_bad_grid_is_an_input_error(files, capsys, command, spec):
    _, _, figure, _ = files
    assert run([command, str(figure), "--param", "G23", "--grid", spec]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    err = json.loads(captured.err)["error"]
    assert err["type"] == "input"
    assert repr(spec) in err["message"]


def test_statics_grid(files, capsys):
    _, _, figure, _ = files
    assert run(["statics", str(figure), "--param", "G23", "--grid", "0.2:0.6:0.2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["parameter"] == "G23"
    assert len(out["points"]) == 3
    assert out["points"][0]["G23"] == 0.2


def test_statics_grid_records_the_failures_that_sweep_records(files, capsys):
    # A negative G12 makes the figure network invalid at -1 and -0.5.
    _, _, figure, _ = files
    assert run(["sweep", str(figure), "--param", "G12", "--grid=-1:1:0.5"]) == 0
    warnings = capsys.readouterr().err.strip().split("\n")
    message = "network matrix must be symmetric and nonnegative"
    assert warnings == [f"warning: G12={v}: {message}" for v in ("-1", "-0.5")]
    assert run(["statics", str(figure), "--param", "G12", "--grid=-1:1:0.5"]) == 0
    captured = capsys.readouterr()
    assert not captured.err
    points = json.loads(captured.out)["points"]
    assert points[:2] == [{"G12": -1.0, "error": message}, {"G12": -0.5, "error": message}]
    assert run(["statics", str(figure), "--param", "G12", "--grid", "0:1:0.5"]) == 0
    valid = json.loads(capsys.readouterr().out)["points"]
    assert [dump_json(point) for point in points[2:]] == [dump_json(point) for point in valid]


@pytest.mark.parametrize("command, param, message", [
    ("sweep", "G9", "cannot parse parameter 'G9'"),
    ("statics", "bogus", "cannot parse parameter 'bogus'"),
    ("statics", "G44", "link 'G44' is out of range for 3 agents"),
])
def test_bad_parameter_is_an_input_error(files, capsys, command, param, message):
    _, _, figure, _ = files
    assert run([command, str(figure), "--param", param, "--grid", "0:1:0.5"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    err = json.loads(captured.err)["error"]
    assert err["type"] == "input"
    assert message in err["message"]


def test_knife_edge_share_cubic_takes_the_performance_search(tmp_path, capsys):
    path = tmp_path / "knife_edge.json"
    path.write_text(json.dumps(KNIFE_EDGE))
    assert run(["optimize", str(path), "--method", "quadratic"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["active_set"] == [1, 2]
    # The slope-1 instance's optimum, which the cubic's guard sends to the search.
    assert out["principal_payoff"] == pytest.approx(0.5773502691877008, abs=1e-9)
    assert run(["statics", str(path), "--param", "G12", "--grid", "0.9:1.1:0.1"]) == 0
    assert all("error" not in point for point in json.loads(capsys.readouterr().out)["points"])
    assert run(["sweep", str(path), "--param", "G12", "--grid", "0.9:1.1:0.1"]) == 0
    captured = capsys.readouterr()
    assert "nan" not in captured.out and not captured.err


def test_every_re_exported_function_has_a_user_outside_the_tests():
    """A function that ``teampay`` re-exports is named, as a whole word, on
    some line outside ``tests/`` other than its own ``def`` and ``__all__``
    lines: elsewhere in the package, in the demos, docs or README, or in
    the benchmark."""
    root = Path(__file__).resolve().parents[1]
    files = [path for path in (root / "src" / "teampay").glob("*.py") if path.name != "__init__.py"]
    for folder in ("demos", "docs", "perfbench"):
        files += [path for path in (root / folder).glob("*") if path.suffix in (".py", ".md")]
    lines = [line for path in files + [root / "README.md"] for line in path.read_text().splitlines()]
    unused = []
    for name, obj in vars(tp).items():
        if not inspect.isfunction(obj):
            continue
        word = re.compile(rf"\b{name}\b")
        own = (f"def {name}(", f'"{name}",')
        if not any(word.search(line) and not line.strip().startswith(own) for line in lines):
            unused.append(name)
    assert unused == []
