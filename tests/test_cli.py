import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teampay as tp
from teampay.cli import dump_json, run

from helpers import KAPPA_HALF, random_production


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


def test_unknown_flag_exits_one(files, capsys):
    _, problem, _, _ = files
    assert run(["validate", str(problem), "--bogus"]) == 1
    capsys.readouterr()


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
    assert out["includes_share_response"] is True
    tensor = np.asarray(out["dshare_dlink"], dtype=float)
    assert tensor.shape == (3, 3, 3)


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
    problem = tp.Problem(
        n=n, production=random_production("polynomial", n, rng),
        outcomes=tp.SoftmaxOutcomeModel(np.sort(rng.uniform(0.0, 2.5, size=3)), rng.uniform(-0.5, 0.5, size=3),
                                        rng.uniform(0.0, 2.0, size=3)),
        utilities=(tp.SqrtUtility(), tp.LinearUtility(), tp.SqrtUtility()),
        costs=tuple(tp.PowerCost(float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.5, 3.0))) for _ in range(n)),
    )
    payments = rng.uniform(0.0, 1.0, size=(n, 3))
    payments[0, 0] = -0.0
    text = dump_json(tp.problem_to_dict(problem))
    assert dump_json(tp.problem_to_dict(tp.problem_from_dict(json.loads(text)))) == text
    back = tp.contract_from_dict(json.loads(dump_json(tp.contract_to_dict(tp.Contract(payments)))))
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


def test_statics_grid(files, capsys):
    _, _, figure, _ = files
    assert run(["statics", str(figure), "--param", "G23", "--grid", "0.2:0.6:0.2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["parameter"] == "G23"
    assert len(out["points"]) == 3
    assert out["points"][0]["G23"] == 0.2
