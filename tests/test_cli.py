import json

import numpy as np
import pytest

from teampay.cli import run

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


@pytest.mark.parametrize("pay", [0.9, 3.0])
def test_cap_regime_exits_two(tmp_path, capsys, pay):
    # On the unit 2-clique at slope 0.5, paying 0.9 each puts performance past
    # the cap and 3.0 each breaks the spectral condition: both mean no interior
    # equilibrium, so both are solver failures.
    problem = tmp_path / "two.json"
    problem.write_text(json.dumps({**FIGURE, "n": 2, "production": {
        "type": "quadratic_network", "weights": [[0, 1], [1, 0]]}}))
    contract = tmp_path / "pay.json"
    contract.write_text(json.dumps({"payments": [[0, pay]] * 2}))
    assert run(["equilibrium", str(problem), "--contract", str(contract)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "solver"


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


def test_active_set_command(files, capsys):
    _, problem, _, _ = files
    assert run(["active-set", str(problem)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["candidates"][0]["agents"] == [0, 1, 2]
    assert out["candidates"][0]["share_rate"] == pytest.approx(2 / 3)


def test_sweep_csv_and_round_trip(files, capsys):
    _, _, figure, _ = files
    assert run(["sweep", str(figure), "--param", "G23", "--grid", "0:1:0.25"]) == 0
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    assert lines[0].startswith("G23,payment_0")
    payoffs = [float(line.split(",")[4]) for line in lines[1:]]
    assert payoffs == sorted(payoffs)


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
