"""Workload inputs, the CLI calls of one pass, and the checks on their outputs.

Every problem and contract file is written from the seed.  The fixed
instances (the figure network, the triangles, the separable and softmax
problems, the unit 2-clique) come from the tests and demos and do not depend
on the seed; the large-network instances are drawn from it, except the
G(40, 0.5) graph (see ``large_network_instances``).  Each check maps
one call's exit code and stdout to an error message, or None when the output
is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SLOPE = 0.5                 # linear_capped success slope of every binary instance
K_CONTRACTS = 20            # equilibrium calls on the n=200 network per pass
PAYOFF_TOL = 1e-6           # one-sided principal-payoff tolerance (optimizer comparisons in tests)
ACTION_TOL = 1e-8           # equilibrium actions against an exact solve (tests' solver comparisons)
RESIDUAL_TOL = 1e-11        # equilibrium FOC residual (the CLI's equilibrium tolerance)
SWEEP_ROWS = 51
GNP40_SEED = 0
SEEDED_OPTIMA = ("weighted12", "weighted14")   # quadratic optimize instances drawn from --seed
REFERENCE_SEEDS = 64        # SEEDED_OPTIMA are drawn from seed % REFERENCE_SEEDS, each with a recorded optimum

WORKLOADS = ("closed_form", "general_path", "large_network", "oracle_verify")
COMMANDS = ("sweep", "optimize", "equity", "equilibrium", "verify")

BINARY = {"type": "binary_success", "success": {"type": "linear_capped", "slope": SLOPE}}
UNIT = {"utilities": {"type": "linear"}, "costs": {"type": "power"}}
THREE_OUTCOME = {"type": "softmax", "theta": [0, 2, 2.5], "shift": [1.5, 0, -1], "revenues": [0, 2, 3]}


def _quadratic(weights, outcomes=BINARY, utility="linear") -> dict:
    return {
        "n": len(weights),
        "production": {"type": "quadratic_network", "weights": weights},
        "outcomes": outcomes,
        "utilities": {"type": utility},
        "costs": {"type": "power"},
    }


def _power_binary(exponent: float) -> dict:
    return {"type": "binary_success", "success": {"type": "power", "exponent": exponent}}


FIGURE = [[0, 1, 0.8], [1, 0, 0], [0.8, 0, 0]]
TRIANGLE = [[0, 1, 0.8], [1, 0, 0.6], [0.8, 0.6, 0]]
TRIANGLE_PENDANT = [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]]
CLIQUE2 = [[0, 1], [1, 0]]

FIXED_PROBLEMS = {
    "figure": _quadratic(FIGURE),
    "triangle": _quadratic(TRIANGLE),
    "triangle_pendant": _quadratic(TRIANGLE_PENDANT),
    "cobb_douglas": {"n": 2, "production": {"type": "cobb_douglas", "shares": [1, 2]},
                     "outcomes": _power_binary(5), **UNIT},
    "ces": {"n": 2, "production": {"type": "ces", "shares": [1, 4], "rho": 0.5, "returns": 1},
            "outcomes": _power_binary(2), **UNIT},
    "softmax_sqrt": _quadratic(CLIQUE2, THREE_OUTCOME, "sqrt"),
    "softmax_linear": _quadratic(CLIQUE2, THREE_OUTCOME, "linear"),
    "clique2": _quadratic(CLIQUE2),
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``command`` keys the cmd.* metric, ``label`` names
    the instance in failure listings and in the reference file."""

    command: str
    label: str
    argv: tuple
    check: Callable[[int, str], str | None]


# ---------------------------------------------------------------------------
# seeded instances
# ---------------------------------------------------------------------------


def weighted_network(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric weights drawn uniformly from [0, 1], zero diagonal."""
    w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
    return w + w.T


def gnp_network(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Unweighted Erdos-Renyi G(n, p) adjacency."""
    w = np.triu((rng.uniform(size=(n, n)) < p).astype(float), 1)
    return w + w.T


def large_network_instances(seed: int) -> dict:
    """The arrays of the large_network workload.  Child generators keep each
    seeded instance independent of how many values the others draw.

    The n=12 and n=14 optimize instances are drawn from ``seed %
    REFERENCE_SEEDS``, so that every seed's optima have a recorded reference
    (``reference.json``) to be checked against.  The G(40, 0.5) graph is
    drawn from a fixed seed: the gradient fallback it exercises takes 2.3-6.0 s
    depending on the graph, which would make the workload's run-to-run spread
    mostly a matter of which seed was drawn.
    """
    big, _, _, pay = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4))
    _, mid, small, _ = (np.random.default_rng(s)
                        for s in np.random.SeedSequence(seed % REFERENCE_SEEDS).spawn(4))
    n = 200
    return {
        "net200": weighted_network(big, n),
        "taus": [pay.uniform(0.2, 0.8, size=n) / n for _ in range(K_CONTRACTS)],
        "weighted12": weighted_network(small, 12),
        "weighted14": weighted_network(mid, 14),
        "gnp40": gnp_network(np.random.default_rng(GNP40_SEED), 40, 0.5),
    }


# ---------------------------------------------------------------------------
# exact quadratic-binary solves, independent of teampay
# ---------------------------------------------------------------------------


def exact_actions(weights: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Equilibrium of the linear-success quadratic game below the cap:
    ``a = SLOPE * tau * (1 + G a)``, one linear solve."""
    n = tau.size
    return np.linalg.solve(np.eye(n) - SLOPE * tau[:, None] * weights, SLOPE * tau)


def performance(weights: np.ndarray, a: np.ndarray) -> float:
    return float(a.sum() + 0.5 * a @ weights @ a)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _json_out(code: int, out: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def _payoff_at_least(payoff, reference: float, what: str) -> str | None:
    if not isinstance(payoff, (int, float)) or not math.isfinite(payoff):
        return f"{what} is not a finite number: {payoff!r}"
    if payoff < reference - PAYOFF_TOL:
        return f"{what} {payoff:.12g} below reference {reference:.12g}"
    return None


def check_payoff(reference: float) -> Callable:
    def check(code, out):
        doc, err = _json_out(code, out)
        return err or _payoff_at_least(doc.get("principal_payoff"), reference, "principal_payoff")
    return check


def check_sweep(reference: list) -> Callable:
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        lines = out.strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != SWEEP_ROWS:
            return f"sweep CSV has {len(rows)} rows, expected {SWEEP_ROWS}"
        col = lines[0].split(",").index("principal_payoff")
        for k, row in enumerate(rows):
            cells = [float(x) for x in row]
            if any(math.isnan(x) for x in cells):
                return f"sweep row {k} has NaN cells"
            err = _payoff_at_least(cells[col], reference[k], f"sweep row {k} principal_payoff")
            if err:
                return err
        return None
    return check


def check_quadratic_optimum(weights: np.ndarray, reference: float) -> Callable:
    """The reported equilibrium and payoff must be those of the reported
    contract, and the payoff must reach the reference."""
    def check(code, out):
        doc, err = _json_out(code, out)
        if err:
            return err
        tau = np.array([row[1] for row in doc["contract"]["payments"]], dtype=float)
        a = exact_actions(weights, tau)
        gap = float(np.max(np.abs(a - np.asarray(doc["equilibrium"]["actions"], dtype=float))))
        if gap > ACTION_TOL:
            return f"equilibrium actions off the exact solve by {gap:.3g}"
        payoff = (1.0 - tau.sum()) * SLOPE * performance(weights, a)
        if abs(payoff - doc["principal_payoff"]) > PAYOFF_TOL:
            return f"principal_payoff {doc['principal_payoff']!r} but the contract yields {payoff!r}"
        return _payoff_at_least(doc["principal_payoff"], reference, "principal_payoff")
    return check


def check_equilibrium(weights: np.ndarray, tau: np.ndarray) -> Callable:
    expected = exact_actions(weights, tau)

    def check(code, out):
        doc, err = _json_out(code, out)
        if err:
            return err
        gap = float(np.max(np.abs(np.asarray(doc["actions"], dtype=float) - expected)))
        if gap > ACTION_TOL:
            return f"actions off the exact solve by {gap:.3g}"
        if not doc["residual"] <= RESIDUAL_TOL:
            return f"residual {doc['residual']!r} above {RESIDUAL_TOL}"
        return None
    return check


def check_verify(code, out):
    doc, err = _json_out(code, out)
    if err:
        return err
    if doc.get("all_passed") is not True:
        failed = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
        return f"verify failed checks: {failed}"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def build(workload: str, seed: int, workdir: Path, reference: dict | None) -> tuple[list, list]:
    """Write the workload's input files into ``workdir``.  Returns the
    problem files (parsed by the set-up probe) and the calls of one pass.

    ``reference`` holds the recorded outputs (see record_reference.py).
    With ``reference`` None, while recording, payoffs are not compared.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    problems = {}
    calls = []

    def ref(label: str, recorded=reference):
        if reference is None:
            return [-math.inf] * SWEEP_ROWS if label == "figure_sweep" else -math.inf
        if label not in recorded:
            raise KeyError(f"no reference value for {label!r}; run perfbench/record_reference.py")
        return recorded[label]

    def problem(label: str, doc: dict) -> str:
        problems[label] = _write(workdir, label, doc)
        return problems[label]

    if workload == "closed_form":
        figure = problem("figure", FIXED_PROBLEMS["figure"])
        calls.append(Call("sweep", "figure_sweep", ("sweep", figure, "--param", "G23", "--grid", "0:1:0.02"),
                          check_sweep(ref("figure_sweep"))))
        for label, method in (("triangle", "quadratic"), ("triangle_pendant", "quadratic"),
                              ("cobb_douglas", "cobb-douglas"), ("ces", "ces")):
            path = problem(label, FIXED_PROBLEMS[label])
            calls.append(Call("optimize", label, ("optimize", path, "--method", method),
                              check_payoff(ref(label))))
    elif workload == "general_path":
        for label in ("softmax_sqrt", "softmax_linear"):
            path = problem(label, FIXED_PROBLEMS[label])
            calls.append(Call("optimize", label, ("optimize", path, "--method", "general"),
                              check_payoff(ref(label))))
        path = problem("clique2", FIXED_PROBLEMS["clique2"])
        calls.append(Call("equity", "clique2_equity", ("equity", path),
                          check_payoff(ref("clique2_equity"))))
    elif workload == "large_network":
        inst = large_network_instances(seed)
        net200 = inst["net200"]
        path = problem("net200", _quadratic(net200.tolist()))
        for k, tau in enumerate(inst["taus"]):
            contract = _write(workdir, f"contract{k}", {"payments": [[0.0, float(t)] for t in tau]})
            calls.append(Call("equilibrium", f"net200_contract{k}", ("equilibrium", path, "--contract", contract),
                              check_equilibrium(net200, tau)))
        seeded = reference["large_network"].get(str(seed % REFERENCE_SEEDS), {}) if reference else None
        for label in (*SEEDED_OPTIMA, "gnp40"):
            weights = inst[label]
            path = problem(label, _quadratic(weights.tolist()))
            bound = ref(label, seeded) if label in SEEDED_OPTIMA else ref(label)
            calls.append(Call("optimize", label, ("optimize", path, "--method", "quadratic"),
                              check_quadratic_optimum(weights, bound)))
    elif workload == "oracle_verify":
        path = problem("clique2", FIXED_PROBLEMS["clique2"])
        calls.append(Call("verify", "clique2_verify", ("verify", path, "--step", "0.02", "--bound", "0.6"),
                          check_verify))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return list(problems.values()), calls
