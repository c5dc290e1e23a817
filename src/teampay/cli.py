"""Command-line interface.

Subcommands: validate, equilibrium, diagnose, optimize, active-set,
statics, sweep, equity, verify.  Problems, contracts, and results travel as
JSON (floats printed with 17 significant digits so they re-parse
bit-exactly); sweeps emit CSV.  Exit codes: 0 success, 1 validation or
input error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .contract_opt import (
    ActiveSetError,
    OptimizationError,
    _is_binary_linear_unit,
    _is_quadratic_binary,
    _quadratic_closed_form,
    _solve_eq,
    closed_form_ces,
    closed_form_cobb_douglas,
    optimal_active_set,
    optimize_general,
    optimize_quadratic_binary,
)
from .diagnostics import DiagnosticsError, compute_balance_report
from .equilibrium import EquilibriumError, solve_equilibrium_general
from .equity import optimize_equity
from .model import (
    CapExceededError,
    CESProduction,
    CobbDouglasProduction,
    ModelError,
    Problem,
    SchemaError,
    contract_from_dict,
    problem_from_dict,
    validate_contract,
    validate_problem,
)
from .oracle import OracleError, best_response_iterate, brute_force_optimal_contract, contract_grid_size
from .statics import _POINT_ERRORS, StaticsError, dperformance_dlink, dshare_dlink, network_along, sweep, sweep_to_csv

__all__ = ["run", "main"]


class _CliError(Exception):
    """Bad input or flags: exit code 1, error type ``input``."""


class _Parser(argparse.ArgumentParser):
    # Map argparse usage errors onto exit code 1 with JSON on stderr.
    def error(self, message):
        raise _CliError(message)


def format_float(x: float) -> str:
    # ".17g" writes negative zero as "-0", which JSON reads as the integer 0.
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        return "-0.0"
    return f"{x:.17g}"


def dump_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats; NaN maps to null
    and infinities to signed string sentinels.  A dataclass instance renders
    as the object of its fields, in declaration order."""

    def render(o):
        if o is None or isinstance(o, bool):
            return json.dumps(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            x = float(o)
            if math.isnan(x):
                return "null"
            if math.isinf(x):
                return '"inf"' if x > 0 else '"-inf"'
            return format_float(x)
        if isinstance(o, str):
            return json.dumps(o)
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return render({f.name: getattr(o, f.name) for f in dataclasses.fields(o)})
        if isinstance(o, dict):
            inner = ",".join(f"{json.dumps(str(k))}:{render(v)}" for k, v in o.items())
            return "{" + inner + "}"
        if isinstance(o, (list, tuple, np.ndarray)):
            return "[" + ",".join(render(v) for v in o) + "]"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return render(obj)


def _load_json(path: str) -> dict:
    def non_finite(literal):
        raise _CliError(f"non-finite number {literal} in {path}")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            # The hook sees only the literals NaN, Infinity and -Infinity.
            return json.load(fh, parse_constant=non_finite)
    except FileNotFoundError as exc:
        raise _CliError(f"file not found: {path}") from exc
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"malformed JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_problem(path: str) -> Problem:
    return problem_from_dict(_load_json(path))


def _load_contract(path: str, problem: Problem):
    contract = contract_from_dict(_load_json(path))
    report = validate_contract(problem, contract)
    if not report.ok:
        raise _CliError("; ".join(report.violations))
    return contract


def _require_valid(problem: Problem):
    report = validate_problem(problem)
    if not report.ok:
        raise _CliError("invalid problem: " + "; ".join(report.violations))


def _quadratic_binary_parts(problem: Problem):
    if not _is_quadratic_binary(problem):
        raise _CliError("this command needs the quadratic-network binary environment "
                        "(linear utilities, unit quadratic costs)")
    prod = problem.production
    if not np.all(prod.standalone == 1.0):
        raise _CliError("closed-form path needs unit standalone coefficients; use --method general")
    return prod.network, problem.outcomes.success


def _separable_production(problem: Problem, cls, method: str, kind: str):
    if not isinstance(problem.production, cls) or not _is_binary_linear_unit(problem):
        raise _CliError(f"{method} method needs {kind} production, binary outcomes, linear utilities "
                        "and unit quadratic costs")
    return problem.production


def _network_along(network, param: str):
    """``statics.network_along``, with a bad parameter name as an input error."""
    try:
        return network_along(network, param)
    except StaticsError as exc:
        raise _CliError(str(exc)) from exc


# Most points a --grid may hold (each point is one optimization), and most
# contracts in verify's payment grid (each one equilibrium search).
_MAX_GRID_POINTS = 1_000_000


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise _CliError(f"cannot parse grid {spec!r}; expected lo:hi:step") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)) or step <= 0 or hi < lo:
        raise _CliError(f"bad grid bounds {spec!r}: lo <= hi and step > 0 must be finite")
    # The slack keeps a grid whose last step lands on hi up to rounding (0:1:0.02).
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_GRID_POINTS:
        raise _CliError(f"grid {spec!r} has more than {_MAX_GRID_POINTS} points")
    return lo + step * np.arange(int(np.floor(span)) + 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    problem = _load_problem(args.problem)
    report = validate_problem(problem)
    print(dump_json({"ok": report.ok, "violations": report.violations}))
    return 0 if report.ok else 1


def _cmd_equilibrium(args) -> int:
    problem = _load_problem(args.problem)
    _require_valid(problem)
    contract = _load_contract(args.contract, problem)
    if args.method == "general":
        eq = solve_equilibrium_general(problem, contract)
    else:
        eq = _solve_eq(problem, contract)
    print(dump_json(eq))
    return 0


def _cmd_diagnose(args) -> int:
    problem = _load_problem(args.problem)
    _require_valid(problem)
    contract = _load_contract(args.contract, problem)
    eq = _solve_eq(problem, contract)
    report = compute_balance_report(problem, contract, eq)
    print(dump_json(report))
    return 0


def _cmd_optimize(args) -> int:
    problem = _load_problem(args.problem)
    _require_valid(problem)
    if args.method == "quadratic":
        network, p = _quadratic_binary_parts(problem)
        result = optimize_quadratic_binary(network, p)
    elif args.method == "cobb-douglas":
        prod = _separable_production(problem, CobbDouglasProduction, "cobb-douglas", "cobb_douglas")
        result = closed_form_cobb_douglas(prod.shares, problem.outcomes.success)
    elif args.method == "ces":
        prod = _separable_production(problem, CESProduction, "ces", "ces")
        result = closed_form_ces(prod.shares, prod.rho, prod.returns, problem.outcomes.success)
    else:
        result = optimize_general(problem)
    print(dump_json(result))
    return 0


def _cmd_active_set(args) -> int:
    if args.cap is not None and args.cap < 0:
        raise _CliError(f"--cap must be non-negative, got {args.cap}")
    problem = _load_problem(args.problem)
    _require_valid(problem)
    network, _ = _quadratic_binary_parts(problem)
    bound = {} if args.cap is None else {"cap": args.cap}
    candidates = optimal_active_set(network, **bound)
    print(dump_json({"candidates": candidates}))
    return 0


def _statics_point(network, p) -> dict:
    opt = _quadratic_closed_form(network, p)
    return {
        "active_set": list(opt.active_set),
        "payments": opt.contract.payments[:, 1].tolist(),
        "dshare_dlink": dshare_dlink(network, p, opt).tolist(),
        "dperformance_dlink": dperformance_dlink(p, opt).tolist(),
    }


def _cmd_statics(args) -> int:
    problem = _load_problem(args.problem)
    _require_valid(problem)
    network, p = _quadratic_binary_parts(problem)
    network_at = None if args.param is None else _network_along(network, args.param)
    if args.grid is None:
        print(dump_json(_statics_point(network, p)))
        return 0
    if network_at is None:
        raise _CliError("--grid needs --param to know which parameter varies")
    rows = []
    for value in _parse_grid(args.grid):
        net = network_at(float(value))
        try:
            point = _statics_point(net, p)
            point[args.param] = float(value)
            rows.append(point)
        except _POINT_ERRORS as exc:
            rows.append({args.param: float(value), "error": str(exc)})
    print(dump_json({"parameter": args.param, "points": rows}))
    return 0


def _cmd_sweep(args) -> int:
    problem = _load_problem(args.problem)
    _require_valid(problem)
    network, p = _quadratic_binary_parts(problem)
    _network_along(network, args.param)
    grid = _parse_grid(args.grid)
    # --out is opened before the sweep, so an unwritable path solves no grid point.
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            curve = sweep(network, p, args.param, grid)
            fh.write(sweep_to_csv(curve))
    except OSError as exc:
        raise _CliError(f"cannot write {args.out or 'stdout'}: {exc.strerror or exc}") from exc
    for value, err in zip(curve.grid, curve.errors):
        if err:
            print(f"warning: {args.param}={value:g}: {err}", file=sys.stderr)
    return 0


def _cmd_equity(args) -> int:
    problem = _load_problem(args.problem)
    _require_valid(problem)
    result = optimize_equity(problem, compare_unrestricted=not args.no_compare)
    print(dump_json(result))
    return 0


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.step) and args.step > 0):
        raise _CliError(f"--step must be finite and positive, got {args.step!r}")
    if not (math.isfinite(args.bound) and args.bound >= 0):
        raise _CliError(f"--bound must be finite and non-negative, got {args.bound!r}")
    problem = _load_problem(args.problem)
    _require_valid(problem)
    contracts = contract_grid_size(problem, args.step, (0.0, args.bound))
    if not contracts <= _MAX_GRID_POINTS:
        raise _CliError(f"--step {args.step!r} and --bound {args.bound!r} give a grid of {contracts:.4g} contracts, "
                        f"more than {_MAX_GRID_POINTS}")

    if _is_quadratic_binary(problem) and np.all(problem.production.standalone == 1.0):
        network, p = _quadratic_binary_parts(problem)
        opt = optimize_quadratic_binary(network, p)
    else:
        opt = optimize_general(problem)

    checks = []

    oracle_eq = best_response_iterate(problem, opt.contract, tol=1e-10)
    gap = float(np.max(np.abs(oracle_eq.actions - opt.equilibrium.actions)))
    checks.append({
        "name": "equilibrium_matches_grid_oracle",
        "gap": gap,
        "passed": gap < 1e-7,
    })

    contract_best, payoff_best = brute_force_optimal_contract(problem, args.step, (0.0, args.bound))
    margin = opt.principal_payoff - payoff_best
    checks.append({
        "name": "payoff_at_least_grid_best",
        "optimizer_payoff": opt.principal_payoff,
        "grid_best_payoff": payoff_best,
        "margin": margin,
        "passed": margin > -1e-3,
    })
    cell = float(np.max(np.abs(contract_best.payments - opt.contract.payments)))
    checks.append({
        "name": "grid_argmax_near_optimum",
        "max_coordinate_gap": cell,
        "passed": cell <= args.step + 1e-12,
    })

    ok = all(c["passed"] for c in checks)
    print(dump_json({"all_passed": ok, "checks": checks}))
    return 0 if ok else 2


# parse_args leaves the parser unchanged, so one build serves every call.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="teampay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("problem", help="problem JSON file")
        return p

    add("validate", _cmd_validate, help="check problem invariants")

    p = add("equilibrium", _cmd_equilibrium, help="solve the effort game for a fixed contract")
    p.add_argument("--contract", required=True, help="contract JSON file")
    p.add_argument("--method", choices=["auto", "general"], default="auto")

    p = add("diagnose", _cmd_diagnose, help="balance diagnostics at a contract")
    p.add_argument("--contract", required=True)

    p = add("optimize", _cmd_optimize, help="find an optimal contract")
    p.add_argument("--method", choices=["general", "quadratic", "cobb-douglas", "ces"],
                   default="general")

    p = add("active-set", _cmd_active_set, help="rank candidate active sets")
    p.add_argument("--cap", type=int, default=None,
                   help="work bound: enumerate weighted networks of at most CAP agents (2^CAP "
                        "subsets), and search 0/1 networks for maximum cliques in at most 2^CAP "
                        "branch-and-bound nodes (default: the library's)")

    p = add("statics", _cmd_statics, help="closed-form link-weight derivatives at the optimum")
    p.add_argument("--param", default=None, help="'beta' or a link like G23 (needed with --grid)")
    p.add_argument("--grid", default=None,
                   help="lo:hi:step; evaluate the derivatives at re-optimized points along it")

    p = add("sweep", _cmd_sweep, help="re-optimize along a parameter grid, emit CSV")
    p.add_argument("--param", required=True, help="'beta' or a link like G23")
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = add("equity", _cmd_equity, help="optimal equity shares")
    p.add_argument("--no-compare", action="store_true",
                   help="skip the unrestricted-optimum comparison")

    p = add("verify", _cmd_verify, help="cross-check solvers against the brute-force oracle")
    p.add_argument("--step", type=float, default=0.01, help="payment grid resolution")
    p.add_argument("--bound", type=float, default=1.0, help="payment grid upper bound")

    return parser


def _error_json(kind: str, message: str) -> str:
    return dump_json({"error": {"type": kind, "message": message}})


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _CliError as exc:
        print(_error_json("usage", str(exc)), file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (_CliError, SchemaError) as exc:
        print(_error_json("input", str(exc)), file=sys.stderr)
        return 1
    except (CapExceededError, EquilibriumError, OptimizationError, DiagnosticsError,
            StaticsError, ActiveSetError, OracleError, np.linalg.LinAlgError) as exc:
        # A cap overrun is a ModelError, but like a failed spectral condition it
        # means no interior equilibrium: a solver failure, not bad input.
        print(_error_json("solver", str(exc)), file=sys.stderr)
        return 2
    except ModelError as exc:
        print(_error_json("validation", str(exc)), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
