import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import teampay as tp
from teampay import contract_opt, equilibrium
from teampay.contract_opt import _balanced_share
from teampay.diagnostics import _FirstOrderObjects
from teampay.equilibrium import _foc

from helpers import (
    KAPPA_HALF,
    PRODUCTION_FAMILIES,
    clique,
    quadratic_problem,
    random_production,
    random_quadratic_binary,
    random_symmetric_network,
    softmax_instance,
    solver_oracle_agreement,
    star,
    success_contract,
)


# ---------------------------------------------------------------------------
# Brent root finder
# ---------------------------------------------------------------------------


def _bracketed_function(kind: str, p: float, q: float, r: float):
    """A function with a sign change on the returned bracket ``[a, b]``."""
    if kind == "share_cubic":
        # beta * kappa = p * kstar < kstar: the cubic's valid range.
        kstar = 0.05 + 2.0 * q
        args = (r + 0.05, p * kstar / (r + 0.05), kstar)
        return (lambda s: contract_opt.share_cubic(s, *args)), 0.5, 1.0
    if kind == "inf_below":
        # Like the performance fixed point's excess: +inf below a threshold,
        # decreasing above it, with the threshold below or above the root.
        c = 0.1 + 4.0 * q
        root = (-0.1 + math.sqrt(0.01 + 4.0 * c)) / 2.0
        threshold = 2.0 * r * root
        return (lambda y: (math.inf if y < threshold else c / (y + 0.1)) - y), 0.0, 2.0 * root + 1.0
    # Piecewise flat: decreasing in steps of height 1/k, with a jump across 0.
    k = 1.0 + 20.0 * q
    return (lambda x: math.floor((r - x) * k) / k + 0.5 * p / k), -1.0, 2.0


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["share_cubic", "inf_below", "flat"]),
       p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), q=st.floats(0.0, 1.0),
       r=st.floats(0.0, 1.0), scale=st.sampled_from([1.0, 1e-160, 1e-300]),
       xtol=st.sampled_from([1e-15, 1e-13, 2e-12, 1e-6]),
       maxiter=st.one_of(st.integers(1, 7), st.just(100)))
def test_brentq_matches_scipy_bit_for_bit(kind, p, q, r, scale, xtol, maxiter):
    # Tiny scales underflow the interpolation denominators to zero, where
    # the C routine's infinite or NaN step bisects.
    g, a, b = _bracketed_function(kind, p, q, r)

    def f(x):
        return scale * g(x)

    ref, info = scipy_brentq(f, a, b, xtol=xtol, maxiter=maxiter, full_output=True, disp=False)
    root, calls, converged = equilibrium.brentq(f, a, b, xtol=xtol, maxiter=maxiter)
    assert np.float64(root).tobytes() == np.float64(ref).tobytes()
    assert (calls, converged) == (info.function_calls, info.converged)


def test_brentq_rejects_a_same_sign_bracket():
    with pytest.raises(ValueError, match="different signs"):
        equilibrium.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    src = str(Path(tp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, teampay.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------


def test_spectral_radius_zero_matrix():
    assert tp.spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_swap_matrix():
    assert tp.spectral_radius([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_matches_dense_eigensolver():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = rng.uniform(0.0, 1.0, size=(4, 4))
        expected = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert tp.spectral_radius(m) == pytest.approx(expected, abs=1e-10)


def test_spectral_radius_rotation_falls_back():
    # Complex dominant pair: power iteration cannot settle, eigensolver can.
    assert tp.spectral_radius([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# quadratic-binary solver
# ---------------------------------------------------------------------------


def test_zero_contract_gives_zero_effort():
    eq = tp.solve_equilibrium_quadratic_binary(clique(3), np.zeros(3), KAPPA_HALF)
    assert np.all(eq.actions == 0.0)
    assert eq.performance == 0.0


def test_two_clique_hand_checkable_instance():
    eq = tp.solve_equilibrium_quadratic_binary(clique(2), [0.25, 0.25], KAPPA_HALF)
    assert eq.actions == pytest.approx([1 / 7, 1 / 7], abs=1e-10)
    assert eq.performance == pytest.approx(15 / 49, abs=1e-10)
    assert eq.residual < 1e-12


def test_single_agent_decoupled():
    eq = tp.solve_equilibrium_quadratic_binary(tp.Network([[0.0]]), [0.4], KAPPA_HALF)
    assert eq.actions == pytest.approx([0.2], abs=1e-12)
    assert eq.performance == pytest.approx(0.2, abs=1e-12)


def test_unpaid_agents_take_exactly_zero_action():
    eq = tp.solve_equilibrium_quadratic_binary(clique(3), [0.2, 0.0, 0.1], KAPPA_HALF)
    assert eq.actions[1] == 0.0
    assert np.all(eq.actions[[0, 2]] > 0.0)


def test_no_equilibrium_when_spectral_condition_fails():
    with pytest.raises(tp.EquilibriumError):
        tp.solve_equilibrium_quadratic_binary(clique(2), [3.0, 3.0], KAPPA_HALF)


def test_cap_guard_trips_when_performance_would_cross():
    steep = tp.LinearCappedSuccess(0.95)
    with pytest.raises((tp.CapExceededError, tp.EquilibriumError)):
        tp.solve_equilibrium_quadratic_binary(clique(2), [0.9, 0.9], steep)


def test_asymmetric_network_rejected():
    # The eigensolve reads one triangle of T^{1/2} G T^{1/2}, so G must be symmetric.
    with pytest.raises(tp.DomainError):
        tp.solve_equilibrium_quadratic_binary(tp.Network([[0.0, 1.0], [0.5, 0.0]]), [0.2, 0.2], KAPPA_HALF)


def test_specialized_solver_with_concave_smooth_families():
    net = clique(3, 0.6)
    tau = np.array([0.2, 0.15, 0.1])
    for p in (tp.LogisticSuccess(0.7, -0.3), tp.PowerSuccess(2.0)):
        eq = tp.solve_equilibrium_quadratic_binary(net, tau, p)
        assert eq.residual < 1e-11
        assert eq.spectral_margin > 0.0


# ---------------------------------------------------------------------------
# agreement batteries and invariants
# ---------------------------------------------------------------------------


def test_specialized_solver_matches_oracle_on_200_random_instances():
    worst = solver_oracle_agreement(200, seed=0)
    assert worst < 1e-8


def test_oracle_invariant_to_initialization():
    rng = np.random.default_rng(9)
    net, tau, p = random_quadratic_binary(rng, max_n=4)
    problem = quadratic_problem(net, p)
    contract = success_contract(tau)
    baseline = tp.best_response_iterate(problem, contract, tol=1e-11).actions
    for _ in range(10):
        init = rng.uniform(0.0, 1.5, size=net.n)
        again = tp.best_response_iterate(problem, contract, tol=1e-11, init=init).actions
        # Value-comparison argmax cannot resolve actions below ~sqrt(eps),
        # so init-invariance is asserted at that resolution floor.
        assert np.max(np.abs(again - baseline)) < 1e-8


def test_performance_weakly_increasing_in_edge_weight():
    rng = np.random.default_rng(4)
    for _ in range(10):
        net, tau, p = random_quadratic_binary(rng, max_n=5)
        if net.n < 2:
            continue
        try:
            base = tp.solve_equilibrium_quadratic_binary(net, tau, p)
        except (tp.EquilibriumError, tp.CapExceededError):
            continue
        i, j = rng.integers(0, net.n, size=2)
        while i == j:
            j = rng.integers(0, net.n)
        bumped = net.with_edge(int(i), int(j), net.weights[i, j] + 0.05)
        try:
            after = tp.solve_equilibrium_quadratic_binary(bumped, tau, p)
        except (tp.EquilibriumError, tp.CapExceededError):
            continue
        assert after.performance >= base.performance - 1e-12


def test_spectral_guard_strict_at_returned_equilibria():
    rng = np.random.default_rng(14)
    for _ in range(25):
        net, tau, p = random_quadratic_binary(rng)
        try:
            eq = tp.solve_equilibrium_quadratic_binary(net, tau, p)
        except (tp.EquilibriumError, tp.CapExceededError):
            continue
        rho = tp.spectral_radius(tau[:, None] * net.matrix)
        assert float(p.deriv(eq.performance)) * rho < 1.0
        assert eq.spectral_margin > 0.0


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["two_clique", "star", "random"]),
    n=st.integers(2, 7),
    p=st.sampled_from([KAPPA_HALF, tp.LogisticSuccess(0.7, -0.3), tp.PowerSuccess(2.0)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_margin_matches_dense_spectral_radius(kind, n, p, seed):
    # The 2-clique and stars are bipartite, so -rho is an eigenvalue too;
    # zero payments make T^{1/2} singular.
    rng = np.random.default_rng(seed)
    net = clique(2) if kind == "two_clique" else star(n) if kind == "star" else random_symmetric_network(rng, n)
    tau = rng.uniform(0.0, 0.4, size=net.n)
    tau[rng.uniform(size=net.n) < 0.3] = 0.0
    try:
        eq = tp.solve_equilibrium_quadratic_binary(net, tau, p)
    except (tp.EquilibriumError, tp.CapExceededError):
        assume(False)
    rho = tp.spectral_radius(tau[:, None] * net.matrix)
    assert abs(eq.spectral_margin - (1.0 - float(p.deriv(eq.performance)) * rho)) <= 1e-12


@pytest.mark.parametrize("p", [tp.LogisticSuccess(0.7, -0.3), tp.LogisticSuccess(0.15), tp.PowerSuccess(3.0)],
                         ids=["logistic", "steep_logistic", "power"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_balanced_clique_equilibrium_matches_balanced_performance(k, p):
    # A k-clique paid s/k each is the balanced contract with rate (k-1)/k; the
    # steep curves put P'(0) * s * rate >= 1 at the larger shares.  The share
    # curve at the solver's performance returns the share paid.
    for s in (0.2, 0.5, 0.9):
        eq = tp.solve_equilibrium_quadratic_binary(clique(k), np.full(k, s / k), p)
        assert float(_balanced_share(eq.performance, (k - 1) / k, p)) == pytest.approx(s, abs=1e-12)
        assert eq.residual <= 1e-11


# ---------------------------------------------------------------------------
# general solver
# ---------------------------------------------------------------------------


def test_general_solver_matches_specialized():
    net = clique(2)
    problem = quadratic_problem(net)
    eq_general = tp.solve_equilibrium_general(problem, success_contract([0.25, 0.25]), tol=1e-11)
    eq_special = tp.solve_equilibrium_quadratic_binary(net, np.array([0.25, 0.25]), KAPPA_HALF)
    assert np.max(np.abs(eq_general.actions - eq_special.actions)) < 1e-8


def test_general_solver_zero_contract():
    problem = quadratic_problem(clique(3, 0.4))
    eq = tp.solve_equilibrium_general(problem, tp.Contract(np.zeros((3, 2))))
    assert np.all(eq.actions == 0.0)
    assert eq.global_check_passed


def test_cobb_douglas_symmetric_contract_symmetric_actions():
    problem = tp.Problem(
        n=2,
        production=tp.CobbDouglasProduction([1.0, 1.0]),
        outcomes=tp.BinaryOutcomeModel(tp.LinearCappedSuccess(0.5)),
        utilities=(tp.LinearUtility(),) * 2,
        costs=(tp.PowerCost(),) * 2,
    )
    eq = tp.solve_equilibrium_general(problem, success_contract([0.3, 0.3]))
    assert eq.actions[0] == pytest.approx(eq.actions[1], abs=1e-10)
    assert eq.residual < 1e-9
    assert eq.global_check_passed


def test_triangle_logistic_residual():
    net = clique(3)
    problem = quadratic_problem(net, tp.LogisticSuccess(0.8, -0.2))
    eq = tp.solve_equilibrium_general(problem, success_contract([0.2, 0.2, 0.2]))
    assert eq.residual < 1e-9
    assert np.all(eq.actions > 0.0)
    assert eq.actions[0] == pytest.approx(eq.actions[1], abs=1e-9)


def test_polynomial_production_matches_equivalent_quadratic():
    # Y = a1 + a2 + a1*a2 written as a sparse polynomial and as a network.
    poly = tp.PolynomialProduction(2, ((1.0, (1, 0)), (1.0, (0, 1)), (1.0, (1, 1))))
    problem_poly = tp.Problem(
        n=2, production=poly, outcomes=tp.BinaryOutcomeModel(KAPPA_HALF),
        utilities=(tp.LinearUtility(),) * 2, costs=(tp.PowerCost(),) * 2,
    )
    contract = success_contract([0.25, 0.25])
    eq_poly = tp.solve_equilibrium_general(problem_poly, contract, tol=1e-11)
    eq_net = tp.solve_equilibrium_quadratic_binary(clique(2), np.array([0.25, 0.25]), KAPPA_HALF)
    assert np.max(np.abs(eq_poly.actions - eq_net.actions)) < 1e-9


FOC_OUTCOMES = ["linear_capped", "logistic", "power", "softmax"]


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(PRODUCTION_FAMILIES), outcome=st.sampled_from(FOC_OUTCOMES),
       n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(family="quadratic", outcome="softmax", n=4, seed=227821)  # batched Y one ulp off the single point's
def test_batched_foc_matches_a_loop_of_single_actions(family, outcome, n, seed):
    rng = np.random.default_rng(seed)
    production = random_production(family, n, rng)
    i = int(rng.integers(n))
    a = rng.uniform(0.1, 2.0, size=n)
    ai = np.sort(rng.uniform(0.01, 3.0, size=12))
    pts = np.repeat(a[None, :], ai.size, axis=0)
    pts[:, i] = ai
    y = production.value(pts)
    if outcome == "linear_capped":
        # Put the cap mid-range, so about half the points sit at or past it.
        success = tp.LinearCappedSuccess(1.0 / float(np.median(y)))
        outcomes = tp.BinaryOutcomeModel(success)
    elif outcome == "softmax":
        outcomes = tp.SoftmaxOutcomeModel([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0])
    else:
        success = tp.LogisticSuccess(0.7, -0.3) if outcome == "logistic" else tp.PowerSuccess(2.0)
        outcomes = tp.BinaryOutcomeModel(success)
    utility = tp.SqrtUtility() if rng.uniform() < 0.5 else tp.LinearUtility()
    cost = tp.PowerCost(float(rng.uniform(0.5, 2.0)), float(rng.choice([2.0, 2.5])))
    problem = tp.Problem(n=n, production=production, outcomes=outcomes,
                         utilities=(utility,) * n, costs=(cost,) * n)
    payments = rng.uniform(0.05, 1.0, size=(n, outcomes.n_outcomes))
    u_levels = np.array([utility.value(row) for row in payments])

    g, slope = _foc(problem, u_levels, i, a, ai)
    assert g.shape == slope.shape == ai.shape
    for k, x in enumerate(ai):
        g_x, slope_x = (float(v) for v in _foc(problem, u_levels, i, a, x))
        marginal, curvature = float(cost.marginal(x)), float(cost.curvature(x))
        if outcome == "linear_capped" and y[k] * success.slope >= 1.0:
            # At or past the cap the outcome curve is flat: zero slopes.
            assert (g[k], slope[k], g_x, slope_x) == (-marginal, -curvature, -marginal, -curvature)
            continue
        dy, d2y = production.partial(pts[k], i), production.partial2(pts[k], i)

        def formula(y_k):
            """g and g' at the performance y_k, each with the size of the terms it sums."""
            _, dp, d2p = outcomes.probs_derivs(y_k)
            sens, curve = float(dp @ u_levels[i]), float(d2p @ u_levels[i])
            return ((sens * dy - marginal, abs(sens * dy) + abs(marginal)),
                    (curve * dy * dy + sens * d2y - curvature,
                     abs(curve * dy * dy) + abs(sens * d2y) + abs(curvature)))

        # Tolerances are relative to the size of the terms each value sums.
        y_x = float(production.value(pts[k]))
        (g_ref, g_size), (_, slope_size) = formula(y_x)
        assert abs(g_x - g_ref) <= 1e-14 * g_size
        if y_x == y[k]:
            assert abs(g[k] - g_x) <= 1e-14 * g_size
            assert abs(slope[k] - slope_x) <= 1e-14 * slope_size
            continue
        # The batch sums Y's terms in another order, so its Y may land an ulp
        # or two away from the single point's.  Where the outcome curve is
        # steep (a softmax mean near a level), that moves g by far more than
        # rounding, so each value is checked against the formula at its own Y.
        assert abs(float(y[k]) - y_x) <= 4.0 * np.spacing(max(abs(float(y[k])), abs(y_x)))
        for y_k, values in ((float(y[k]), (g[k], slope[k])), (y_x, (g_x, slope_x))):
            for value, (ref, size) in zip(values, formula(y_k)):
                assert abs(value - ref) <= 1e-14 * size


# ---------------------------------------------------------------------------
# linear success probability: one solve per equilibrium
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 50), kappa=st.floats(0.05, 0.5), seed=st.integers(0, 2**32 - 1))
def test_linear_success_equilibrium_is_one_exact_solve(n, kappa, seed):
    # Weights in [0, 1] and tau <= 1/n keep kappa * rho(TG) < 1/2 and the
    # performance below 3/2 < 1/kappa, so every draw has an interior equilibrium.
    rng = np.random.default_rng(seed)
    net = random_symmetric_network(rng, n)
    tau = rng.uniform(0.05, 1.0, size=n) / n
    eq = tp.solve_equilibrium_quadratic_binary(net, tau, tp.LinearCappedSuccess(kappa))
    g = net.matrix
    expected = np.linalg.solve(np.eye(n) - kappa * (tau[:, None] * g), kappa * tau * np.ones(n))
    assert np.array_equal(eq.actions, expected)
    assert eq.iterations == 1


def test_linear_success_spectral_failure_is_an_equilibrium_error():
    with pytest.raises(tp.EquilibriumError) as info:
        tp.solve_equilibrium_quadratic_binary(clique(2), [3.0, 3.0], KAPPA_HALF)
    assert not isinstance(info.value, tp.CapExceededError)


@pytest.mark.parametrize("tau, slope", [([0.9, 0.9], 0.5), ([0.9, 0.9], 0.95), ([0.6, 0.6], 0.9)])
def test_linear_success_cap_reaching_contract_raises_cap_error(tau, slope):
    with pytest.raises(tp.CapExceededError):
        tp.solve_equilibrium_quadratic_binary(clique(2), tau, tp.LinearCappedSuccess(slope))


def test_linear_success_sweep_solves_each_equilibrium_once(monkeypatch):
    counts = {"solves": 0, "equilibria": 0}
    solve = equilibrium._candidate_actions
    solve_eq = contract_opt.solve_equilibrium_quadratic_binary

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    def counted_eq(*args, **kwargs):
        counts["equilibria"] += 1
        return solve_eq(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "_candidate_actions", counted_solve)
    monkeypatch.setattr(contract_opt, "solve_equilibrium_quadratic_binary", counted_eq)
    net = tp.Network([[0.0, 1.0, 0.8], [1.0, 0.0, 0.0], [0.8, 0.0, 0.0]])
    curve = tp.sweep(net, KAPPA_HALF, "G23", np.linspace(0.0, 1.0, 5))
    assert all(err is None for err in curve.errors)
    assert counts["equilibria"] == 5
    assert counts["solves"] == counts["equilibria"]


# ---------------------------------------------------------------------------
# the first-order system
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(PRODUCTION_FAMILIES), softmax=st.booleans(),
       n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_first_order_jacobian_matches_central_differences(family, softmax, n, seed):
    rng = np.random.default_rng(seed)
    if softmax:
        outcomes = tp.SoftmaxOutcomeModel([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0])
    else:
        outcomes = tp.BinaryOutcomeModel(tp.LogisticSuccess(0.7, -0.3))
    utility = tp.SqrtUtility() if rng.uniform() < 0.5 else tp.LinearUtility()
    problem = tp.Problem(
        n=n, production=random_production(family, n, rng), outcomes=outcomes,
        utilities=(utility,) * n,
        costs=tuple(tp.PowerCost(float(rng.uniform(0.5, 2.0)), float(rng.choice([2.0, 2.5, 3.0])))
                    for _ in range(n)),
    )
    payments = rng.uniform(0.05, 1.0, size=(n, outcomes.n_outcomes))
    u_levels = np.array([utility.value(row) for row in payments])
    a = rng.uniform(0.2, 2.0, size=n)
    support = np.flatnonzero(rng.uniform(size=n) < 0.7)
    assume(support.size)

    jac = equilibrium._first_order(problem, u_levels, a, support).jac
    fd = np.empty_like(jac)
    for k, j in enumerate(support):
        h = 3e-6 * a[j]
        up, dn = a.copy(), a.copy()
        up[j] += h
        dn[j] -= h
        fd[:, k] = (equilibrium._first_order(problem, u_levels, up, support).foc[support]
                    - equilibrium._first_order(problem, u_levels, dn, support).foc[support]) / (2.0 * h)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))


GENERAL_TWO_CLIQUES = {
    "softmax_linear": softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0], clique(2),
                                       tp.LinearUtility()),
    "softmax_sqrt": softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0], clique(2),
                                     tp.SqrtUtility()),
    "binary": quadratic_problem(clique(2)),
}


@settings(max_examples=100, deadline=None)
@given(label=st.sampled_from(sorted(GENERAL_TWO_CLIQUES)),
       cells=st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6))
def test_general_equilibria_meet_their_residual_and_global_check(label, cells):
    """Every equilibrium the general solver returns, from each start the
    principal-best selection uses, has a first-order residual within ``tol``
    and passes the global best-response grid check."""
    problem = GENERAL_TWO_CLIQUES[label]
    contract = tp.Contract(np.reshape(cells[: 2 * problem.n_outcomes], (2, problem.n_outcomes)))
    tol = 1e-11
    for start in (0.1, 1.0, 3.0):
        try:
            eq = tp.solve_equilibrium_general(problem, contract, init=np.full(2, start), tol=tol)
        except tp.EquilibriumError:
            continue
        assert eq.residual <= tol
        assert eq.global_check_passed


# ---------------------------------------------------------------------------
# warm solves: tangent prediction, Newton, one confirming pass
# ---------------------------------------------------------------------------


def _stepped_softmax_sqrt():
    """A payment step on the softmax/sqrt 2-clique, its cold equilibrium and
    the tangent prediction from the equilibrium before the step."""
    problem = GENERAL_TWO_CLIQUES["softmax_sqrt"]
    contract = tp.Contract(np.tile([0.0, 0.14, 0.52], (2, 1)))
    eq = tp.solve_equilibrium_general(problem, contract, tol=1e-11)
    stepped = tp.Contract(contract.payments + [[0.0, 0.01, -0.02], [0.0, 0.015, 0.01]])
    predicted = _FirstOrderObjects(problem, contract, eq).tangent_profile(stepped.payments)
    return problem, stepped, tp.solve_equilibrium_general(problem, stepped, tol=1e-11), predicted


def test_warm_solve_from_the_tangent_prediction_needs_no_sweep():
    problem, stepped, cold, predicted = _stepped_softmax_sqrt()
    warm = tp.solve_equilibrium_general(problem, stepped, init=predicted, tol=1e-11)
    assert cold.iterations >= 1
    assert warm.iterations == 0
    assert warm.residual <= 1e-11 and warm.global_check_passed
    assert np.max(np.abs(warm.actions - cold.actions)) <= 1e-11


@pytest.mark.parametrize("start", ["off_support", "dormant", "far"])
def test_rejected_warm_start_falls_back_to_the_sweeps(start):
    # Newton on the support of agent 0 alone leaves agent 1 at a corner with
    # a positive first-order condition; from the dormant profile Newton has
    # no support to work on; from far away six damped steps do not arrive.
    problem, stepped, cold, predicted = _stepped_softmax_sqrt()
    init = {"off_support": [predicted[0], 0.0], "dormant": [0.0, 0.0], "far": [50.0, 0.01]}[start]
    eq = tp.solve_equilibrium_general(problem, stepped, init=np.array(init), tol=1e-11)
    assert eq.iterations >= 1
    assert eq.residual <= 1e-11 and eq.global_check_passed
    assert np.max(np.abs(eq.actions - cold.actions)) <= 1e-11


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(PRODUCTION_FAMILIES), outcome=st.sampled_from(FOC_OUTCOMES),
       n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_tangent_prediction_is_closer_than_the_old_equilibrium(family, outcome, n, seed):
    """After a small payment step, ``a - J^{-1} dF`` lies closer to the new
    equilibrium than the old equilibrium does: its error is second order in
    the step.  Draws near a fold, where ``J`` is close to singular, are
    skipped.  A 3,340-draw run of this property found no counterexample
    (the largest error ratio was 0.03), so none is pinned."""
    rng = np.random.default_rng(seed)
    if outcome == "softmax":
        outcomes = tp.SoftmaxOutcomeModel([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0])
    elif outcome == "linear_capped":
        outcomes = tp.BinaryOutcomeModel(tp.LinearCappedSuccess(0.2))
    else:
        outcomes = tp.BinaryOutcomeModel(
            tp.LogisticSuccess(0.7, -0.3) if outcome == "logistic" else tp.PowerSuccess(2.0))
    utility = tp.SqrtUtility() if rng.uniform() < 0.5 else tp.LinearUtility()
    problem = tp.Problem(
        n=n, production=random_production(family, n, rng), outcomes=outcomes, utilities=(utility,) * n,
        costs=tuple(tp.PowerCost(float(rng.uniform(0.5, 2.0)), float(rng.choice([2.0, 2.5]))) for _ in range(n)),
    )
    # Pay rising in the outcome, so that effort is worth something.
    payments = np.cumsum(rng.uniform(0.05, 1.0, size=(n, outcomes.n_outcomes)), axis=1)
    payments[:, 0] = 0.0
    stepped = np.maximum(payments + rng.uniform(-1e-4, 1e-4, size=payments.shape), 0.0)
    try:
        eq = tp.solve_equilibrium_general(problem, tp.Contract(payments), tol=1e-12)
        new = tp.solve_equilibrium_general(problem, tp.Contract(stepped), init=eq.actions, tol=1e-12)
    except tp.EquilibriumError:
        assume(False)
    # The prediction moves the active agents only.
    assume(np.all(eq.actions > 1e-6) and np.all(new.actions > 1e-6))
    try:
        # An l factor of exactly 0 makes the balance objects' w = v / l
        # infinite; the prediction does not use them.
        with np.errstate(divide="ignore", invalid="ignore"):
            first_order = _FirstOrderObjects(problem, tp.Contract(payments), eq)
    except tp.DiagnosticsError:
        assume(False)
    assume(np.linalg.cond(first_order.jacobian) <= 1e6)
    predicted = first_order.tangent_profile(stepped)
    old_gap = np.max(np.abs(eq.actions - new.actions))
    assert np.max(np.abs(predicted - new.actions)) <= 0.5 * old_gap
