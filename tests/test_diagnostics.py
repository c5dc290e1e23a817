import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teampay as tp
from teampay import contract_opt, equity
from teampay.diagnostics import ACTIVITY_TOL, _FirstOrderObjects

from helpers import (
    KAPPA_HALF,
    clique,
    gradient_fd_battery,
    quadratic_problem,
    random_production,
    random_symmetric_network,
    softmax_instance,
    success_contract,
)


def solve(problem, contract, tol=1e-12):
    return tp.solve_equilibrium_general(problem, contract, tol=tol)


# ---------------------------------------------------------------------------
# balance report
# ---------------------------------------------------------------------------


def test_symmetric_contract_has_zero_residuals():
    problem = quadratic_problem(clique(2))
    contract = success_contract([0.2, 0.2])
    report = tp.compute_balance_report(problem, contract, solve(problem, contract))
    assert report.max_relative_residual() < 1e-10


def test_no_spillovers_makes_centrality_equal_productivity():
    net = tp.Network(np.zeros((3, 3)))
    problem = quadratic_problem(net)
    contract = success_contract([0.2, 0.3, 0.1])
    report = tp.compute_balance_report(problem, contract, solve(problem, contract))
    assert np.allclose(report.centrality, report.alpha, atol=1e-14)


def test_asymmetric_contract_against_hand_assembled_pipeline():
    """Independent scripted assembly of the first-order objects for the
    2-agent clique at a non-optimal contract."""
    problem = quadratic_problem(clique(2))
    tau = np.array([0.3, 0.1])
    contract = success_contract(tau)
    eq = solve(problem, contract)
    report = tp.compute_balance_report(problem, contract, eq)

    g = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = eq.actions
    kappa = 0.5
    curvature = np.ones(2)                      # quadratic cost a^2/2
    alpha = (np.ones(2) + g @ a) / np.sqrt(curvature)
    payment_utility = kappa * tau               # P'(u(tau) - u(0)) per agent
    spill = (payment_utility / np.sqrt(curvature))[:, None] * g / np.sqrt(curvature)[None, :]
    centrality = np.linalg.solve((np.eye(2) - spill).T, alpha)
    products = alpha * centrality
    lam = products * 1.0  # linear utility: u' = 1
    fitted = np.mean(lam)

    assert np.allclose(report.curvature, curvature)
    assert np.allclose(report.alpha, alpha, atol=1e-12)
    assert np.allclose(report.payment_utility, payment_utility, atol=1e-12)
    assert np.allclose(report.centrality, centrality, atol=1e-11)
    assert report.lambda_by_outcome[1] == pytest.approx(fitted, abs=1e-11)
    expected_resid = np.abs(lam - fitted) / abs(fitted)
    assert np.allclose(report.balance_residuals[:, 1], expected_resid, atol=1e-10)
    assert report.max_relative_residual() > 1e-3  # genuinely unbalanced point
    assert report.l_factor == 1.0


def test_refuses_lambda_fit_when_marginal_revenue_vanishes():
    # Net revenue (v_s minus total payments) constant across outcomes makes
    # the principal's marginal revenue term vanish exactly.
    problem = quadratic_problem(clique(2))
    contract = tp.Contract(np.array([[0.1, 0.6], [0.2, 0.7]]))
    eq = solve(problem, contract)
    report = tp.compute_balance_report(problem, contract, eq)
    assert np.any(eq.actions > 0.0)
    assert abs(report.D_term) < 1e-12
    assert np.all(np.isnan(report.lambda_by_outcome))


# ---------------------------------------------------------------------------
# performance gradient
# ---------------------------------------------------------------------------


def test_single_agent_gradient_is_slope():
    problem = quadratic_problem(tp.Network([[0.0]]))
    contract = success_contract([0.4])
    m = tp.marginal_performance(problem, contract, solve(problem, contract))
    assert np.allclose(m, [[-0.5, 0.5]], atol=1e-10)


def test_l_factor_is_one_without_probability_curvature():
    problem = quadratic_problem(clique(3, 0.6))
    contract = success_contract([0.2, 0.15, 0.1])
    report = tp.compute_balance_report(problem, contract, solve(problem, contract))
    assert report.l_factor == 1.0
    assert np.all(report.d_vector == 0.0)


def test_triangle_logistic_sqrt_gradient_matches_fd():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[0, 2] = w[2, 0] = 0.8
    w[1, 2] = w[2, 1] = 0.6
    problem = tp.Problem(
        n=3,
        production=tp.QuadraticNetworkProduction(tp.Network(w)),
        outcomes=tp.BinaryOutcomeModel(tp.LogisticSuccess(0.7, -0.2)),
        utilities=(tp.SqrtUtility(),) * 3,
        costs=(tp.PowerCost(),) * 3,
    )
    payments = np.array([[0.05, 0.2], [0.04, 0.15], [0.03, 0.1]])
    contract = tp.Contract(payments)
    eq = solve(problem, contract)
    analytic = tp.marginal_performance(problem, contract, eq)
    h = 1e-6
    for i in range(3):
        for s in range(2):
            up, dn = payments.copy(), payments.copy()
            up[i, s] += h
            dn[i, s] -= h
            fd = (
                tp.solve_equilibrium_general(problem, tp.Contract(up), init=eq.actions, tol=1e-13).performance
                - tp.solve_equilibrium_general(problem, tp.Contract(dn), init=eq.actions, tol=1e-13).performance
            ) / (2 * h)
            assert abs(analytic[i, s] - fd) / max(abs(fd), 1e-8) < 1e-5


@pytest.mark.filterwarnings("error")
def test_gradient_is_finite_where_the_l_factor_is_zero():
    # Y = c0 + (c1 + c2) a^2 with a quadratic cost makes [H - U G] singular
    # at the interior first-order condition, so l = 0 and w is infinite,
    # while l w = v is finite.  The draw comes from the tangent-prediction
    # property test's construction.  No balance report exists there, and
    # nothing on the way warns.
    rng = np.random.default_rng(4180964081)
    assert rng.uniform() < 0.5  # the construction's sqrt-utility branch
    production = random_production("polynomial", 1, rng)
    costs = (tp.PowerCost(float(rng.uniform(0.5, 2.0)), float(rng.choice([2.0, 2.5]))),)
    problem = tp.Problem(n=1, production=production,
                         outcomes=tp.SoftmaxOutcomeModel([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0]),
                         utilities=(tp.SqrtUtility(),), costs=costs)
    payments = np.cumsum(rng.uniform(0.05, 1.0, size=(1, 3)), axis=1)
    payments[:, 0] = 0.0
    contract = tp.Contract(payments)
    eq = solve(problem, contract)
    assert _FirstOrderObjects(problem, contract, eq).l_factor == 0.0
    with pytest.raises(tp.DiagnosticsError, match="singular"):
        tp.compute_balance_report(problem, contract, eq)
    analytic = tp.marginal_performance(problem, contract, eq)
    h = 1e-6
    for s in (1, 2):
        up, dn = payments.copy(), payments.copy()
        up[0, s] += h
        dn[0, s] -= h
        fd = (
            tp.solve_equilibrium_general(problem, tp.Contract(up), init=eq.actions, tol=1e-13).performance
            - tp.solve_equilibrium_general(problem, tp.Contract(dn), init=eq.actions, tol=1e-13).performance
        ) / (2 * h)
        assert np.isfinite(analytic[0, s])
        assert abs(analytic[0, s] - fd) / abs(fd) < 1e-5


def _cobb_douglas_sqrt(shares) -> tp.Problem:
    return tp.Problem(n=2, production=tp.CobbDouglasProduction(shares),
                      outcomes=tp.BinaryOutcomeModel(tp.PowerSuccess(5.0)),
                      utilities=(tp.SqrtUtility(),) * 2, costs=(tp.PowerCost(3.0, 3.0),) * 2)


@pytest.mark.filterwarnings("error")
def test_an_l_factor_of_rounding_noise_counts_as_zero():
    # With shares [1, 2] the total factor share, 3, equals the cost exponent,
    # so l vanishes at every interior equilibrium; here it lands on rounding
    # noise, not on 0.  No balance report, null balances in optimize and
    # equity, and the payoff gradient takes l w = v.
    problem = _cobb_douglas_sqrt([1.0, 2.0])
    payments = np.array([[0.0, 0.3], [0.0, 0.6]])
    contract = tp.Contract(payments)
    eq = solve(problem, contract)
    obj = _FirstOrderObjects(problem, contract, eq)
    assert 0.0 < abs(obj.l_factor) < 1e-14 and obj.l_vanishes
    with pytest.raises(tp.DiagnosticsError, match="singular"):
        tp.compute_balance_report(problem, contract, eq)
    assert contract_opt._balance_residual_or_none(problem, contract, eq) is None
    assert equity._balance_values(problem, payments[:, 1], eq) is None
    analytic = tp.marginal_performance(problem, contract, eq)
    h = 1e-6
    for i in range(2):
        up, dn = payments.copy(), payments.copy()
        up[i, 1] += h
        dn[i, 1] -= h
        fd = (solve(problem, tp.Contract(up)).performance - solve(problem, tp.Contract(dn)).performance) / (2 * h)
        assert abs(analytic[i, 1] - fd) / abs(fd) < 1e-5


def test_a_nonzero_l_factor_still_reports():
    # Equal shares sum to 2, below the cost exponent: l is about 0.36.
    problem = _cobb_douglas_sqrt([1.0, 1.0])
    contract = tp.Contract([[0.0, 0.3], [0.0, 0.6]])
    report = tp.compute_balance_report(problem, contract, solve(problem, contract))
    assert report.l_factor == pytest.approx(0.36, abs=0.01)
    assert np.all(np.isfinite(report.centrality))


def test_gradient_fd_battery_small():
    worst = gradient_fd_battery(20, seed=21)
    assert worst < 1e-5


def test_inactive_agent_rows_use_extended_centrality():
    # Pendant agent with zero pay: the gradient row must be finite and
    # positive exactly at the positive-slope outcome.
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[1, 2] = w[2, 1] = 0.5
    problem = quadratic_problem(tp.Network(w))
    contract = success_contract([0.2, 0.2, 0.0])
    eq = solve(problem, contract)
    assert eq.actions[2] == 0.0
    m = tp.marginal_performance(problem, contract, eq)
    assert m[2, 1] > 0.0
    assert m[2, 0] == 0.0  # failure outcome has negative slope; corner pins


# ---------------------------------------------------------------------------
# ratio checks
# ---------------------------------------------------------------------------


def test_lambda_proportional_to_prob_over_slope():
    out_theta = [0.0, 2.0, 2.5]
    out_shift = [1.5, 0.0, -1.0]
    out_rev = [0.0, 2.0, 3.0]
    problem = softmax_instance(out_theta, out_shift, out_rev, clique(2), tp.SqrtUtility())
    opt = tp.optimize_general(problem)
    report = tp.compute_balance_report(problem, opt.contract, opt.equilibrium)
    probs, dprobs, _ = problem.outcomes.probs_derivs(opt.equilibrium.performance)
    ratios = [
        report.lambda_by_outcome[s] * dprobs[s] / probs[s]
        for s in range(3)
        if np.isfinite(report.lambda_by_outcome[s])
    ]
    assert len(ratios) >= 2
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    assert spread < 1e-4


def test_extended_centralities_positive_with_inada_utilities():
    out_theta = [0.0, 2.0, 2.5]
    out_shift = [1.5, 0.0, -1.0]
    out_rev = [0.0, 2.0, 3.0]
    problem = softmax_instance(out_theta, out_shift, out_rev, clique(2), tp.SqrtUtility())
    opt = tp.optimize_general(problem)
    report = tp.compute_balance_report(problem, opt.contract, opt.equilibrium)
    assert np.all(report.centrality_all > 0.0)


# ---------------------------------------------------------------------------
# one solve of the first-order Jacobian against a three-solve assembly
# ---------------------------------------------------------------------------


def _three_solve_assembly(problem, contract, a):
    """Reference for the balance objects, built from ``M = diag(h) - U G``
    with three separate solves: ``M' w = grad`` on the active agents, the
    symmetrized centrality from ``(I - S)' c = alpha``, the extended
    centrality from the full ``n x n`` system, and the l factor from
    Sherman-Morrison on the rank-one probability-curvature term."""
    n = problem.n
    payments = contract.payments
    _, dprobs, d2probs = problem.outcomes.probs_derivs(float(problem.production.value(a)))
    u_levels = np.array([problem.utilities[i].value(payments[i]) for i in range(n)])
    u_marg = np.array([problem.utilities[i].marginal(payments[i]) for i in range(n)])
    grad = problem.production.gradient(a)
    hess = problem.production.hessian(a)
    curv = np.array([float(problem.costs[i].curvature(a[i])) for i in range(n)])
    sens = u_levels @ dprobs
    act, inact = np.flatnonzero(a > ACTIVITY_TOL), np.flatnonzero(a <= ACTIVITY_TOL)

    h, u, g = curv[act], sens[act], hess[np.ix_(act, act)]
    w_act = np.linalg.solve((np.diag(h) - u[:, None] * g).T, grad[act])
    spill = (u / np.sqrt(h))[:, None] * g / np.sqrt(h)[None, :]
    centrality = np.linalg.solve((np.eye(act.size) - spill).T, grad[act] / np.sqrt(h))
    l_factor = 1.0 / (1.0 - w_act @ (grad[act] * (u_levels[act] @ d2probs)))

    w_all = np.zeros(n)
    w_all[act] = w_act
    for j in inact:
        cross = grad[j] + (w_act * u) @ hess[act, j]
        w_all[j] = cross / curv[j] if curv[j] > 0.0 else (0.0 if cross == 0.0 else np.inf * np.sign(cross))
    centrality_all = np.full(n, np.nan)
    centrality_all[act] = centrality
    if inact.size and np.all(curv[inact] > 0.0):
        sq = np.sqrt(curv)
        u_ext = np.where(a > ACTIVITY_TOL, sens, 0.0)
        spill_all = (u_ext / sq)[:, None] * hess / sq[None, :]
        centrality_all = np.linalg.solve((np.eye(n) - spill_all).T, grad / sq)

    dy = np.zeros((n, dprobs.size))
    for i in range(n):
        if i in inact and sens[i] < -1e-15:
            continue
        for s in range(dprobs.size):
            if i in inact and dprobs[s] <= 0.0:
                continue
            with np.errstate(invalid="ignore"):
                dy[i, s] = l_factor * dprobs[s] * w_all[i] * grad[i] * u_marg[i, s]
    return centrality, centrality_all, l_factor, dy


def _assert_relatively_close(x, ref, rtol=1e-12):
    finite = np.isfinite(ref)
    scale = float(np.max(np.abs(ref[finite]))) if finite.any() else 0.0
    np.testing.assert_allclose(x, ref, rtol=rtol, atol=rtol * scale)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 6), softmax=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_one_jacobian_solve_matches_the_three_solve_assembly(n, softmax, seed):
    rng = np.random.default_rng(seed)
    if softmax:
        outcomes = tp.SoftmaxOutcomeModel(np.sort(rng.uniform(0.0, 2.5, size=3)),
                                          rng.uniform(-0.5, 0.5, size=3), rng.uniform(0.0, 2.0, size=3))
    else:
        outcomes = tp.BinaryOutcomeModel(
            tp.LogisticSuccess(float(rng.uniform(0.3, 1.0)), float(rng.uniform(-0.5, 0.0)))
            if rng.uniform() < 0.5 else tp.PowerSuccess(float(rng.uniform(1.0, 3.0))))
    utility = [tp.LinearUtility(), tp.SqrtUtility(), tp.Log1pUtility(), tp.PowerUtility(0.6)][int(rng.integers(4))]
    problem = tp.Problem(
        n=n,
        production=tp.QuadraticNetworkProduction(random_symmetric_network(rng, n, high=0.5)),
        outcomes=outcomes,
        utilities=(utility,) * n,
        costs=tuple(tp.PowerCost(float(rng.uniform(0.5, 2.0)), float(rng.choice([2.0, 2.5, 3.0])))
                    for _ in range(n)),
    )
    # Unpaid agents are idle; a few paid agents are idle too.  The identity
    # is algebraic, so any profile serves, not only an equilibrium.
    paid = rng.uniform(size=n) < 0.7
    paid[0] = True
    payments = np.where(paid[:, None], rng.uniform(0.02, 0.5, size=(n, outcomes.n_outcomes)), 0.0)
    a = np.where(paid & (rng.uniform(size=n) < 0.85), rng.uniform(0.2, 1.5, size=n), 0.0)
    a[0] = rng.uniform(0.2, 1.5)
    contract = tp.Contract(payments)
    y = float(problem.production.value(a))
    eq = tp.EquilibriumResult(actions=a, performance=y, probs=problem.outcomes.probs(y),
                              iterations=0, residual=0.0)

    centrality, centrality_all, l_factor, dy = _three_solve_assembly(problem, contract, a)
    report = tp.compute_balance_report(problem, contract, eq)
    _assert_relatively_close(report.centrality, centrality)
    _assert_relatively_close(report.centrality_all, centrality_all)
    assert report.l_factor == pytest.approx(l_factor, rel=1e-12)
    _assert_relatively_close(report.dY_dtau, dy)
