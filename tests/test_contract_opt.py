import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import teampay as tp
from teampay import contract_opt, equity
from teampay.contract_opt import _scan_roots, share_cubic

from helpers import (
    KAPPA_HALF,
    clique,
    quadratic_problem,
    random_symmetric_network,
    softmax_instance,
    two_stage_oracle,
)


def triangle_pendant() -> tp.Network:
    w = np.zeros((4, 4))
    for i, j in [(0, 1), (0, 2), (1, 2), (2, 3)]:
        w[i, j] = w[j, i] = 1.0
    return tp.Network(w)


# ---------------------------------------------------------------------------
# general optimizer
# ---------------------------------------------------------------------------


def test_single_agent_matches_one_dimensional_calculus():
    problem = quadratic_problem(tp.Network([[0.0]]))
    result = tp.optimize_general(problem)
    assert result.contract.payments[0, 1] == pytest.approx(0.5, abs=1e-7)
    assert result.principal_payoff == pytest.approx(0.0625, abs=1e-10)
    assert result.contract.payments[0, 0] == 0.0


def test_two_clique_matches_cubic_root():
    problem = quadratic_problem(clique(2))
    result = tp.optimize_general(problem)
    s_star = tp.total_share_root(1.0, 0.5, 2.0)
    assert result.contract.payments[:, 1].sum() == pytest.approx(s_star, abs=1e-6)
    assert result.max_balance_residual < 1e-5


def test_zero_value_outcomes_pay_nothing():
    problem = softmax_instance([0.0, 1.0], [0.0, 0.0], [0.0, 0.0], clique(2), tp.LinearUtility())
    result = tp.optimize_general(problem)
    assert np.all(result.contract.payments == 0.0)
    assert result.principal_payoff == 0.0


def test_payoff_invariant_recomputes_from_equilibrium():
    problem = quadratic_problem(clique(2))
    result = tp.optimize_general(problem)
    recomputed = float(
        (problem.outcomes.revenues - result.contract.payments.sum(axis=0))
        @ result.equilibrium.probs
    )
    assert abs(recomputed - result.principal_payoff) < 1e-10


# ---------------------------------------------------------------------------
# quadratic closed form
# ---------------------------------------------------------------------------


def test_two_clique_closed_form_structure():
    result = tp.optimize_quadratic_binary(clique(2), KAPPA_HALF)
    tau = result.contract.payments[:, 1]
    assert tau[0] == pytest.approx(tau[1], abs=1e-12)
    s_star = tp.total_share_root(1.0, 0.5, 2.0)
    assert tau.sum() == pytest.approx(s_star, abs=1e-8)
    assert result.balance_constant == pytest.approx(s_star / 2.0, abs=1e-8)
    assert result.method == "quadratic_closed_form"


def test_closed_form_agrees_with_general_optimizer():
    net = clique(2)
    closed = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    general = tp.optimize_general(quadratic_problem(net))
    assert abs(closed.principal_payoff - general.principal_payoff) < 1e-8
    assert np.max(np.abs(closed.contract.payments - general.contract.payments)) < 1e-5


def test_triangle_pendant_active_set_and_equal_shares():
    result = tp.optimize_quadratic_binary(triangle_pendant(), KAPPA_HALF)
    tau = result.contract.payments[:, 1]
    assert result.active_set == (0, 1, 2)
    assert tau[3] == 0.0
    assert tau[0] == pytest.approx(tau[1], abs=1e-12)
    assert tau[1] == pytest.approx(tau[2], abs=1e-12)


def test_balanced_neighborhood_levels():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[0, 2] = w[2, 0] = 0.8
    w[1, 2] = w[2, 1] = 0.6
    net = tp.Network(w)
    result = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    agents = np.array(result.active_set)
    sub = net.matrix[np.ix_(agents, agents)]
    equity_levels = sub @ result.contract.payments[agents, 1]
    action_levels = sub @ result.equilibrium.actions[agents]
    for levels in (equity_levels, action_levels):
        spread = (np.max(levels) - np.min(levels)) / abs(np.mean(levels))
        assert spread < 1e-8
    assert result.balance_constant == pytest.approx(float(np.mean(equity_levels)), rel=1e-9)
    assert result.neighborhood_action_constant == pytest.approx(float(np.mean(action_levels)), rel=1e-9)


def test_alpha_and_centrality_equalized_at_optimum():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[0, 2] = w[2, 0] = 0.8
    w[1, 2] = w[2, 1] = 0.6
    net = tp.Network(w)
    result = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    problem = quadratic_problem(net)
    report = tp.compute_balance_report(problem, result.contract, result.equilibrium)
    for vec in (report.alpha, report.centrality):
        assert (np.max(vec) - np.min(vec)) / abs(np.mean(vec)) < 1e-6


def test_payoff_weakly_increasing_in_edge_weights():
    rng = np.random.default_rng(8)
    w = np.zeros((4, 4))
    for i, j in [(0, 1), (0, 2), (1, 2), (2, 3)]:
        w[i, j] = w[j, i] = rng.uniform(0.4, 1.0)
    net = tp.Network(w)
    base = tp.optimize_quadratic_binary(net, KAPPA_HALF).principal_payoff
    for _ in range(20):
        i, j = rng.integers(0, 4, size=2)
        if i == j:
            continue
        bumped = net.with_edge(int(i), int(j), net.weights[i, j] + rng.uniform(0.01, 0.1))
        after = tp.optimize_quadratic_binary(bumped, KAPPA_HALF).principal_payoff
        assert after >= base - 1e-9


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), kappa=st.floats(0.1, 0.5), seed=st.integers(0, 2**32 - 1))
def test_linear_success_total_share_is_the_cubic_root(n, kappa, seed):
    # Weights in [0, 1] give a balance rate below 1, and with kappa <= 1/2 the
    # root's performance stays below the cap, so the root is the optimum.
    net = random_symmetric_network(np.random.default_rng(seed), n)
    p = tp.LinearCappedSuccess(kappa)
    result = tp.optimize_quadratic_binary(net, p)
    rate = tp.optimal_active_set(net, p)[0].share_rate
    root = tp.total_share_root(1.0, kappa, 1.0 / rate) if rate > 0.0 else 0.5
    assert result.contract.payments[:, 1].sum() == pytest.approx(root, abs=1e-12)
    assert result.method == "quadratic_closed_form"


def test_cap_reaching_share_root_falls_back_to_the_share_search():
    # The root of the share cubic would put performance past 1/kappa here, so
    # the optimum sits at the cap's kink and comes from the share search.
    p = tp.LinearCappedSuccess(0.9)
    result = tp.optimize_quadratic_binary(clique(2, 1.5), p)
    assert np.isfinite(result.principal_payoff)
    assert result.principal_payoff > 0.0
    assert result.equilibrium.performance < p.cap
    rate = tp.optimal_active_set(clique(2, 1.5), p)[0].share_rate
    root = tp.total_share_root(1.0, 0.9, 1.0 / rate)
    assert result.contract.payments[:, 1].sum() < root


def test_cap_kink_optimum_has_a_finite_kkt_residual():
    # s* + h lies past the cap, where the payoff is -inf; s* is an upper-bound
    # optimum and the backward difference rises into it.
    result = tp.optimize_quadratic_binary(clique(2, 1.5), tp.LinearCappedSuccess(0.9))
    assert np.isfinite(result.kkt_residual)
    assert result.kkt_residual <= 1e-6


def test_logistic_success_keeps_the_share_search():
    # Every positive share earns less than paying nothing, P(0).
    net = tp.Network([[0.0, 1.0, 0.8], [1.0, 0.0, 0.6], [0.8, 0.6, 0.0]])
    result = tp.optimize_quadratic_binary(net, tp.LogisticSuccess(0.7, -0.3))
    assert result.method == "quadratic_closed_form"
    assert result.principal_payoff == pytest.approx(0.6055324872205857, abs=1e-10)
    assert not np.any(result.contract.payments)
    assert result.active_set == ()
    assert result.kkt_residual == 0.0


def test_share_search_reaches_below_its_first_grid_point():
    # The optimal total, about 0.007, lies below the prescan's first point
    # (1/64); the search refines down towards 0 instead of stopping there.
    result = tp.closed_form_ces([1.0, 4.0], 0.5, 1.0, tp.LogisticSuccess(0.3, -1.0))
    assert result.contract.payments[:, 1].sum() < 1.0 / 64.0
    assert result.principal_payoff > 0.9714
    assert result.kkt_residual <= 1e-6


# ---------------------------------------------------------------------------
# active sets
# ---------------------------------------------------------------------------


def test_triangle_pendant_candidates():
    candidates = tp.optimal_active_set(triangle_pendant(), KAPPA_HALF)
    best = candidates[0]
    assert best.agents == (0, 1, 2)
    assert best.share_rate == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_disjoint_edges_pick_heavier_weight():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 0.5
    candidates = tp.optimal_active_set(tp.Network(w), KAPPA_HALF)
    assert candidates[0].agents == (0, 1)
    assert candidates[0].share_rate == pytest.approx(0.5, abs=1e-14)
    pair_rates = {c.agents: c.share_rate for c in candidates}
    assert pair_rates[(2, 3)] == pytest.approx(0.25, abs=1e-14)


def test_path_tie_breaks_to_smaller_lexicographic():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    candidates = tp.optimal_active_set(tp.Network(w), KAPPA_HALF)
    assert candidates[0].agents == (0, 1)
    assert all(len(c.agents) == 2 for c in candidates)
    assert all(c.share_rate == pytest.approx(0.5) for c in candidates)


def test_weighted_candidates_have_diameter_at_most_two():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.0, 1.0, size=(6, 6))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    w[w < 0.45] = 0.0
    net = tp.Network(w)
    for cand in tp.optimal_active_set(net, KAPPA_HALF):
        agents = list(cand.agents)
        sub = net.matrix[np.ix_(agents, agents)] > 0
        reach = sub | (sub @ sub)
        np.fill_diagonal(reach, True)
        assert np.all(reach)


def test_enumeration_cap():
    with pytest.raises(tp.ActiveSetError):
        tp.optimal_active_set(clique(5), KAPPA_HALF, cap=4)


# ---------------------------------------------------------------------------
# separable closed forms
# ---------------------------------------------------------------------------


CD_P = tp.PowerSuccess(5.0)
CES_P = tp.PowerSuccess(2.0)


def test_cobb_douglas_equal_shares_pay_equally():
    result = tp.closed_form_cobb_douglas([0.7, 0.7], CD_P)
    tau = result.contract.payments[:, 1]
    assert tau[0] == pytest.approx(tau[1], abs=1e-12)


def test_cobb_douglas_payments_proportional_to_shares():
    result = tp.closed_form_cobb_douglas([1.0, 2.0], CD_P)
    tau = result.contract.payments[:, 1]
    assert tau[1] / tau[0] == pytest.approx(2.0, abs=1e-8)
    assert result.max_balance_residual < 1e-5


def test_cobb_douglas_cross_check_against_general_optimizer():
    gamma = np.array([1.0, 2.0])
    closed = tp.closed_form_cobb_douglas(gamma, CD_P)
    problem = tp.Problem(
        n=2,
        production=tp.CobbDouglasProduction(gamma),
        outcomes=tp.BinaryOutcomeModel(CD_P),
        utilities=(tp.LinearUtility(),) * 2,
        costs=(tp.PowerCost(),) * 2,
    )
    general = tp.optimize_general(problem)
    assert abs(closed.principal_payoff - general.principal_payoff) < 1e-5


def test_cobb_douglas_pays_nothing_when_no_positive_share_beats_it():
    # No positive total share has a stable interior equilibrium here; paying
    # nothing leaves the dormant profile, worth P(0).
    result = tp.closed_form_cobb_douglas([1.0, 2.0], tp.LogisticSuccess(0.7, -0.3))
    assert result.principal_payoff == pytest.approx(0.6055324872205857, abs=1e-12)
    assert not np.any(result.contract.payments)
    assert np.all(result.equilibrium.actions == 0.0)
    assert result.active_set == ()
    assert result.kkt_residual == 0.0
    assert result.max_balance_residual is None


def test_general_optimizer_pays_nothing_at_a_dormant_cobb_douglas_optimum():
    # At the dormant profile the Cobb-Douglas gradient is singular, while
    # each agent's marginal product there is zero.
    success = tp.LogisticSuccess(0.7, -0.3)
    problem = tp.Problem(
        n=2,
        production=tp.CobbDouglasProduction([1.0, 2.0]),
        outcomes=tp.BinaryOutcomeModel(success),
        utilities=(tp.LinearUtility(),) * 2,
        costs=(tp.PowerCost(),) * 2,
    )
    general = tp.optimize_general(problem)
    closed = tp.closed_form_cobb_douglas([1.0, 2.0], success)
    assert general.principal_payoff >= 0.6055324872205857 - 1e-12
    assert general.principal_payoff == pytest.approx(closed.principal_payoff, abs=1e-12)


def test_dormant_payoff_gradient_keeps_a_strict_corner_agent_pinned():
    # Agent 0 is paid only at failure: a small success payment leaves its
    # payment sensitivity negative, so it stays idle and the payoff moves
    # only through the payment itself.
    problem = quadratic_problem(clique(2))
    payments = np.array([[0.3, 0.0], [0.0, 0.0]])
    contract = tp.Contract(payments)
    eq = tp.solve_equilibrium_general(problem, contract, tol=1e-12)
    assert not np.any(eq.actions)
    # Only the unpaid agent responds, and only to a success payment.
    assert np.array_equal(tp.marginal_performance(problem, contract, eq), [[0.0, 0.0], [0.0, 0.5]])
    grad = contract_opt._payoff_gradient(problem, contract, eq)
    base = contract_opt._principal_payoff(problem, contract, eq.probs)
    h = 1e-6
    for s in range(2):
        up = payments.copy()
        up[0, s] += h
        eq_up = tp.solve_equilibrium_general(problem, tp.Contract(up), init=eq.actions, tol=1e-12)
        fd = (contract_opt._principal_payoff(problem, tp.Contract(up), eq_up.probs) - base) / h
        assert abs(grad[0, s] - fd) <= 1e-5


def test_cobb_douglas_guard_rejects_degenerate_total_share():
    with pytest.raises(tp.ModelError):
        tp.closed_form_cobb_douglas([1.0, 1.0], CD_P)


def test_ces_payments_follow_substitution_exponent():
    result = tp.closed_form_ces([1.0, 4.0], 0.5, 1.0, CES_P)
    tau = result.contract.payments[:, 1]
    assert tau[1] / tau[0] == pytest.approx(16.0, abs=1e-6)
    assert result.max_balance_residual < 1e-5


def test_ces_equal_shares_pay_equally():
    result = tp.closed_form_ces([2.0, 2.0, 2.0], 0.3, 1.0, CES_P)
    tau = result.contract.payments[:, 1]
    assert np.max(tau) - np.min(tau) < 1e-12


def test_ces_strong_complements_approach_equal_pay():
    result = tp.closed_form_ces([1.0, 4.0], -20.0, 1.0, CES_P)
    tau = result.contract.payments[:, 1]
    assert tau[1] / tau[0] == pytest.approx(4.0 ** (1.0 / 21.0), abs=1e-10)


def test_ces_rejects_rho_at_least_one():
    with pytest.raises(tp.ModelError):
        tp.closed_form_ces([1.0, 2.0], 1.5, 1.0, CES_P)


def test_scan_roots_matches_pointwise_scan():
    # Reference: the scalar loop the vectorised scan replaced.
    def f(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(y > 50.0, np.inf, (y - 0.3) * (y - 2.0) * (y - 7.0) / np.log1p(y))

    lo, hi, points = 1e-3, 100.0, 257
    xs = np.geomspace(lo, hi, points)
    vals = [float(f(x)) for x in xs]
    expected = []
    for k in range(points - 1):
        a, b = vals[k], vals[k + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0:
            expected.append(float(xs[k]))
        elif a * b < 0.0:
            expected.append(float(brentq(f, xs[k], xs[k + 1], xtol=1e-15, rtol=1e-15)))
    roots = _scan_roots(f, lo, hi, points)
    assert roots == expected
    assert roots == pytest.approx([0.3, 2.0, 7.0], abs=1e-12)


# ---------------------------------------------------------------------------
# total share cubic
# ---------------------------------------------------------------------------


def test_total_share_root_example():
    s = tp.total_share_root(1.0, 0.5, 2.0)
    assert s == pytest.approx(0.5551, abs=1e-3)
    assert abs(share_cubic(s, 1.0, 0.5, 2.0)) < 1e-10
    assert 0.5 < s < 1.0


def test_total_share_root_linear_limit():
    assert tp.total_share_root(1e-9, 0.5, 2.0) == pytest.approx(0.5, abs=1e-9)


def test_total_share_root_increasing_in_complementarity():
    roots = [tp.total_share_root(b, 0.5, 2.0) for b in np.linspace(0.1, 1.5, 8)]
    assert np.all(np.diff(roots) > 0.0)


def test_total_share_root_guard():
    with pytest.raises(tp.ModelError):
        tp.total_share_root(5.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# structural invariants at optimizer outputs
# ---------------------------------------------------------------------------


def test_brute_force_oracle_equivalence_small():
    for net in (tp.Network([[0.0]]), clique(2)):
        problem = quadratic_problem(net)
        opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
        grid_contract, grid_payoff = two_stage_oracle(problem, 0.05, 0.8, 0.01, 0.05)
        assert opt.principal_payoff >= grid_payoff - 1e-3
        assert np.max(np.abs(grid_contract.payments - opt.contract.payments)) <= 0.01 + 1e-12


def test_risk_neutral_concentration():
    problem = softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0],
                               clique(2), tp.LinearUtility())
    result = tp.optimize_general(problem)
    expected_pay = result.contract.payments.sum(axis=0) * result.equilibrium.probs
    assert expected_pay.max() / expected_pay.sum() >= 0.999


def test_inada_activity_pattern():
    problem = softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0],
                               clique(2), tp.SqrtUtility())
    result = tp.optimize_general(problem)
    _, dprobs, _ = tp.outcome_probs(problem.outcomes, result.equilibrium.performance)
    for i in range(2):
        for s in range(3):
            if dprobs[s] > 0:
                assert result.contract.payments[i, s] > 0.0
            else:
                assert result.contract.payments[i, s] == 0.0



def test_softmax_general_optimize_bounds_outcome_derivative_calls(monkeypatch):
    # Batched first-order conditions: one derivative call per probe scan and
    # per Newton step.  The scalar solver made about 102,000 calls here.
    calls = [0]
    probs_derivs = tp.SoftmaxOutcomeModel.probs_derivs

    def counted(self, y):
        calls[0] += 1
        return probs_derivs(self, y)

    monkeypatch.setattr(tp.SoftmaxOutcomeModel, "probs_derivs", counted)
    problem = softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0],
                               clique(2), tp.SqrtUtility())
    tp.optimize_general(problem)
    assert 0 < calls[0] <= 25_000


# ---------------------------------------------------------------------------
# equilibria that fail the general solver's global check
# ---------------------------------------------------------------------------


def _failing_check_when(monkeypatch, condition):
    """Make the general solver report a failed global check whenever
    ``condition(contract)`` holds; returns the list of equilibria so marked."""
    solve = contract_opt.solve_equilibrium_general
    marked = []

    def solve_marked(problem, contract, *args, **kwargs):
        eq = solve(problem, contract, *args, **kwargs)
        if condition(contract):
            eq = dataclasses.replace(eq, global_check_passed=False)
            marked.append(eq)
        return eq

    monkeypatch.setattr(contract_opt, "solve_equilibrium_general", solve_marked)
    return marked


def _softmax_linear():
    return softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0], clique(2), tp.LinearUtility())


def test_selected_equilibrium_skips_a_failing_global_check(monkeypatch):
    problem = _softmax_linear()
    contract = tp.Contract(np.tile([0.0, 0.1, 0.2], (2, 1)))
    marked = _failing_check_when(monkeypatch, lambda c: len(marked) == 0)
    eq = contract_opt._solve_eq_selected(problem, contract)
    assert len(marked) == 1
    assert eq is not marked[0] and eq.global_check_passed
    _failing_check_when(monkeypatch, lambda c: True)
    with pytest.raises(tp.EquilibriumError, match="global"):
        contract_opt._solve_eq_selected(problem, contract)


@pytest.mark.parametrize("parametrization", ["payments", "shares"])
def test_line_search_rejects_trials_that_fail_the_global_check(monkeypatch, parametrization):
    problem = _softmax_linear()
    if parametrization == "payments":
        x0, var = np.tile([0.0, 0.02, 0.03], (2, 1)), contract_opt._PAYMENTS
    else:
        x0, var = np.array([0.01, 0.01]), equity._shares(problem)
    limit = float(var.contract(x0).payments.sum())
    marked = _failing_check_when(monkeypatch, lambda c: float(c.payments.sum()) > limit)
    x, eq, _, _, _ = contract_opt._ascend(problem, x0, tp.OptimizerOptions(max_iters=20), var)
    assert marked  # the ascent tried to pay more, and those trials failed the check
    assert float(var.contract(x).payments.sum()) <= limit
    assert eq.global_check_passed


def test_optimizer_accepts_no_equilibrium_that_fails_the_global_check(monkeypatch):
    _failing_check_when(monkeypatch, lambda c: True)
    with pytest.raises(tp.OptimizationError):
        tp.optimize_general(_softmax_linear(), starts=2)
