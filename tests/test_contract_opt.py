import dataclasses
import tracemalloc
import types

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import teampay as tp
from teampay import contract_opt, equilibrium, equity
from teampay.contract_opt import share_cubic

from helpers import (
    KAPPA_HALF,
    clique,
    quadratic_problem,
    random_symmetric_network,
    reference_active_sets,
    softmax_instance,
    star,
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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.6),
       a=st.integers(0, 6), b=st.integers(0, 5), bump=st.floats(0.001, 0.5))
def test_payoff_weakly_increasing_in_each_edge_weight_property(n, seed, zeros, a, b, bump):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) >= zeros), 1)
    net = tp.Network(w + w.T)
    i = a % n
    j = (i + 1 + b % (n - 1)) % n
    bumped = net.with_edge(i, j, net.weights[i, j] + bump)
    before = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    after = tp.optimize_quadratic_binary(bumped, KAPPA_HALF)
    # Below the cap of LinearCappedSuccess(0.5), at performance 2.
    assume(max(before.equilibrium.performance, after.equilibrium.performance) < 2.0 * (1.0 - 1e-6))
    assert after.principal_payoff >= before.principal_payoff - 1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), kappa=st.floats(0.1, 0.5), seed=st.integers(0, 2**32 - 1))
def test_linear_success_total_share_is_the_cubic_root(n, kappa, seed):
    # Weights in [0, 1] give a balance rate below 1, and with kappa <= 1/2 the
    # root's performance stays below the cap, so the root is the optimum.
    net = random_symmetric_network(np.random.default_rng(seed), n)
    p = tp.LinearCappedSuccess(kappa)
    result = tp.optimize_quadratic_binary(net, p)
    rate = tp.optimal_active_set(net)[0].share_rate
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
    rate = tp.optimal_active_set(clique(2, 1.5))[0].share_rate
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
    # The optimal total, about 0.007, lies below 1/64, the first point of a
    # 64-point share grid; the search over performance reaches it.
    result = tp.closed_form_ces([1.0, 4.0], 0.5, 1.0, tp.LogisticSuccess(0.3, -1.0))
    assert result.contract.payments[:, 1].sum() < 1.0 / 64.0
    assert result.principal_payoff > 0.9714
    assert result.kkt_residual <= 1e-6


def test_performance_search_resolves_an_interior_maximizer_to_its_zoom_tolerance():
    # A kinked payoff has no rounding plateau at its maximizer, so the final
    # bracket holds 0.3; it is at most 1e-11 of the prescan bracket's upper
    # end (0.34), and its midpoint lies within half that width of 0.3.
    y = contract_opt._performance_search(lambda y: -np.abs(y - 0.3), 1.0, -np.inf)
    assert abs(y - 0.3) <= 0.5e-11 * 0.34


@pytest.mark.parametrize("net, p", [
    (clique(2, 1.5), tp.LinearCappedSuccess(0.9)),
    (tp.Network([[0.0, 1.0, 0.8], [1.0, 0.0, 0.6], [0.8, 0.6, 0.0]]), tp.LinearCappedSuccess(2.0)),
], ids=["clique", "triangle"])
def test_ceiling_optimum_lands_just_below_the_performance_ceiling(net, p):
    # The share cubic's root would pass the cap, so the search's optimum sits
    # at the ceiling.  The search stops short of it, where the equilibrium
    # solve of its contract still succeeds.
    result = tp.optimize_quadratic_binary(net, p)
    ceiling = contract_opt._performance_ceiling(p)
    assert ceiling * (1.0 - 1e-11) <= result.equilibrium.performance < ceiling


# ---------------------------------------------------------------------------
# active sets
# ---------------------------------------------------------------------------


def test_triangle_pendant_candidates():
    candidates = tp.optimal_active_set(triangle_pendant())
    best = candidates[0]
    assert best.agents == (0, 1, 2)
    assert best.share_rate == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_disjoint_edges_pick_heavier_weight():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 0.5
    candidates = tp.optimal_active_set(tp.Network(w))
    assert candidates[0].agents == (0, 1)
    assert candidates[0].share_rate == pytest.approx(0.5, abs=1e-14)
    pair_rates = {c.agents: c.share_rate for c in candidates}
    assert pair_rates[(2, 3)] == pytest.approx(0.25, abs=1e-14)


def test_path_tie_breaks_to_smaller_lexicographic():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    candidates = tp.optimal_active_set(tp.Network(w))
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
    for cand in tp.optimal_active_set(net):
        agents = list(cand.agents)
        sub = net.matrix[np.ix_(agents, agents)] > 0
        reach = sub | (sub @ sub)
        np.fill_diagonal(reach, True)
        assert np.all(reach)


def test_enumeration_cap():
    with pytest.raises(tp.ActiveSetError):
        tp.optimal_active_set(clique(5, 0.5), cap=4)


def _assert_same_candidates(got, expected):
    assert [c.agents for c in got] == [c.agents for c in expected]
    for a, b in zip(got, expected):
        assert type(a.share_rate) is type(b.share_rate) and a.share_rate == b.share_rate, a.agents
        assert a.direction.tobytes() == b.direction.tobytes(), a.agents


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.8), twins=st.booleans())
def test_batched_active_sets_match_the_subset_loop(n, seed, zeros, twins):
    # Zero weights make some subsets disconnected or of diameter > 2; twin
    # agents (equal rows, no link between them) make every subset holding
    # both singular.
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.05, 1.0, (n, n)) * (rng.uniform(size=(n, n)) >= zeros), 1)
    w = w + w.T
    if twins and n >= 3:
        w[2, :] = w[1, :]
        w[:, 2] = w[:, 1]
    net = tp.Network(w)
    _assert_same_candidates(tp.optimal_active_set(net), reference_active_sets(net))


@pytest.mark.parametrize("net", [
    pytest.param(star(7, 0.7), id="star"),
    # C(14, 7) = 3432 subsets: the middle size classes span several batches.
    pytest.param(random_symmetric_network(np.random.default_rng(14), 14), id="n14"),
])
def test_batched_active_sets_match_the_subset_loop_pinned(net):
    _assert_same_candidates(tp.optimal_active_set(net), reference_active_sets(net))


def test_batched_enumeration_memory_is_bounded():
    net = random_symmetric_network(np.random.default_rng(16), 16)
    tracemalloc.start()
    try:
        tp.optimal_active_set(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


@settings(max_examples=25, deadline=None)
@given(n=st.integers(17, 40), edge=st.floats(0.1, 0.8), seed=st.integers(0, 2**32 - 1))
def test_maximum_cliques_match_networkx(n, edge, seed):
    w = np.triu((np.random.default_rng(seed).uniform(size=(n, n)) < edge).astype(float), 1)
    w = w + w.T
    cliques = [tuple(sorted(int(i) for i in c)) for c in nx.find_cliques(nx.from_numpy_array(w))]
    omega = max(len(c) for c in cliques)
    candidates = tp.optimal_active_set(tp.Network(w))
    assert [c.agents for c in candidates] == sorted(c for c in cliques if len(c) == omega)
    assert all(c.share_rate == (omega - 1.0) / omega for c in candidates)


def test_clique_search_stops_at_its_node_budget():
    w = np.triu((np.random.default_rng(0).uniform(size=(30, 30)) < 0.9).astype(float), 1)
    with pytest.raises(tp.ActiveSetError, match="budget of 64 branch-and-bound nodes"):
        tp.optimal_active_set(tp.Network(w + w.T), cap=6)


def test_fallback_warning_names_the_bound_that_stopped_the_search(monkeypatch):
    # The fallback result carries its own balance certificate, so it comes back unchanged.
    fallback = types.SimpleNamespace(method="general")
    monkeypatch.setattr(contract_opt, "optimize_general", lambda problem: fallback)
    net = random_symmetric_network(np.random.default_rng(0), 17)
    with pytest.warns(UserWarning, match=r"no usable active set \(active-set enumeration of a weighted "
                                         r"network capped at 16 agents"):
        assert tp.optimize_quadratic_binary(net, KAPPA_HALF) is fallback


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
    # No positive total share has a stable interior equilibrium here, under
    # Cobb-Douglas and under CES; paying nothing leaves the dormant profile,
    # worth P(0).  No balance report exists there: no agent is active, and the
    # CES gradient is undefined at zero actions.
    success = tp.LogisticSuccess(0.7, -0.3)
    for result in (tp.closed_form_cobb_douglas([1.0, 2.0], success),
                   tp.closed_form_ces([1.0, 4.0], -1.0, 1.0, success)):
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
    grad = contract_opt._payoff_gradient(contract_opt._FirstOrderObjects(problem, contract, eq), eq)
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


def test_ces_optimum_at_the_cap_reaches_the_performance_ceiling():
    # The payoff rises all the way to the cap, so the optimum sits at the
    # ceiling that the quadratic closed form shares.
    p = tp.LinearCappedSuccess(2.0)
    result = tp.closed_form_ces([1.0, 4.0], 0.5, 1.0, p)
    assert result.equilibrium.performance == pytest.approx(contract_opt._performance_ceiling(p), rel=1e-11)
    assert result.equilibrium.performance < p.cap


def test_cobb_douglas_kkt_residual_keeps_its_sign_where_the_share_falls():
    # Factor shares summing past 2 make the share fall as performance rises.
    # The optimum sits at the cap, with residual +0.0; halfway there the
    # payoff still rises, a violation the residual reports as positive.
    p = tp.LinearCappedSuccess(5.0)
    gamma = np.array([1.5, 1.0])
    result = tp.closed_form_cobb_douglas(gamma, p)
    assert result.kkt_residual == 0.0 and not np.signbit(result.kkt_residual)
    share, _ = contract_opt._separable_curve(tp.CobbDouglasProduction(gamma), p, gamma / gamma.sum())
    payoff = contract_opt._payoff_along(share, p, contract_opt._performance_ceiling(p))
    y = 0.5 * result.equilibrium.performance
    assert share(y) > share(result.equilibrium.performance)
    assert contract_opt._share_kkt(payoff, y, share, float(payoff(y))) > 1.0


@pytest.mark.parametrize("solve", [
    lambda: tp.closed_form_cobb_douglas([1.0, 2.0], CD_P),
    lambda: tp.closed_form_ces([1.0, 4.0], 0.5, 1.0, CES_P),
], ids=["cobb_douglas", "ces"])
def test_separable_closed_form_evaluates_its_payoff_at_most_12_times(solve, monkeypatch):
    # One prescan, at most 8 zooms, the optimum against paying nothing, and
    # the two finite differences of the optimality residual.
    calls = [0]
    along = contract_opt._payoff_along

    def counting(*args):
        payoff = along(*args)

        def counted(y):
            calls[0] += 1
            return payoff(y)
        return counted

    monkeypatch.setattr(contract_opt, "_payoff_along", counting)
    solve()
    assert calls[0] <= 12


def test_ces_rejects_rho_at_least_one():
    with pytest.raises(tp.ModelError):
        tp.closed_form_ces([1.0, 2.0], 1.5, 1.0, CES_P)


def _separable_instance(family, gamma, rho, returns):
    """Production and payment direction of a separable closed form."""
    gamma = np.asarray(gamma, dtype=float)
    if family == "cobb_douglas":
        return tp.CobbDouglasProduction(gamma), gamma
    return tp.CESProduction(gamma, rho, returns), gamma ** (1.0 / (1.0 - rho))


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["cobb_douglas", "ces"]),
    gamma=st.lists(st.floats(0.3, 2.0), min_size=2, max_size=3),
    rho=st.sampled_from([-2.0, -0.5, 0.3, 0.7]),
    returns=st.floats(0.5, 1.5),
    p=st.sampled_from([tp.PowerSuccess(2.0), tp.PowerSuccess(5.0), tp.LogisticSuccess(0.5, -0.2)]),
    y=st.floats(0.05, 2.0),
)
def test_separable_share_curve_reproduces_its_performance(family, gamma, rho, returns, p, y):
    # Paying t(y) * d_hat puts a stable equilibrium at performance y: the
    # general best-response solver, started at the curve's profile, returns y.
    production, direction = _separable_instance(family, gamma, rho, returns)
    d_hat = direction / direction.sum()
    share, actions_at = contract_opt._separable_curve(production, p, d_hat)
    t = float(share(y))
    actions = actions_at(y, t)
    assume(np.isfinite(t) and 0.0 < t < 10.0)
    assume(contract_opt._second_order_ok(production, p, y, t * d_hat, actions))
    n = d_hat.size
    problem = tp.Problem(n, production, tp.BinaryOutcomeModel(p), (tp.LinearUtility(),) * n, (tp.PowerCost(),) * n)
    eq = tp.solve_equilibrium_general(problem, tp.Contract(np.column_stack([np.zeros(n), t * d_hat])),
                                      init=actions, tol=1e-12)
    assert eq.performance == pytest.approx(y, rel=1e-9)


def test_share_searches_solve_no_equilibrium_per_candidate(monkeypatch):
    # The search runs over performance, where the share is explicit: the
    # quadratic closed form solves one performance fixed point (the final
    # equilibrium), and the separable ones make no root solve before their
    # final best-response equilibrium.
    fixed_points, roots, general = [0], [0], [0]

    def counting(counter, fn):
        def counted(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(equilibrium, "_performance_fixed_point",
                        counting(fixed_points, equilibrium._performance_fixed_point))
    monkeypatch.setattr(contract_opt, "brentq", counting(roots, contract_opt.brentq))
    monkeypatch.setattr(contract_opt, "solve_equilibrium_general",
                        counting(general, contract_opt.solve_equilibrium_general))
    triangle = tp.Network([[0.0, 1.0, 0.8], [1.0, 0.0, 0.6], [0.8, 0.6, 0.0]])
    tp.optimize_quadratic_binary(triangle, tp.LogisticSuccess(0.5, -0.2))
    assert fixed_points[0] <= 1
    roots[0] = 0
    tp.closed_form_cobb_douglas([1.0, 2.0], CD_P)
    tp.closed_form_ces([1.0, 4.0], 0.5, 1.0, CES_P)
    assert roots[0] == 0
    assert general[0] == 2


def _best_on_share_grid(payoff_at, points: int, descending: bool = False) -> float:
    grid = np.linspace(0.0, 1.0, points)
    best = -np.inf
    for s in grid[::-1] if descending else grid:
        try:
            best = max(best, payoff_at(s))
        except (tp.EquilibriumError, tp.CapExceededError):
            continue
    return best


@pytest.mark.parametrize("net, p", [
    (tp.Network([[0.0, 1.0, 0.8], [1.0, 0.0, 0.6], [0.8, 0.6, 0.0]]), tp.LogisticSuccess(0.5, -0.2)),
    (tp.Network([[0.0, 1.0, 0.8], [1.0, 0.0, 0.6], [0.8, 0.6, 0.0]]), tp.PowerSuccess(2.0)),
    (clique(2, 1.5), tp.LinearCappedSuccess(0.9)),
], ids=["triangle-logistic", "triangle-power", "clique-cap-kink"])
def test_quadratic_closed_form_beats_a_dense_share_grid(net, p):
    # The grid pays each total share along the optimum's balanced direction
    # and solves the equilibrium there, without the share curve.
    result = tp.optimize_quadratic_binary(net, p)
    candidate = tp.optimal_active_set(net)[0]
    agents = list(candidate.agents)

    def payoff_at(s):
        tau = np.zeros(net.n)
        tau[agents] = s * candidate.direction
        eq = tp.solve_equilibrium_quadratic_binary(net, tau, p)
        return (1.0 - s) * eq.probs[1]

    assert result.principal_payoff >= _best_on_share_grid(payoff_at, 2001) - 1e-9


@pytest.mark.parametrize("family, gamma", [("cobb_douglas", [1.0, 2.0]), ("ces", [1.0, 4.0])])
def test_separable_closed_form_beats_a_dense_share_grid(family, gamma, monkeypatch):
    # The grid's equilibria come from the general best-response solver, not
    # from the share curve.  It walks down from the largest total, each solve
    # started where the last two interior solutions extrapolate to, which
    # follows the high-performance branch where several equilibria coexist.
    p = CD_P if family == "cobb_douglas" else CES_P
    production, direction = _separable_instance(family, gamma, 0.5, 1.0)
    result = (tp.closed_form_cobb_douglas(gamma, p) if family == "cobb_douglas"
              else tp.closed_form_ces(gamma, 0.5, 1.0, p))
    d_hat = direction / direction.sum()
    problem = tp.Problem(2, production, tp.BinaryOutcomeModel(p), (tp.LinearUtility(),) * 2, (tp.PowerCost(),) * 2)
    path = [np.ones(2)]  # the first start, then every interior solution
    # Undamped sweeps reach the same grid best three times faster.
    monkeypatch.setattr(equilibrium, "_DAMPING", 1.0)

    def payoff_at(t):
        contract = tp.Contract(np.column_stack([np.zeros(2), t * d_hat]))
        start = path[-1] if len(path) < 3 else 2.0 * path[-1] - path[-2]
        eq = tp.solve_equilibrium_general(problem, contract, init=start)
        if np.all(eq.actions > 0.0):
            path.append(eq.actions)
        return (1.0 - t) * eq.probs[1]

    assert result.principal_payoff >= _best_on_share_grid(payoff_at, 201, descending=True) - 1e-9


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


def test_total_share_root_acts_on_an_unconverged_root(monkeypatch):
    def unconverged(f, a, b, *, xtol, maxiter):
        root, calls, _ = equilibrium.brentq(f, a, b, xtol=xtol, maxiter=maxiter)
        return root, calls, False

    monkeypatch.setattr(contract_opt, "brentq", unconverged)
    with pytest.raises(tp.ModelError, match=f"budget of {contract_opt._SHARE_ROOT_STEPS} Brent steps"):
        tp.total_share_root(1.0, 0.5, 2.0)


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
    _, dprobs, _ = problem.outcomes.probs_derivs(result.equilibrium.performance)
    for i in range(2):
        for s in range(3):
            if dprobs[s] > 0:
                assert result.contract.payments[i, s] > 0.0
            else:
                assert result.contract.payments[i, s] == 0.0



def _softmax_sqrt_optimize_derivative_calls(monkeypatch) -> int:
    """Outcome-derivative calls of ``optimize_general`` on the softmax/sqrt 2-clique."""
    calls = [0]
    probs_derivs = tp.SoftmaxOutcomeModel.probs_derivs

    def counted(self, y):
        calls[0] += 1
        return probs_derivs(self, y)

    monkeypatch.setattr(tp.SoftmaxOutcomeModel, "probs_derivs", counted)
    problem = softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0],
                               clique(2), tp.SqrtUtility())
    tp.optimize_general(problem)
    return calls[0]


def test_softmax_general_optimize_bounds_outcome_derivative_calls(monkeypatch):
    # Batched first-order conditions: one derivative call per probe scan and
    # per Newton step.  The scalar solver made about 102,000 calls here.
    assert 0 < _softmax_sqrt_optimize_derivative_calls(monkeypatch) <= 25_000


def test_softmax_general_optimize_solves_trials_from_the_tangent_prediction(monkeypatch):
    # Each line-search trial starts Newton at the tangent prediction and is
    # confirmed by one best-response pass, with no sweep: 1,080 derivative
    # calls.  The pass evaluates each agent once, over the probes and the
    # candidate's own action, and that evaluation is the agent's residual,
    # its bracket scan and its bracket's first Newton iterate.  With separate
    # evaluations for the three the count was 1,745; trials that started at
    # the old equilibrium and swept once before the Newton step made 4,238.
    assert _softmax_sqrt_optimize_derivative_calls(monkeypatch) <= 1_190


def test_fast_path_trials_compute_no_tangent_prediction(monkeypatch):
    # The quadratic-binary fast path takes no start profile, so the gradient
    # optimizer's trials there must not pay for a prediction (37 of them here
    # when every trial computed one).
    calls = []
    monkeypatch.setattr(contract_opt._FirstOrderObjects, "tangent_profile",
                        lambda self, payments: calls.append(payments))
    result = tp.optimize_general(quadratic_problem(clique(3)))
    assert result.kkt_residual <= 1e-8
    assert not calls


def test_softmax_sqrt_ascents_converge_at_a_tight_tolerance(monkeypatch):
    # Barzilai-Borwein projected ascent alone reaches a KKT residual of 1e-12,
    # in payments and in equity shares.
    problem = softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0],
                               clique(2), tp.SqrtUtility())
    monkeypatch.setattr(contract_opt, "_KKT_TOL", 1e-12)
    assert tp.optimize_general(problem).kkt_residual <= 1e-12
    assert tp.optimize_equity(problem, compare_unrestricted=False).kkt_residual <= 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.6),
       outcomes=st.sampled_from([KAPPA_HALF, tp.LinearCappedSuccess(0.3), tp.LogisticSuccess(0.6, -0.1),
                                 "softmax_sqrt"]))
# Both starts stall in the line search at KKT 1.1e-8 and 4.6e-8, where the
# payoff is flat to rounding; a stall there is the optimum, not a failure.
@example(n=4, seed=4, zeros=0.15625, outcomes="softmax_sqrt")
def test_optimizer_outputs_are_within_their_residual_tolerances(n, seed, zeros, outcomes):
    # Every optimizer output meets its KKT tolerance and, where a balance
    # report exists, its balance tolerance: the closed form (on binary
    # outcomes), the gradient optimizer and equity pay.
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) >= zeros), 1)
    net = tp.Network(w + w.T)
    results = []
    if outcomes == "softmax_sqrt":
        problem = softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0], net, tp.SqrtUtility())
    else:
        problem = quadratic_problem(net, outcomes)
        closed = tp.optimize_quadratic_binary(net, outcomes)
        results.append((closed.kkt_residual, closed.max_balance_residual))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contract_opt, "_STARTS", 2)
        general = tp.optimize_general(problem)
        equity_pay = tp.optimize_equity(problem, compare_unrestricted=False)
    results.append((general.kkt_residual, general.max_balance_residual))
    results.append((equity_pay.kkt_residual, equity_pay.balance_residual))
    for kkt, balance in results:
        assert kkt <= 1e-6
        assert balance is None or balance < 1e-5


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
    monkeypatch.setattr(contract_opt, "_ASCENT_STEPS", 20)
    x, eq, _, _, _ = contract_opt._ascend(problem, x0, var)
    assert marked  # the ascent tried to pay more, and those trials failed the check
    assert float(var.contract(x).payments.sum()) <= limit
    assert eq.global_check_passed


def test_optimizer_accepts_no_equilibrium_that_fails_the_global_check(monkeypatch):
    _failing_check_when(monkeypatch, lambda c: True)
    monkeypatch.setattr(contract_opt, "_STARTS", 2)
    with pytest.raises(tp.OptimizationError):
        tp.optimize_general(_softmax_linear())
