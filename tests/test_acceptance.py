"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.
"""

import itertools

import numpy as np
import pytest

import teampay as tp
from teampay.contract_opt import share_cubic

from helpers import (
    KAPPA_HALF,
    clique,
    gradient_fd_battery,
    quadratic_problem,
    softmax_instance,
    solver_oracle_agreement,
    staged_oracle,
    success_contract,
)


def report(number: int, message: str):
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def asym_triangle() -> tp.Network:
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[0, 2] = w[2, 0] = 0.8
    w[1, 2] = w[2, 1] = 0.6
    return tp.Network(w)


def figure_network(g23: float = 0.0) -> tp.Network:
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[0, 2] = w[2, 0] = 0.8
    w[1, 2] = w[2, 1] = g23
    return tp.Network(w)


THREE_OUTCOME = dict(theta=[0.0, 2.0, 2.5], shift=[1.5, 0.0, -1.0], revenues=[0.0, 2.0, 3.0])


@pytest.fixture(scope="module")
def optimizer_outputs():
    """Shared battery of optimizer runs reused by several criteria."""
    runs = {}

    net2 = clique(2)
    runs["clique2"] = (quadratic_problem(net2), tp.optimize_quadratic_binary(net2, KAPPA_HALF))

    net3 = asym_triangle()
    runs["triangle"] = (quadratic_problem(net3), tp.optimize_quadratic_binary(net3, KAPPA_HALF))

    gamma_cd = np.array([1.0, 2.0])
    cd_p = tp.PowerSuccess(5.0)
    runs["cobb_douglas"] = (
        tp.Problem(2, tp.CobbDouglasProduction(gamma_cd), tp.BinaryOutcomeModel(cd_p),
                   (tp.LinearUtility(),) * 2, (tp.PowerCost(),) * 2),
        tp.closed_form_cobb_douglas(gamma_cd, cd_p),
    )

    gamma_ces = np.array([1.0, 4.0])
    ces_p = tp.PowerSuccess(2.0)
    runs["ces"] = (
        tp.Problem(2, tp.CESProduction(gamma_ces, 0.5, 1.0), tp.BinaryOutcomeModel(ces_p),
                   (tp.LinearUtility(),) * 2, (tp.PowerCost(),) * 2),
        tp.closed_form_ces(gamma_ces, 0.5, 1.0, ces_p),
    )

    linear3 = softmax_instance(**THREE_OUTCOME, network=clique(2), utility=tp.LinearUtility())
    runs["softmax_linear"] = (linear3, tp.optimize_general(linear3))

    sqrt3 = softmax_instance(**THREE_OUTCOME, network=clique(2), utility=tp.SqrtUtility())
    runs["softmax_sqrt"] = (sqrt3, tp.optimize_general(sqrt3))

    hetero = tp.Problem(
        2,
        tp.QuadraticNetworkProduction(clique(2), np.array([1.2, 1.0])),
        tp.BinaryOutcomeModel(KAPPA_HALF),
        (tp.LinearUtility(),) * 2,
        (tp.PowerCost(),) * 2,
    )
    runs["heterogeneous"] = (hetero, tp.optimize_general(hetero))

    return runs


def test_criterion_01_equilibrium_oracle_equivalence():
    worst = solver_oracle_agreement(200, seed=0)
    eq = tp.solve_equilibrium_quadratic_binary(clique(2), [0.25, 0.25], KAPPA_HALF)
    assert np.max(np.abs(eq.actions - 1 / 7)) < 1e-10
    assert eq.performance == pytest.approx(15 / 49, abs=1e-10)
    assert worst < 1e-8
    report(1, f"specialized solver vs grid oracle on 200 instances, worst gap {worst:.2e}")


def test_criterion_02_performance_gradient():
    worst = gradient_fd_battery(100, seed=1)
    # Single-agent closed case: the gradient equals the success slope.
    problem = quadratic_problem(tp.Network([[0.0]]))
    contract = success_contract([0.4])
    eq = tp.solve_equilibrium_general(problem, contract, tol=1e-12)
    grad = tp.marginal_performance(problem, contract, eq)
    assert abs(grad[0, 1] - 0.5) < 1e-7
    assert worst < 1e-5
    report(2, f"analytic dY/dtau vs finite differences on 100 instances, worst rel err {worst:.2e}")


def test_criterion_03_balance_at_optimizer_outputs(optimizer_outputs):
    worst_resid = 0.0
    worst_prop = 0.0
    for name, (problem, result) in optimizer_outputs.items():
        rep = tp.compute_balance_report(problem, result.contract, result.equilibrium)
        resid = rep.max_relative_residual()
        worst_resid = max(worst_resid, resid)
        assert resid < 1e-5, (name, resid)
        probs, dprobs, _ = problem.outcomes.probs_derivs(result.equilibrium.performance)
        ratios = [
            rep.lambda_by_outcome[s] * dprobs[s] / probs[s]
            for s in range(problem.n_outcomes)
            if np.isfinite(rep.lambda_by_outcome[s])
        ]
        if len(ratios) >= 2:
            spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
            worst_prop = max(worst_prop, spread)
            assert spread < 1e-4, (name, spread)
    report(3, f"balance residual at every optimum {worst_resid:.2e}; "
              f"lambda proportionality spread {worst_prop:.2e}")


def test_criterion_04_quadratic_closed_form_vs_brute_force(optimizer_outputs):
    # n = 2 clique.
    problem2, opt2 = optimizer_outputs["clique2"]
    grid2, payoff2 = staged_oracle(problem2, 0.02, 0.8, [(0.002, 0.022)])
    assert opt2.principal_payoff >= payoff2 - 1e-3
    gap2 = float(np.max(np.abs(grid2.payments - opt2.contract.payments)))
    assert gap2 <= 0.002 + 1e-12

    # n = 3 triangle with heterogeneous weights.
    problem3, opt3 = optimizer_outputs["triangle"]
    grid3, payoff3 = staged_oracle(problem3, 0.05, 0.6, [(0.01, 0.06), (0.002, 0.012)])
    assert opt3.principal_payoff >= payoff3 - 1e-3
    gap3 = float(np.max(np.abs(grid3.payments - opt3.contract.payments)))
    assert gap3 <= 0.002 + 1e-12

    # Cubic root structure for the 2-clique.
    s_star = tp.total_share_root(1.0, 0.5, 2.0)
    assert 0.5 < s_star < 1.0
    assert abs(share_cubic(s_star, 1.0, 0.5, 2.0)) < 1e-10
    assert opt2.contract.payments[:, 1].sum() == pytest.approx(s_star, abs=1e-8)
    report(4, f"grid argmax within one cell (n=2 gap {gap2:.4f}, n=3 gap {gap3:.4f}); "
              f"cubic root s*={s_star:.6f}")


def test_criterion_05_proportionality_laws(optimizer_outputs):
    _, cd = optimizer_outputs["cobb_douglas"]
    ratio_cd = cd.contract.payments[1, 1] / cd.contract.payments[0, 1]
    assert ratio_cd == pytest.approx(2.0, rel=1e-6)
    _, ces = optimizer_outputs["ces"]
    ratio_ces = ces.contract.payments[1, 1] / ces.contract.payments[0, 1]
    assert ratio_ces == pytest.approx(16.0, rel=1e-6)
    leontief = tp.closed_form_ces([1.0, 4.0], -20.0, 1.0, tp.PowerSuccess(2.0))
    ratio_l = leontief.contract.payments[1, 1] / leontief.contract.payments[0, 1]
    assert ratio_l == pytest.approx(4.0 ** (1 / 21), rel=1e-10)
    report(5, f"payment ratios: cobb-douglas {ratio_cd:.9f}, ces {ratio_ces:.9f}, "
              f"strong complements {ratio_l:.6f}")


def test_criterion_06_active_sets():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        adj = (rng.uniform(size=(n, n)) < 0.45).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        net = tp.Network(adj)
        candidates = tp.optimal_active_set(net)
        best = candidates[0]
        # Independent maximum-clique oracle by subset enumeration.
        import itertools
        best_size = 1
        for size in range(n, 0, -1):
            found = False
            for combo in itertools.combinations(range(n), size):
                if all(adj[i, j] > 0 for i, j in itertools.combinations(combo, 2)):
                    best_size = size
                    found = True
                    break
            if found:
                break
        k = len(best.agents)
        assert k == best_size
        assert all(adj[i, j] > 0 for i, j in itertools.combinations(best.agents, 2))
        assert best.share_rate == (k - 1.0) / k
        checked += 1
    # Weighted candidates all have diameter <= 2.
    rngw = np.random.default_rng(5)
    w = rngw.uniform(0.0, 1.0, size=(7, 7))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    w[w < 0.5] = 0.0
    netw = tp.Network(w)
    for cand in tp.optimal_active_set(netw):
        agents = list(cand.agents)
        sub = netw.matrix[np.ix_(agents, agents)] > 0
        reach = sub | (sub @ sub)
        np.fill_diagonal(reach, True)
        assert np.all(reach)
    report(6, f"maximum-clique active sets with exact balance rate on {checked} unweighted graphs; "
              "all weighted candidates have diameter <= 2")


def test_criterion_07_figure_reproduction():
    curve = tp.sweep(figure_network(), KAPPA_HALF, "G23", np.arange(0.0, 1.0001, 0.02))
    assert all(e is None for e in curve.errors)
    assert np.all(np.diff(curve.principal_payoffs) >= -1e-9)
    pay2 = curve.payments[:, 1]
    payoff2 = curve.agent_payoffs[:, 1]
    assert np.any(np.diff(pay2) < -1e-7) and np.any(np.diff(pay2) > 1e-7)
    assert np.any(np.diff(payoff2) < -1e-7) and np.any(np.diff(payoff2) > 1e-7)
    # Agent 1 is (weakly) on top throughout the region where the labeled
    # ordering G12 >= G13 >= G23 holds; past G23 = G13 the closed form makes
    # agent 2 the top recipient, so the caption's claim is scoped to it.
    mask = curve.grid <= 0.8 + 1e-12
    for col in (1, 2):
        assert np.all(curve.payments[mask, 0] >= curve.payments[mask, col] - 1e-9)
        assert np.all(curve.agent_payoffs[mask, 0] >= curve.agent_payoffs[mask, col] - 1e-9)
    report(7, "figure sweep: payoff nondecreasing, agent-2 payment and payoff non-monotone, "
              "agent-1 curves weakly topmost on the ordered region")


def test_criterion_08_productivity_centrality_tradeoff(optimizer_outputs):
    problem, result = optimizer_outputs["heterogeneous"]
    tau = result.contract.payments[:, 1]
    rep = tp.compute_balance_report(problem, result.contract, result.equilibrium)
    assert tau[0] > tau[1]
    assert rep.alpha[0] > rep.alpha[1]
    assert rep.centrality[0] < rep.centrality[1]
    report(8, f"standalone-heterogeneity optimum: tau1 {tau[0]:.4f} > tau2 {tau[1]:.4f}, "
              f"alpha1 > alpha2, c1 < c2")


def test_criterion_09_comparative_statics(optimizer_outputs):
    net = asym_triangle()
    _, opt = optimizer_outputs["triangle"]
    ds = tp.dshare_dlink(net, KAPPA_HALF, opt)
    h = 1e-4
    worst = 0.0
    for j, k in [(0, 1), (0, 2), (1, 2)]:
        up = tp.optimize_quadratic_binary(net.with_edge(j, k, net.weights[j, k] + h), KAPPA_HALF)
        dn = tp.optimize_quadratic_binary(net.with_edge(j, k, net.weights[j, k] - h), KAPPA_HALF)
        assert up.active_set == opt.active_set == dn.active_set
        fd = (up.contract.payments[:, 1] - dn.contract.payments[:, 1]) / (2 * h)
        rel = np.max(np.abs(ds[:, j, k] - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-3

    dperf = tp.dperformance_dlink(KAPPA_HALF, opt)
    tau = opt.contract.payments[:, 1]
    ratio_table = dperf / np.outer(tau, tau)
    off = ratio_table[~np.eye(3, dtype=bool)]
    assert (np.max(off) - np.min(off)) / abs(np.mean(off)) < 1e-8

    curve = tp.sweep(clique(2), KAPPA_HALF, "beta", np.linspace(0.2, 1.4, 7))
    totals = curve.payments.sum(axis=1)
    assert np.all(np.diff(totals) > 0.0)
    report(9, f"share derivatives vs re-optimization FD, worst rel err {worst:.2e}; "
              "performance derivative proportional to payment products; total share rising in beta")


def test_criterion_10_outcome_structure(optimizer_outputs):
    problem_lin, opt_lin = optimizer_outputs["softmax_linear"]
    expected_pay = opt_lin.contract.payments.sum(axis=0) * opt_lin.equilibrium.probs
    concentration = expected_pay.max() / expected_pay.sum()
    assert concentration >= 0.999
    paid_outcomes = {
        s for i in range(2) for s in range(3) if opt_lin.contract.payments[i, s] > 0
    }
    assert len(paid_outcomes) == 1  # one common outcome across agents
    probs, dprobs, _ = problem_lin.outcomes.probs_derivs(opt_lin.equilibrium.performance)
    ratios = probs / dprobs
    assert len(np.unique(np.round(ratios, 9))) == 3  # distinct outcome ratios

    problem_sq, opt_sq = optimizer_outputs["softmax_sqrt"]
    probs_sq, dprobs_sq, _ = problem_sq.outcomes.probs_derivs(opt_sq.equilibrium.performance)
    for i in range(2):
        for s in range(3):
            if dprobs_sq[s] > 0:
                assert opt_sq.contract.payments[i, s] > 0
            else:
                assert opt_sq.contract.payments[i, s] == 0
    rep = tp.compute_balance_report(problem_sq, opt_sq.contract, opt_sq.equilibrium)
    # Cross-outcome law: an active agent paid at outcomes s and t has
    # u'(tau_s) / u'(tau_t) = (P_s / P'_s) / (P_t / P'_t).
    payments = opt_sq.contract.payments
    gaps, paid_slopes = [], []
    for i in rep.active_agents:
        paid = np.flatnonzero(payments[i] > 0.0)
        marginals = problem_sq.utilities[i].marginal(payments[i])
        paid_slopes.extend(dprobs_sq[paid])
        for s, t in itertools.combinations(paid, 2):
            ratio = (probs_sq[s] / dprobs_sq[s]) * (dprobs_sq[t] / probs_sq[t])
            gaps.append(abs(marginals[s] / marginals[t] - ratio))
    assert gaps  # at least one co-paid outcome pair
    max_gap = max(gaps)
    assert max_gap < 1e-4
    assert all(slope > 0.0 for slope in paid_slopes)
    report(10, f"risk-neutral pay concentration {concentration:.6f}; "
               f"square-root utilities paid at every rising outcome, "
               f"cross-outcome identity gap {max_gap:.2e}")


def test_criterion_11_equity(optimizer_outputs):
    problem2, opt2 = optimizer_outputs["clique2"]
    equity2 = tp.optimize_equity(problem2, compare_unrestricted=False)
    gap = abs(equity2.principal_payoff - opt2.principal_payoff)
    assert gap < 1e-6
    assert equity2.balance_residual < 1e-5

    problem3, opt3 = optimizer_outputs["softmax_linear"]
    equity3 = tp.optimize_equity(problem3, compare_unrestricted=False)
    assert equity3.principal_payoff <= opt3.principal_payoff + 1e-8
    assert equity3.balance_residual < 1e-5
    report(11, f"binary equity optimum within {gap:.2e} of unrestricted; "
               f"3-outcome equity payoff {equity3.principal_payoff:.6f} <= "
               f"unrestricted {opt3.principal_payoff:.6f}; balance residuals < 1e-5")
