import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import teampay as tp
from teampay import contract_opt, equilibrium
from teampay.contract_opt import _balanced_performance

from helpers import (
    KAPPA_HALF,
    clique,
    quadratic_problem,
    random_quadratic_binary,
    random_symmetric_network,
    solver_oracle_agreement,
    success_contract,
)


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


def star(n: int) -> tp.Network:
    w = np.zeros((n, n))
    w[0, 1:] = w[1:, 0] = 1.0
    return tp.Network(w)


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
    # steep curves put P'(0) * s * rate >= 1 at the larger shares.
    for s in (0.2, 0.5, 0.9):
        eq = tp.solve_equilibrium_quadratic_binary(clique(k), np.full(k, s / k), p)
        assert eq.performance == pytest.approx(_balanced_performance(s, (k - 1) / k, p), abs=1e-12)
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
