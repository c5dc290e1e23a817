import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teampay as tp
from teampay import oracle
from teampay.oracle import principal_payoff

from helpers import (
    KAPPA_HALF,
    clique,
    quadratic_problem,
    random_symmetric_network,
    softmax_instance,
    success_contract,
)

SOFTMAX_SQRT = softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0], clique(2), tp.SqrtUtility())


def _iterate_from_zero(problem, payments, tol, budget):
    """The batched iteration as the exhaustive search runs it: every row
    from zero effort, with its own sweep budget."""
    return oracle._iterate(problem, payments, tol, budget, np.zeros((len(payments), problem.n)), True)


def test_zero_contract_converges_immediately():
    problem = quadratic_problem(clique(3, 0.5))
    eq = tp.best_response_iterate(problem, tp.Contract(np.zeros((3, 2))))
    assert np.all(eq.actions == 0.0)


def test_agrees_with_specialized_solver():
    net = clique(2)
    eq_oracle = tp.best_response_iterate(quadratic_problem(net), success_contract([0.25, 0.25]), tol=1e-10)
    eq_exact = tp.solve_equilibrium_quadratic_binary(net, np.array([0.25, 0.25]), KAPPA_HALF)
    assert np.max(np.abs(eq_oracle.actions - eq_exact.actions)) < 1e-8


def test_symmetric_profile_from_asymmetric_init():
    problem = quadratic_problem(clique(2))
    eq = tp.best_response_iterate(
        problem, success_contract([0.25, 0.25]), tol=1e-10, init=np.array([0.9, 0.01])
    )
    assert abs(eq.actions[0] - eq.actions[1]) < 1e-8


def test_zero_start_converges_where_steps_stop_shrinking():
    # From zero effort the damped map's steps on this contract flip sign or
    # barely grow on one agent; an Aitken jump there used to throw the
    # profile off and the iteration cycled through its whole budget.
    net = clique(2)
    tol = 1e-8
    eq = tp.best_response_iterate(quadratic_problem(net), success_contract([0.65, 0.8]), tol=tol, init=np.zeros(2))
    exact = tp.solve_equilibrium_quadratic_binary(net, np.array([0.65, 0.8]), KAPPA_HALF)
    assert np.max(np.abs(eq.actions - exact.actions)) <= tol


def test_best_response_zooms_down_to_its_tolerance_on_a_wide_range():
    # One agent, y = a, success probability a / 2: the best response to a
    # success pay of 0.5 maximizes a / 4 - a^2 / 2 at 0.25.  Over [0, 1e12] the full grid's bracket
    # needs more than eight 64-point zooms to come within 1e-6.
    problem = quadratic_problem(clique(1))
    xtol = np.array([1e-6])
    br = oracle._best_responses(problem, np.array([[0.0, 0.5]]), 0, np.zeros((1, 1)), np.array([1e12]), xtol)
    assert abs(br[0] - 0.25) <= xtol[0]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.booleans(), st.sampled_from([1e-8, 1e-10]))
def test_batched_rows_match_one_by_one_iterations(seed, batch, softmax, tol):
    rng = np.random.default_rng(seed)
    if softmax:
        problem = SOFTMAX_SQRT
        payments = rng.uniform(0.0, 0.5, size=(batch, 2, 3))
    else:
        n = int(rng.integers(1, 4))
        problem = quadratic_problem(random_symmetric_network(rng, n, 0.6))
        payments = np.zeros((batch, n, 2))
        payments[:, :, 1] = rng.uniform(0.0, 0.4, size=(batch, n))
    # A small budget on some rows forces contracts that do not converge.
    budget = np.where(rng.uniform(size=batch) < 0.3, rng.integers(1, 8, size=batch), 5000)
    actions, residual, sweeps, converged = _iterate_from_zero(problem, payments, tol, budget)
    for b in range(batch):
        args = (problem, tp.Contract(payments[b]), tol)
        kwargs = {"max_sweeps": int(budget[b]), "init": np.zeros(problem.n)}
        if not converged[b]:
            with pytest.raises(tp.OracleError):
                tp.best_response_iterate(*args, **kwargs)
            continue
        eq = tp.best_response_iterate(*args, **kwargs)
        assert np.max(np.abs(eq.actions - actions[b])) <= 1e-12
        assert eq.iterations == sweeps[b]
        assert abs(eq.residual - residual[b]) <= 1e-12


def test_unconverged_row_leaves_its_neighbours_converged():
    problem = quadratic_problem(clique(2))
    payments = np.zeros((3, 2, 2))
    payments[:, :, 1] = [[0.25, 0.25], [0.3, 0.1], [0.2, 0.2]]
    budget = np.array([5000, 3, 5000])
    actions, _, sweeps, converged = _iterate_from_zero(problem, payments, 1e-8, budget)
    assert converged.tolist() == [True, False, True]
    assert np.all(np.isnan(actions[1]))
    assert sweeps[0] > 3 and sweeps[2] > 3
    with pytest.raises(tp.OracleError):
        tp.best_response_iterate(problem, tp.Contract(payments[1]), 1e-8, max_sweeps=3, init=np.zeros(2))


def test_brute_force_scan_evaluation_count_and_memory(monkeypatch):
    """One batched scan of the 961-contract verify grid stays within a
    production-evaluation count and a traced-memory peak."""
    calls = 0
    value = tp.QuadraticNetworkProduction.value

    def counted(self, a):
        nonlocal calls
        calls += 1
        return value(self, a)

    monkeypatch.setattr(tp.QuadraticNetworkProduction, "value", counted)
    tracemalloc.start()
    try:
        contract, _ = tp.brute_force_optimal_contract(quadratic_problem(clique(2)), 0.02, (0.0, 0.6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert contract.payments[:, 1] == pytest.approx([0.28, 0.28], abs=1e-12)
    assert calls <= 15_000
    assert peak <= 1_000_000


ONE_AGENT_SOFTMAX = softmax_instance([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0],
                                     tp.Network([[0.0]]), tp.SqrtUtility())


@pytest.mark.parametrize("problem, step", [(quadratic_problem(clique(2)), 0.1), (ONE_AGENT_SOFTMAX, 0.3)],
                         ids=["binary_2clique", "softmax_1agent"])
def test_brute_force_search_does_not_depend_on_the_batch_size(monkeypatch, problem, step):
    # Rows never mix, and the full-grid scan keeps the first maximum across
    # blocks of any width, so the batch size changes no bit of the result.
    results = []
    for batch in (1, 7, 64, 128):
        monkeypatch.setattr(oracle, "_BATCH", batch)
        contract, payoff = tp.brute_force_optimal_contract(problem, step, (0.0, 0.6))
        results.append((contract.payments.tobytes(), np.float64(payoff).tobytes()))
    assert results.count(results[0]) == len(results)


def test_brute_force_single_agent_closed_form():
    problem = quadratic_problem(tp.Network([[0.0]]))
    contract, payoff = tp.brute_force_optimal_contract(problem, 0.01, (0.0, 1.0))
    assert contract.payments[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert payoff == pytest.approx(0.0625, abs=1e-6)


def test_brute_force_zero_revenue_pays_nothing():
    problem = tp.Problem(
        n=1,
        production=tp.QuadraticNetworkProduction(tp.Network([[0.0]])),
        outcomes=tp.SoftmaxOutcomeModel([0.0, 1.0], [0.0, 0.0], [0.0, 0.0]),
        utilities=(tp.LinearUtility(),),
        costs=(tp.PowerCost(),),
    )
    contract, payoff = tp.brute_force_optimal_contract(problem, 0.1, (0.0, 0.4))
    assert np.all(contract.payments == 0.0)
    assert payoff == pytest.approx(0.0, abs=1e-12)


def test_brute_force_dimensionality_guard(monkeypatch):
    monkeypatch.setattr(oracle, "_DIM_CAP", 3)
    problem = quadratic_problem(clique(4))
    with pytest.raises(tp.OracleError, match="exceed the enumeration cap 3"):
        tp.brute_force_optimal_contract(problem, 0.1, (0.0, 0.5))


def test_finite_diff_matches_single_agent_performance_derivative():
    problem = quadratic_problem(tp.Network([[0.0]]))

    def perf(tau):
        eq = tp.best_response_iterate(problem, success_contract([float(tau)]), tol=1e-12)
        return eq.performance

    # The map is linear in the payment, so a wide step costs no truncation
    # while averaging away the oracle's action-resolution floor.
    d = (perf(0.4 + 0.05) - perf(0.4 - 0.05)) / (2 * 0.05)
    assert d == pytest.approx(0.5, abs=1e-7)


def test_share_derivative_vanishes_at_optimal_share():
    net = clique(2)
    problem = quadratic_problem(net)
    s_star = tp.total_share_root(1.0, 0.5, 2.0)

    def payoff_of_share(s):
        eq = tp.best_response_iterate(problem, success_contract([s / 2, s / 2]), tol=1e-10)
        return principal_payoff(problem, success_contract([s / 2, s / 2]), eq.performance)

    d = (payoff_of_share(s_star + 1e-4) - payoff_of_share(s_star - 1e-4)) / (2 * 1e-4)
    assert abs(d) < 1e-5


def test_oracle_imports_only_model():
    """Code-level independence: the oracle may import the domain types but
    none of the analytic solver modules."""
    source = Path(tp.oracle.__file__).read_text()
    tree = ast.parse(source)
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("teampay") is False:
            if node.level > 0:  # relative import
                internal.add(node.module)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("teampay"):
            internal.add(node.module.split(".", 1)[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("teampay"):
                    internal.add(alias.name.split(".", 1)[1])
    assert internal == {"model"}
