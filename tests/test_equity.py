import numpy as np
import pytest

import teampay as tp
from teampay import contract_opt, equity

from helpers import clique, quadratic_problem, softmax_instance


THREE_OUTCOME = dict(theta=[0.0, 2.0, 2.5], shift=[1.5, 0.0, -1.0], revenues=[0.0, 2.0, 3.0])


def test_binary_equity_contract_equals_success_payments():
    problem = quadratic_problem(clique(2))
    contract = tp.induced_contract(problem, [0.2, 0.3])
    assert np.allclose(contract.payments[:, 0], 0.0)
    assert np.allclose(contract.payments[:, 1], [0.2, 0.3])


def test_zero_shares_zero_actions():
    problem = quadratic_problem(clique(3, 0.5))
    eq = tp.solve_equilibrium_general(problem, tp.induced_contract(problem, np.zeros(3)))
    assert np.all(eq.actions == 0.0)


def test_three_outcome_equity_matches_expanded_contract():
    problem = softmax_instance([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 1.0, 2.0],
                               network=clique(2), utility=tp.LinearUtility())
    contract = tp.induced_contract(problem, [0.2, 0.1])
    expanded = np.outer([0.2, 0.1], problem.outcomes.revenues)
    assert np.array_equal(contract.payments, expanded)


@pytest.mark.parametrize("shares", [[0.2, 0.3, 0.1], [[0.2, 0.3]], 0.2])
def test_induced_contract_needs_one_share_per_agent(shares):
    with pytest.raises(tp.ModelError, match=r"shares must have shape \(2,\)"):
        tp.induced_contract(quadratic_problem(clique(2)), shares)


@pytest.fixture(scope="module")
def binary_equity_result():
    return tp.optimize_equity(quadratic_problem(clique(2)))


def test_binary_equity_attains_unrestricted_payoff(binary_equity_result):
    res = binary_equity_result
    assert res.unrestricted_payoff is not None
    assert abs(res.principal_payoff - res.unrestricted_payoff) < 1e-6


def test_symmetric_equity_shares_and_balance(binary_equity_result):
    res = binary_equity_result
    assert res.shares[0] == pytest.approx(res.shares[1], abs=1e-6)
    assert res.balance_residual < 1e-6
    assert res.kkt_residual < 1e-8


def test_three_outcome_equity_weakly_dominated():
    problem = softmax_instance(**THREE_OUTCOME, network=clique(2), utility=tp.LinearUtility())
    res = tp.optimize_equity(problem)
    assert res.principal_payoff <= res.unrestricted_payoff + 1e-8
    # The unrestricted optimum concentrates pay in one outcome, which a
    # fixed revenue share cannot mimic, so the gap is strict here.
    assert res.principal_payoff < res.unrestricted_payoff - 1e-4
    assert res.balance_residual < 1e-5


def test_dominance_across_instances():
    for network, utility in ((clique(2), tp.SqrtUtility()), (clique(2, 0.5), tp.LinearUtility())):
        problem = softmax_instance(**THREE_OUTCOME, network=network, utility=utility)
        res = tp.optimize_equity(problem)
        assert res.unrestricted_payoff >= res.principal_payoff - 1e-8


def test_equity_ascent_halves_steps_whose_trial_reaches_the_cap():
    # From shares (0.15, 0.15) early line-search trials push performance past
    # the cap 1/0.9; such a trial must halve the step, not end the start.
    problem = quadratic_problem(clique(2), tp.LinearCappedSuccess(0.9))
    sigma, _, payoff, kkt, converged = contract_opt._ascend(
        problem, np.array([0.15, 0.15]), equity._shares(problem)
    )
    assert converged
    assert kkt <= 1e-8
    assert payoff == pytest.approx(0.3159117539121128, abs=1e-12)
    assert sigma[0] == pytest.approx(sigma[1], abs=1e-9)


@pytest.mark.parametrize("starts", [2, 8])
def test_equity_climbs_the_gradient_optimizers_start_count(monkeypatch, starts):
    # One patch of the start count covers both optimizers.
    seen = []

    def record(problem, seeds, var):
        seen.append(len(seeds))
        raise tp.OptimizationError("recorded")

    monkeypatch.setattr(contract_opt, "_STARTS", starts)
    monkeypatch.setattr(equity, "_best_ascent", record)
    with pytest.raises(tp.OptimizationError, match="recorded"):
        tp.optimize_equity(quadratic_problem(clique(2)))
    assert seen == [starts]
