"""Equity pay: one share of revenue instead of outcome-by-outcome payments.

With binary outcomes (revenues 0 and 1) equity is exactly as good as the
unrestricted optimum; with several valued outcomes the unrestricted
contract concentrates pay where performance moves probability the most,
which fixed shares cannot mimic, so equity gives up payoff.
"""

import teampay as tp

# Binary environment: equity attains the unrestricted optimum.
network = tp.Network([[0.0, 1.0], [1.0, 0.0]])
binary = tp.quadratic_binary_problem(network, tp.LinearCappedSuccess(0.5))
result = tp.optimize_equity(binary)
print("binary outcomes")
print("  shares             ", result.shares)
print("  equity payoff      ", result.principal_payoff)
print("  unrestricted payoff", result.unrestricted_payoff)

# Three outcomes: equity is strictly dominated.
outcomes = tp.SoftmaxOutcomeModel([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0])
problem = tp.Problem(
    n=2,
    production=tp.QuadraticNetworkProduction(network),
    outcomes=outcomes,
    utilities=(tp.LinearUtility(),) * 2,
    costs=(tp.PowerCost(),) * 2,
)
result3 = tp.optimize_equity(problem)
print("three outcomes")
print("  shares             ", result3.shares)
print("  equity payoff      ", result3.principal_payoff)
print("  unrestricted payoff", result3.unrestricted_payoff)
print("  balance values     ", result3.balance_values, "(equal across paid agents)")
