"""Optimal incentive pay for teams with production spillovers.

Library surface: domain types (:mod:`teampay.model`), equilibrium solvers
(:mod:`teampay.equilibrium`), balance diagnostics
(:mod:`teampay.diagnostics`), contract optimizers
(:mod:`teampay.contract_opt`), comparative statics (:mod:`teampay.statics`),
equity contracts (:mod:`teampay.equity`), and an independent brute-force
oracle (:mod:`teampay.oracle`).
"""

from .model import (
    BinaryOutcomeModel,
    CapExceededError,
    CESProduction,
    CobbDouglasProduction,
    Contract,
    DomainError,
    EquilibriumResult,
    LinearCappedSuccess,
    LinearUtility,
    Log1pUtility,
    LogisticSuccess,
    ModelError,
    Network,
    PolynomialProduction,
    PowerCost,
    PowerSuccess,
    PowerUtility,
    Problem,
    QuadraticNetworkProduction,
    SchemaError,
    SoftmaxOutcomeModel,
    SqrtUtility,
    contract_from_dict,
    problem_from_dict,
    validate_problem,
)
from .equilibrium import (
    EquilibriumError,
    solve_equilibrium_general,
    solve_equilibrium_quadratic_binary,
    spectral_radius,
)
from .diagnostics import (
    BalanceReport,
    DiagnosticsError,
    compute_balance_report,
    marginal_performance,
)
from .contract_opt import (
    ActiveSetCandidate,
    ActiveSetError,
    OptimalContractResult,
    OptimizationError,
    closed_form_ces,
    closed_form_cobb_douglas,
    optimal_active_set,
    optimize_general,
    optimize_quadratic_binary,
    quadratic_binary_problem,
    total_share_root,
)
from .statics import (
    StaticsError,
    SweepCurve,
    dperformance_dlink,
    dshare_dlink,
    sweep,
    sweep_to_csv,
)
from .equity import EquityResult, induced_contract, optimize_equity
from .oracle import OracleError, best_response_iterate, brute_force_optimal_contract

__version__ = "0.1.0"
