"""Balance diagnostics at a (contract, equilibrium) pair.

Computes the curvature / productivity / spillover / payment-sensitivity
objects, agent centralities, the analytic performance-derivative matrix
dY/dtau, fitted per-outcome balance constants with residuals, and the
cross-agent / cross-outcome ratio identities that hold at optimal
contracts.

Every first-order object comes from one Jacobian ``J`` of the agents'
first-order conditions on the active agents (assembled by the general
solver's evaluator, ``equilibrium._first_order``) and one solve
``J' v = -grad``: the centralities are ``v`` rescaled, and the l factor is
``1 + d.v``.  dY/dtau is defined at the dormant profile as well, where no
agent is active and every row is an idle agent's one-sided response.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import _first_order
from .model import (
    Contract,
    EquilibriumResult,
    Problem,
    outcome_probs,
)

__all__ = [
    "DiagnosticsError",
    "BalanceReport",
    "RatioCheck",
    "compute_balance_report",
    "marginal_performance",
    "check_cross_agent_ratios",
    "check_cross_outcome_ratios",
    "ACTIVITY_TOL",
]

# Actions below this are treated as zero; solver tolerance floor.
ACTIVITY_TOL = 1e-9

# Balance constants are not fitted when the principal's marginal revenue
# term is this close to zero (the first-order condition degenerates).
_D_FLOOR = 1e-12


class DiagnosticsError(RuntimeError):
    pass


@dataclass(frozen=True)
class BalanceReport:
    """All first-order objects at one (contract, equilibrium) pair, from one
    solve with the first-order Jacobian on the active agents.

    Matrix-valued fields are restricted to active agents except
    ``centrality_all`` and ``dY_dtau``, which cover every agent (inactive
    agents get the extended construction).  ``lambda_by_outcome`` holds NaN
    where no active agent is paid or where ``D_term`` is too close to zero
    to be meaningful.  A report needs an active agent; ``dY_dtau`` alone
    (:func:`marginal_performance`) is defined at the dormant profile too.
    """

    active_agents: tuple
    curvature: np.ndarray        # diag of H, active agents
    alpha: np.ndarray            # normalized marginal productivity, active
    hessian: np.ndarray          # production Hessian on active agents
    payment_utility: np.ndarray  # diag of U, active agents
    centrality: np.ndarray       # active agents
    centrality_all: np.ndarray   # every agent; NaN when curvature vanishes at 0
    dY_dtau: np.ndarray          # (n, n_outcomes)
    l_factor: float
    d_vector: np.ndarray         # active agents
    lambda_by_outcome: np.ndarray
    balance_residuals: np.ndarray  # (n, n_outcomes), NaN where not applicable
    D_term: float

    def max_relative_residual(self) -> float:
        vals = self.balance_residuals[np.isfinite(self.balance_residuals)]
        return float(np.max(vals)) if vals.size else 0.0

    def to_dict(self) -> dict:
        return {
            "active_agents": [int(i) for i in self.active_agents],
            "curvature": self.curvature.tolist(),
            "alpha": self.alpha.tolist(),
            "hessian": self.hessian.tolist(),
            "payment_utility": self.payment_utility.tolist(),
            "centrality": self.centrality.tolist(),
            "centrality_all": self.centrality_all.tolist(),
            "dY_dtau": self.dY_dtau.tolist(),
            "l_factor": float(self.l_factor),
            "d_vector": self.d_vector.tolist(),
            "lambda_by_outcome": self.lambda_by_outcome.tolist(),
            "balance_residuals": self.balance_residuals.tolist(),
            "D_term": float(self.D_term),
        }


@dataclass(frozen=True)
class RatioCheck:
    """Identity gaps for the optimal-contract ratio laws.

    ``gaps`` holds ``(index..., gap)`` tuples; ``max_gap`` is 0 when no pair
    applies (vacuous pass).  ``ranking_ok`` reports the componentwise payment
    ordering for identical strictly-concave-utility pairs;
    ``slopes_positive`` reports whether every paid outcome has a positive
    probability slope at the equilibrium performance.
    """

    gaps: tuple
    max_gap: float
    ranking_ok: bool | None = None
    slopes_positive: bool | None = None


def _marginal_utilities(problem: Problem, payments: np.ndarray) -> np.ndarray:
    return np.array([problem.utilities[i].marginal(payments[i]) for i in range(problem.n)])


class _FirstOrderObjects:
    """The balance objects and the dY/dtau matrix, from the agents'
    first-order Jacobian ``J`` on the active agents and one solve of
    ``J' v = -grad``; the same ``J`` predicts the equilibrium under other
    payments (:meth:`tangent_profile`)."""

    def __init__(self, problem: Problem, contract: Contract, eq: EquilibriumResult):
        n = problem.n
        a = eq.actions
        payments = contract.payments

        self.problem = problem
        self.contract = contract
        self.active = act = np.flatnonzero(a > ACTIVITY_TOL)
        self.inactive = inact = np.flatnonzero(a <= ACTIVITY_TOL)

        u_levels = np.array([problem.utilities[i].value(payments[i]) for i in range(n)])
        self.u_marginals = _marginal_utilities(problem, payments)
        system = _first_order(problem, u_levels, a, act)
        self.probs, self.dprobs = system.probs, system.dprobs
        grad, curv = system.grad, system.curv
        self.actions, self.u_levels, self.grad, self.jacobian = a, u_levels, grad, system.jac
        hess = system.hess if act.size else np.zeros((n, n))

        h_act = curv[act]
        if np.any(h_act <= 0.0):
            raise DiagnosticsError("cost curvature must be positive at active actions")
        try:
            v = np.linalg.solve(system.jac.T, -grad[act])
        except np.linalg.LinAlgError as exc:
            raise DiagnosticsError("singular first-order Jacobian on the active agents") from exc
        # J = d grad' - [H - U G] with the probability-curvature vector d, so
        # v = l w with w' = grad' [H - U G]^{-1} and l = 1 + d.v; w_i * grad_i
        # is the productivity-times-centrality product for agent i.
        self.d_vector = grad[act] * system.bend[act]
        self.l_factor = 1.0 + float(self.d_vector @ v)
        if abs(self.l_factor) >= 1e14:
            raise DiagnosticsError("probability-curvature feedback is singular (l factor blows up)")
        # l counts as 0 within the rounding scale of the sum 1 + d.v: there
        # its sign and size are noise.
        rounding = 64 * np.finfo(float).eps * (1.0 + float(np.abs(self.d_vector) @ np.abs(v)))
        self.l_vanishes = abs(self.l_factor) <= rounding
        self.v = v
        w = np.zeros(n)
        # At l = 0, [H - U G] is singular and w is infinite (or, at a noise
        # l, huge); the payoff gradient and the tangent prediction use l w = v
        # instead, and a balance report refuses.  Infinite and NaN entries
        # pass silently.
        with np.errstate(divide="ignore", invalid="ignore"):
            w[act] = v / self.l_factor

            # Symmetrized objects for the report.  The payment sensitivity is
            # the marginal change in expected payment utility as performance
            # rises, holding the contract fixed.
            self.curvature = h_act
            self.alpha = grad[act] / np.sqrt(h_act)
            self.hessian = hess[np.ix_(act, act)]
            self.payment_utility = system.sens[act]
            self.centrality = np.sqrt(h_act) * w[act]

            # Extended products for inactive agents, which do not respond to
            # the others: a vanishing curvature at zero action stays finite
            # where possible.
            curv_in = curv[inact]
            if inact.size:
                cross = grad[inact] + (w[act] * self.payment_utility) @ hess[np.ix_(act, inact)]
                unbounded = np.where(cross == 0.0, 0.0, np.inf * np.sign(cross))
                w[inact] = np.where(curv_in > 0.0, cross / np.maximum(curv_in, 1e-300), unbounded)
            self.products_all = w * grad  # alpha_i * c_i for every agent
        # An inactive agent responds only at outcomes with a positive
        # probability slope, and not at all at a strict corner: paid only at
        # unfavorable outcomes.
        strict_corner = system.sens[inact] < -1e-15
        self.responds = np.ones(self.u_marginals.shape, dtype=bool)
        self.responds[inact] = (self.dprobs > 0.0) & ~strict_corner[:, None]

        # Full centrality vector in the symmetrized convention, where defined.
        self.centrality_all = np.full(n, np.nan)
        self.centrality_all[act] = self.centrality
        if np.all(curv_in > 0.0):
            self.centrality_all = np.sqrt(curv) * w

        self.D_term = float(
            (problem.outcomes.revenues - payments.sum(axis=0)) @ self.dprobs
        )

    def performance_gradient(self) -> np.ndarray:
        """dY/dtau_i(s) for every agent and outcome.

        Active agents use the analytic first-order response.  Unpaid
        inactive agents sit at a degenerate corner: raising a payment at an
        outcome with positive probability slope moves them (one-sided
        derivative given by the same formula), while other perturbations
        leave them pinned.  Inactive agents paid only at unfavorable
        outcomes are at a strict corner and do not respond at all.  At the
        dormant profile every agent is inactive and ``l_factor`` is 1.  Where
        ``l_factor`` vanishes, ``[H - U G]`` is singular and ``w`` infinite
        (or rounding noise), but the product ``l w`` is ``v`` on the active
        agents; an inactive agent's product ``w_i grad_i`` is scaled by ``l``
        as well.
        """
        scale, products = self.l_factor, self.products_all
        with np.errstate(invalid="ignore"):
            if self.l_vanishes:
                scale, products = 1.0, scale * products
                products[self.active] = self.v * self.grad[self.active]
            out = scale * self.dprobs * products[:, None] * self.u_marginals
        return np.where(self.responds, out, 0.0)

    def tangent_profile(self, payments: np.ndarray) -> np.ndarray:
        """First-order prediction of the equilibrium under ``payments``: on
        the active agents ``a - J^{-1} dF``, where the payment change moves
        agent i's first-order condition by ``dF_i = (u_i(tau'_i) -
        u_i(tau_i)) . P'(Y) dY/da_i``; a negative prediction is clipped to 0
        and inactive agents keep their actions."""
        act = self.active
        u_new = np.array([u.value(row) for u, row in zip(self.problem.utilities, payments)])
        shift = (u_new[act] - self.u_levels[act]) @ self.dprobs * self.grad[act]
        profile = self.actions.copy()
        profile[act] -= np.linalg.solve(self.jacobian, shift)
        return np.maximum(profile, 0.0)

    def fit_lambdas(self):
        payments = self.contract.payments
        S = self.probs.size
        lam = np.full(S, np.nan)
        resid = np.full((self.problem.n, S), np.nan)
        if abs(self.D_term) < _D_FLOOR:
            return lam, resid
        for s in range(S):
            paid = [i for i in self.active if payments[i, s] > 0.0]
            if not paid:
                continue
            vals = np.array([self.products_all[i] * self.u_marginals[i, s] for i in paid])
            lam[s] = float(np.mean(vals))
            scale = abs(lam[s]) if lam[s] != 0.0 else 1.0
            for i, v in zip(paid, vals):
                resid[i, s] = abs(v - lam[s]) / scale
        return lam, resid


def compute_balance_report(problem: Problem, contract: Contract, eq: EquilibriumResult) -> BalanceReport:
    """Assemble every balance object at the given equilibrium.  Raises
    :class:`DiagnosticsError` without an active agent, and at an l factor
    that vanishes to rounding (``|l| <= 64 eps (1 + sum_i |d_i v_i|)``),
    where ``[H - U G]`` is singular and the centralities unbounded."""
    obj = _FirstOrderObjects(problem, contract, eq)
    if obj.active.size == 0:
        raise DiagnosticsError("no active agents; balance objects are undefined")
    if obj.l_vanishes:
        raise DiagnosticsError("[H - U G] is singular (l factor 0); centralities are unbounded")
    lam, resid = obj.fit_lambdas()
    return BalanceReport(
        active_agents=tuple(int(i) for i in obj.active),
        curvature=obj.curvature,
        alpha=obj.alpha,
        hessian=obj.hessian,
        payment_utility=obj.payment_utility,
        centrality=obj.centrality,
        centrality_all=obj.centrality_all,
        dY_dtau=obj.performance_gradient(),
        l_factor=obj.l_factor,
        d_vector=obj.d_vector,
        lambda_by_outcome=lam,
        balance_residuals=resid,
        D_term=obj.D_term,
    )


def marginal_performance(problem: Problem, contract: Contract, eq: EquilibriumResult) -> np.ndarray:
    """Analytic dY/dtau_i(s) matrix, shape (n, n_outcomes)."""
    return _FirstOrderObjects(problem, contract, eq).performance_gradient()


def check_cross_agent_ratios(report: BalanceReport, contract: Contract, problem: Problem) -> RatioCheck:
    """Marginal-utility ratio law across co-paid agents, plus the payment
    ranking for identical strictly concave utility pairs."""
    payments = contract.payments
    act = list(report.active_agents)
    products = {i: report.alpha[k] * report.centrality[k] for k, i in enumerate(act)}
    marginals = _marginal_utilities(problem, payments)

    gaps = []
    for s in range(payments.shape[1]):
        paid = [i for i in act if payments[i, s] > 0.0]
        for a_pos in range(len(paid)):
            for b_pos in range(a_pos + 1, len(paid)):
                i, j = paid[a_pos], paid[b_pos]
                lhs = marginals[i, s] / marginals[j, s]
                rhs = products[j] / products[i]
                gaps.append((i, j, s, abs(lhs - rhs)))

    ranking_ok = None
    comparable_pairs = []
    for a_pos in range(len(act)):
        for b_pos in range(a_pos + 1, len(act)):
            i, j = act[a_pos], act[b_pos]
            ui, uj = problem.utilities[i], problem.utilities[j]
            if ui != uj or type(ui).__name__ == "LinearUtility":
                continue
            le = bool(np.all(payments[i] <= payments[j] + 1e-12))
            ge = bool(np.all(payments[i] >= payments[j] - 1e-12))
            comparable_pairs.append(le or ge)
    if comparable_pairs:
        ranking_ok = all(comparable_pairs)

    max_gap = max((g[-1] for g in gaps), default=0.0)
    return RatioCheck(gaps=tuple(gaps), max_gap=float(max_gap), ranking_ok=ranking_ok)


def check_cross_outcome_ratios(
    report: BalanceReport, contract: Contract, eq: EquilibriumResult, problem: Problem
) -> RatioCheck:
    """Per-agent marginal-utility ratios across paid outcome pairs, and the
    positive-slope requirement at every paid outcome."""
    payments = contract.payments
    probs, dprobs, _ = outcome_probs(problem.outcomes, eq.performance)
    marginals = _marginal_utilities(problem, payments)

    slopes_positive = True
    gaps = []
    for i in report.active_agents:
        paid = [s for s in range(payments.shape[1]) if payments[i, s] > 0.0]
        for s in paid:
            if dprobs[s] <= 0.0:
                slopes_positive = False
        for a_pos in range(len(paid)):
            for b_pos in range(a_pos + 1, len(paid)):
                s1, s2 = paid[a_pos], paid[b_pos]
                lhs = marginals[i, s1] / marginals[i, s2]
                rhs = (probs[s1] / dprobs[s1]) * (dprobs[s2] / probs[s2])
                gaps.append((i, s1, s2, abs(lhs - rhs)))

    max_gap = max((g[-1] for g in gaps), default=0.0)
    return RatioCheck(gaps=tuple(gaps), max_gap=float(max_gap), slopes_positive=slopes_positive)
