"""Equity contracts: fixed revenue shares across outcomes.

An equity contract pays agent i the amount ``shares[i] * revenue_s`` at
outcome s.  Equity pay is a linear reparametrization of payments,
``tau = sigma ⊗ v``, so equilibria go through the general solver and the
share optimizer is the unrestricted optimizer's projected Barzilai-Borwein
ascent, run in shares: the shares map to payments, the payment gradient
maps back to shares by the chain rule, and the projection keeps the shares
nonnegative with a sum of at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import contract_opt
from .contract_opt import _best_ascent, _Parametrization, optimize_general
from .diagnostics import ACTIVITY_TOL, _FirstOrderObjects
from .model import Contract, EquilibriumResult, ModelError, Problem

__all__ = [
    "EquityResult",
    "induced_contract",
    "optimize_equity",
]


def induced_contract(problem: Problem, shares) -> Contract:
    """Payments implied by a share vector of shape ``(n,)``: ``tau[i, s] = shares_i v_s``."""
    if np.shape(shares) != (problem.n,):
        raise ModelError(f"shares must have shape ({problem.n},), got {np.shape(shares)}")
    return Contract(np.outer(shares, problem.outcomes.revenues))


@dataclass(frozen=True)
class EquityResult:
    shares: np.ndarray
    equilibrium: EquilibriumResult
    principal_payoff: float
    balance_values: np.ndarray | None
    balance_residual: float | None
    kkt_residual: float
    unrestricted_payoff: float | None = None


def _project_shares(sigma: np.ndarray) -> np.ndarray:
    """Project onto { sigma >= 0, sum(sigma) <= 1 }."""
    sigma = np.maximum(sigma, 0.0)
    total = float(sigma.sum())
    if total <= 1.0:
        return sigma
    # Euclidean projection onto the probability simplex.
    u = np.sort(sigma)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, sigma.size + 1)
    cond = u - css / ks > 0
    k = int(np.max(np.flatnonzero(cond))) + 1
    theta = css[k - 1] / k
    return np.maximum(sigma - theta, 0.0)


def _shares(problem: Problem) -> _Parametrization:
    """Equity shares as the projected ascent's variable."""
    v = problem.outcomes.revenues
    return _Parametrization(
        contract=lambda sigma: induced_contract(problem, sigma),
        # Chain rule through tau[i, s] = sigma_i v_s; zero-revenue outcomes
        # have structurally pinned payments and drop out.
        pull_back=lambda grad: grad @ v,
        project=_project_shares,
    )


def _balance_values(problem: Problem, sigma: np.ndarray, eq: EquilibriumResult) -> np.ndarray | None:
    """Per-agent balance values, or None where the l factor vanishes and the
    centralities are unbounded."""
    contract = induced_contract(problem, sigma)
    obj = _FirstOrderObjects(problem, contract, eq)
    if obj.l_vanishes:
        return None
    v = problem.outcomes.revenues
    # Zero-revenue outcomes have structurally pinned payments; their
    # (possibly unbounded) marginal utilities contribute nothing.
    with np.errstate(invalid="ignore"):
        return obj.products_all * np.nansum(np.where(v > 0.0, obj.dprobs * v * obj.u_marginals, 0.0), axis=1)


def optimize_equity(problem: Problem, *, compare_unrestricted: bool = True) -> EquityResult:
    """Multi-start projected gradient ascent on the equity payoff
    ``(1 - sum(sigma)) * sum_s v_s P_s(Y*)``: the unrestricted optimizer's
    projected Barzilai-Borwein ascent and multi-start driver, run in shares.

    Reports the per-agent balance values (whose spread across positive-share
    agents is the optimality diagnostic) and, by default, the unrestricted
    optimizer's payoff side by side.
    """
    n = problem.n
    # Read at call time, so that the start count is the gradient optimizer's.
    starts = contract_opt._STARTS

    seeds = [np.full(n, x / n) for x in (0.3, 0.1, 0.6)]
    for i in range(max(0, starts - len(seeds))):
        s = np.full(n, 0.02 / n)
        s[i % n] = 0.4
        seeds.append(s)
    seeds = seeds[:starts]

    sigma, eq, payoff, kkt = _best_ascent(problem, seeds, _shares(problem))

    vals = _balance_values(problem, sigma, eq)
    positive = np.flatnonzero(sigma > ACTIVITY_TOL)
    if vals is None:
        balance_residual = None
    elif positive.size:
        ref = vals[positive]
        scale = max(abs(float(np.mean(ref))), 1e-12)
        balance_residual = float((np.max(ref) - np.min(ref)) / scale)
    else:
        balance_residual = 0.0

    unrestricted = None
    if compare_unrestricted:
        unrestricted = optimize_general(problem).principal_payoff

    return EquityResult(
        shares=sigma,
        equilibrium=eq,
        principal_payoff=payoff,
        balance_values=vals,
        balance_residual=balance_residual,
        kkt_residual=kkt,
        unrestricted_payoff=unrestricted,
    )
