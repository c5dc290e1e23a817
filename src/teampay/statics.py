"""Comparative statics around optimal quadratic-binary contracts.

Derivatives of optimal payments and of equilibrium performance with respect
to link weights: closed form at a fixed total share, with the optimal
share's response taken by implicit differentiation of the optimizer's own
performance payoff; plus grid sweeps that re-optimize the contract at every
parameter value and emit a stable CSV.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .contract_opt import (OptimalContractResult, OptimizationError, _balanced_share, _performance_ceiling,
                           _quadratic_closed_forms)
from .equilibrium import EquilibriumError
from .model import ModelError, Network, SuccessProbability

__all__ = [
    "StaticsError",
    "SweepCurve",
    "dshare_dlink",
    "dperformance_dlink",
    "sweep",
    "sweep_to_csv",
    "network_along",
]


class StaticsError(RuntimeError):
    pass


# A grid point's own failures, which a grid records for that point and goes
# on: the optimization, its equilibrium, the derivatives, or an invalid network.
_POINT_ERRORS = (OptimizationError, EquilibriumError, StaticsError, ModelError)


def _share_response(p: SuccessProbability, y: float, rate: float) -> float:
    """Derivative in the share rate of the optimal total share
    ``s(y*, rate)`` (``_balanced_share``), where ``y*`` maximizes the
    optimizer's payoff ``Pi(y) = (1 - s(y, rate)) P(y)`` up to the
    performance ceiling.  At an interior ``y*``, ``dy*/d rate = -Pi_y,rate /
    Pi_yy``; at the ceiling ``y*`` stays put.  The partials are central
    differences with steps ``1e-4 y`` and ``1e-4 rate``."""
    h = min(1e-4 * y, _performance_ceiling(p) - y)
    hr = 1e-4 * rate
    step = np.array([-1.0, 0.0, 1.0])
    ys = y + h * step
    s = _balanced_share(ys[:, None], rate + hr * step, p)
    s_rate = (s[1, 2] - s[1, 0]) / (2.0 * hr)
    # The search resolves a maximum at the ceiling to 1e-11 of it.
    if h <= 1e-9 * y:
        return s_rate
    pay = (1.0 - s) * p.value(ys)[:, None]
    pi_yy = (pay[2, 1] - 2.0 * pay[1, 1] + pay[0, 1]) / h**2
    pi_yr = (pay[2, 2] - pay[2, 0] - pay[0, 2] + pay[0, 0]) / (4.0 * h * hr)
    s_y = (s[2, 1] - s[0, 1]) / (2.0 * h)
    return s_rate - s_y * pi_yr / pi_yy


def dshare_dlink(network: Network, p: SuccessProbability, opt: OptimalContractResult) -> np.ndarray:
    """Derivative of each agent's optimal payment in each link weight, as an
    ``(n, n, n)`` array: ``[i, j, k]`` is the derivative of agent i's payment
    in the (j, k) link weight, the optimal total share's own response
    included.  Entries involving inactive agents are zero, and the j == k
    diagonal is zero by construction.

    Payments are ``tau = s * rate * t`` on the active set, with ``t = Ginv @
    1``, ``rate = 1 / sum(t)`` and ``s`` the optimal total share;
    differentiating the inverse gives ``d rate / d G_jk = 2 t_j t_k rate^2``,
    and ``s`` follows the rate as ``_share_response`` says."""
    agents = np.asarray(opt.active_set, dtype=int)
    if agents.size < 2:
        raise StaticsError("link derivatives need at least two active agents")
    g = network.matrix[np.ix_(agents, agents)]
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise StaticsError(f"active subnetwork is singular: {exc}") from exc

    tau = opt.contract.payments[agents, 1]
    s = float(np.sum(tau))
    lam = opt.balance_constant
    if lam is None or lam <= 0.0:
        raise StaticsError("optimum does not carry a balanced equity constant")
    t = tau / lam
    rate = lam / s

    # Only distinct endpoints j != k name a link: the j == k diagonal is 0.
    link = ~np.eye(agents.size, dtype=bool)
    # d lam = (s + rate * ds/d rate) d rate, since lam = s * rate.
    drate = 2.0 * rate**2 * t[:, None] * t[None, :]
    dlam = (s + rate * _share_response(p, opt.equilibrium.performance, rate)) * drate

    # block[i, j, k] = -Ginv_ik tau_j - Ginv_ij tau_k + dlam_jk tau_i / lam
    block = (
        -ginv[:, None, :] * tau[None, :, None]
        - ginv[:, :, None] * tau[None, None, :]
        + dlam[None, :, :] * tau[:, None, None] / lam
    )
    n = network.n
    tensor = np.zeros((n, n, n))
    tensor[np.ix_(agents, agents, agents)] = np.where(link[None, :, :], block, 0.0)
    return tensor


def dperformance_dlink(p: SuccessProbability, opt: OptimalContractResult) -> np.ndarray:
    """Derivative of equilibrium performance in each link weight, holding
    the contract fixed (envelope form): proportional to the product of the
    two endpoint payments."""
    lam = opt.balance_constant
    if lam is None:
        raise StaticsError("optimum does not carry a balanced equity constant")
    y = opt.equilibrium.performance
    slope = float(p.deriv(y))
    curve = float(p.second(y))
    tau = opt.contract.payments[:, 1]
    total = float(np.sum(tau))
    q = 1.0 - lam * slope
    h = slope**2 * (2.0 / q**3 + 1.0 / q**2) / (1.0 - curve * total / q**3)
    out = h * np.outer(tau, tau)
    np.fill_diagonal(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCurve:
    """Re-optimized contracts along a parameter grid.

    Failed grid points keep NaN rows and carry their error message in
    ``errors``; the grid itself is always strictly increasing.
    """

    parameter: str
    grid: np.ndarray
    payments: np.ndarray          # (m, n) success payments
    principal_payoffs: np.ndarray
    agent_payoffs: np.ndarray     # (m, n)
    performance: np.ndarray
    active_sets: tuple
    errors: tuple


def network_along(network: Network, parameter: str):
    """The network at each value of a sweep parameter, as a function of the
    value: ``beta`` scales every link weight; a 1-based link name like
    ``G23`` (``G2_13`` past nine agents) sets that weight."""
    if parameter == "beta":
        return network.with_scale
    m = re.fullmatch(r"G(\d+)_(\d+)", parameter) or re.fullmatch(r"G(\d)(\d)", parameter)
    if not m:
        raise StaticsError(f"cannot parse parameter {parameter!r}; expected 'beta' or 'Gij'")
    i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
    n = network.n
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise StaticsError(f"link {parameter!r} is out of range for {n} agents")
    return partial(network.with_edge, i, j)


# Network-matrix entries per chunk of grid points that ``sweep`` solves
# together: 113 points at n = 3, one point from n = 32.  Never more than
# ``contract_opt._CHUNK`` networks.
_CHUNK_ENTRIES = 1024


def sweep(network: Network, p: SuccessProbability, parameter: str, grid) -> SweepCurve:
    """Re-optimize the contract at each grid value of the parameter.

    The grid is solved in chunks of ``_CHUNK_ENTRIES // n**2`` points (at
    least one) by ``_quadratic_closed_forms``: one batched ranking of the
    chunk's active sets and one stacked solve of its equilibria, with the
    optimal share searched point by point.  Memory therefore grows with the
    chunk, not with the grid.  Every row is bit for bit the
    ``optimize_quadratic_binary`` optimum at its point, without the balance
    certificate that the curve does not report, and a point that fails gets
    NaN cells and its own error message without affecting the others."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0.0):
        raise StaticsError("grid must be a nonempty strictly increasing vector")
    network_at = network_along(network, parameter)
    n = network.n
    m = grid.size
    payments = np.full((m, n), np.nan)
    principal = np.full(m, np.nan)
    agent = np.full((m, n), np.nan)
    perf = np.full(m, np.nan)
    active_sets = []
    errors = []
    chunk = max(1, _CHUNK_ENTRIES // n**2)
    for start in range(0, m, chunk):
        optima = _quadratic_closed_forms([network_at(value) for value in grid[start:start + chunk]], p)
        for row, opt in enumerate(optima, start):
            if isinstance(opt, _POINT_ERRORS):
                errors.append(str(opt))
                active_sets.append(())
                continue
            if isinstance(opt, Exception):
                raise opt
            errors.append(None)
            tau = opt.contract.payments[:, 1]
            payments[row] = tau
            principal[row] = opt.principal_payoff
            perf[row] = opt.equilibrium.performance
            success = opt.equilibrium.probs[1]
            agent[row] = success * tau - 0.5 * opt.equilibrium.actions**2
            active_sets.append(opt.active_set)

    return SweepCurve(
        parameter=parameter,
        grid=grid,
        payments=payments,
        principal_payoffs=principal,
        agent_payoffs=agent,
        performance=perf,
        active_sets=tuple(active_sets),
        errors=tuple(errors),
    )


def sweep_to_csv(curve: SweepCurve) -> str:
    """Stable column order: parameter, payments, principal payoff, agent
    payoffs, performance, active-set bitmask."""
    n = curve.payments.shape[1]
    buf = io.StringIO()
    header = (
        [curve.parameter]
        + [f"payment_{i}" for i in range(n)]
        + ["principal_payoff"]
        + [f"agent_payoff_{i}" for i in range(n)]
        + ["performance", "active_set"]
    )
    buf.write(",".join(header) + "\n")
    for row in range(curve.grid.size):
        mask = sum(1 << i for i in curve.active_sets[row])
        cells = (
            [curve.grid[row]]
            + list(curve.payments[row])
            + [curve.principal_payoffs[row]]
            + list(curve.agent_payoffs[row])
            + [curve.performance[row]]
        )
        buf.write(",".join(f"{x:.17g}" for x in cells) + f",{mask}\n")
    return buf.getvalue()
