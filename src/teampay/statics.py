"""Comparative statics around optimal quadratic-binary contracts.

Closed-form derivatives of optimal payments and of equilibrium performance
with respect to link weights, plus grid sweeps that re-optimize the
contract at every parameter value and emit a stable CSV.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .contract_opt import OptimalContractResult, OptimizationError, optimize_quadratic_binary
from .equilibrium import EquilibriumError
from .model import CapExceededError, LinearCappedSuccess, ModelError, Network, SuccessProbability

__all__ = [
    "StaticsError",
    "SweepCurve",
    "ShareDerivatives",
    "dshare_dlink",
    "dperformance_dlink",
    "sweep",
    "sweep_to_csv",
    "parse_parameter",
    "network_along",
]


class StaticsError(RuntimeError):
    pass


@dataclass(frozen=True)
class ShareDerivatives:
    """``tensor[i, j, k]`` is the derivative of agent i's optimal payment in
    the (j, k) link weight; entries involving inactive agents are zero and
    the j == k diagonal is structurally zero.  ``includes_share_response``
    records whether the optimal total share's own adjustment (available in
    closed form under a linear success probability) is folded in."""

    tensor: np.ndarray
    active: tuple
    includes_share_response: bool


def dshare_dlink(network: Network, p: SuccessProbability, opt: OptimalContractResult) -> ShareDerivatives:
    """Closed-form derivative of each active agent's optimal payment with
    respect to each active link weight.

    The balanced-equity structure gives payments ``tau = lam * Ginv @ 1`` on
    the active set; differentiating the inverse and the equity level yields
    the formula.  Under a linear success probability the optimal total
    share's response enters through the share cubic; otherwise the
    share-fixed partial is reported (``includes_share_response`` False).
    """
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
    kstar = float(np.sum(t))

    # Only distinct endpoints j != k name a link: the j == k diagonal is 0.
    link = ~np.eye(agents.size, dtype=bool)
    # Equity level at fixed total share: lam = s / kstar with
    # d kstar / d G_jk = -2 t_j t_k.
    dlam = 2.0 * tau[:, None] * tau[None, :] / s

    include_share_response = isinstance(p, LinearCappedSuccess)
    if include_share_response:
        kappa = p.slope
        dp_ds = -3.0 * kappa**2 * s**2 + 6.0 * kappa * kstar * s - 4.0 * kstar**2
        dp_dk = 3.0 * kappa * s**2 - 8.0 * kstar * s + 4.0 * kstar
        ds = (dp_dk / dp_ds) * 2.0 * t[:, None] * t[None, :]
        dlam += ds / kstar

    # block[i, j, k] = -Ginv_ik tau_j - Ginv_ij tau_k + dlam_jk tau_i / lam
    block = (
        -ginv[:, None, :] * tau[None, :, None]
        - ginv[:, :, None] * tau[None, None, :]
        + dlam[None, :, :] * tau[:, None, None] / lam
    )
    n = network.n
    tensor = np.zeros((n, n, n))
    tensor[np.ix_(agents, agents, agents)] = np.where(link[None, :, :], block, 0.0)
    return ShareDerivatives(
        tensor=tensor,
        active=tuple(int(i) for i in agents),
        includes_share_response=include_share_response,
    )


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


def parse_parameter(parameter: str, n: int):
    """Sweep parameter name: ``beta`` for the global complementarity scale,
    or a 1-based link name like ``G23`` (``G2_13`` past nine agents)."""
    if parameter == "beta":
        return ("beta", None)
    m = re.fullmatch(r"G(\d+)_(\d+)", parameter) or re.fullmatch(r"G(\d)(\d)", parameter)
    if not m:
        raise StaticsError(f"cannot parse parameter {parameter!r}; expected 'beta' or 'Gij'")
    i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise StaticsError(f"link {parameter!r} is out of range for {n} agents")
    return ("edge", (i, j))


def network_along(network: Network, parameter: str):
    """The network at each value of a sweep parameter, as a function of the
    value: ``beta`` scales every link weight, a link name sets that weight."""
    kind, edge = parse_parameter(parameter, network.n)
    return network.with_scale if kind == "beta" else partial(network.with_edge, *edge)


def sweep(network: Network, p: SuccessProbability, parameter: str, grid) -> SweepCurve:
    """Re-optimize the contract at each grid value of the parameter."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0.0):
        raise StaticsError("grid must be a nonempty strictly increasing vector")
    network_at = network_along(network, parameter)
    n = network.n

    def run(value: float):
        net = network_at(value)
        try:
            opt = optimize_quadratic_binary(net, p)
        except (OptimizationError, EquilibriumError, CapExceededError, ModelError) as exc:
            return None, str(exc)
        return opt, None

    results = [run(v) for v in grid]

    m = grid.size
    payments = np.full((m, n), np.nan)
    principal = np.full(m, np.nan)
    agent = np.full((m, n), np.nan)
    perf = np.full(m, np.nan)
    active_sets = []
    errors = []
    for row, (opt, err) in enumerate(results):
        errors.append(err)
        if opt is None:
            active_sets.append(())
            continue
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
