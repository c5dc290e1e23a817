"""Effort-game equilibrium solvers.

Two paths: a specialized solver for the quadratic-network / binary-outcome
environment (linear money utility, unit quadratic costs), which is one linear
solve under a linear success probability and otherwise one scalar root of the
performance fixed point in the eigenbasis of ``T^{1/2} G T^{1/2}``, and a
general damped best-response solver for arbitrary production / outcome /
utility / cost combinations.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .model import (
    CapExceededError,
    Contract,
    DomainError,
    EquilibriumResult,
    LinearCappedSuccess,
    Network,
    Problem,
    SuccessProbability,
)

__all__ = [
    "EquilibriumError",
    "spectral_radius",
    "solve_equilibrium_quadratic_binary",
    "solve_equilibrium_general",
]


class EquilibriumError(RuntimeError):
    """Solver failed; ``best`` carries the last iterate when available."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square matrix, from a dense eigensolve."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        return 0.0
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


# ---------------------------------------------------------------------------
# quadratic-network binary-outcome solver
# ---------------------------------------------------------------------------


def _candidate_actions(g: np.ndarray, tau: np.ndarray, standalone: np.ndarray, slope: float) -> np.ndarray:
    """Solve [I - slope*T*G] a = slope * T * standalone for the action profile."""
    n = tau.size
    m = np.eye(n) - slope * (tau[:, None] * g)
    rhs = slope * tau * standalone
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise EquilibriumError(f"singular best-response system: {exc}") from exc


def _performance_map(c, weights, modes) -> float:
    """Equilibrium performance at the slope ``c = P'(Y)``, from the modes of
    ``S = T^{1/2} G T^{1/2}``: eigenvalues ``modes`` and squared loadings
    ``weights`` of ``T^{1/2} b``; valid while ``c * max(modes) < 1``."""
    q = 1.0 - c * modes
    return float(np.sum(weights * (c / q + c * c * modes / (2.0 * q ** 2))))


def _performance_fixed_point(weights, modes, p: SuccessProbability,
                             tol: float = 1e-15, max_iter: int = 200) -> tuple[float, int]:
    """Root of ``y = Y(P'(y))`` (``Y`` as in ``_performance_map``) on the range
    where ``P'(y) * max(modes) < 1``, by brentq; returns the root and the
    number of map evaluations brentq made.

    ``Y`` increases in the slope and a concave ``P`` has a decreasing ``P'``,
    so ``Y(P'(y)) - y`` is strictly decreasing on that range.  Below it, where
    the spectral condition fails, the map counts as ``+inf``, which keeps the
    bracket's lower end at 0.
    """
    lam_max = float(np.max(modes))

    def excess(y: float) -> float:
        c = float(p.deriv(y))
        return (np.inf if c * lam_max >= 1.0 else _performance_map(c, weights, modes)) - y

    y_hi = 1.0
    for _ in range(200):
        if excess(y_hi) <= 0.0:
            break
        y_hi *= 2.0
    else:
        raise EquilibriumError("candidate performance exceeds the diagonal everywhere")
    y, info = brentq(excess, 0.0, y_hi, xtol=tol, maxiter=max_iter, full_output=True, disp=False)
    if not info.converged:
        raise EquilibriumError(f"performance fixed point not found in {max_iter} steps")
    return y, info.function_calls


def solve_equilibrium_quadratic_binary(
    network: Network,
    tau,
    p: SuccessProbability,
    standalone=None,
    *,
    tol: float = 1e-13,
    max_iter: int = 200,
) -> EquilibriumResult:
    """Unique equilibrium of the quadratic-network success/failure game.

    ``tau`` holds success payments (failure payments are zero); utilities
    are linear and costs quadratic ``a^2/2``.  The profile solves
    ``[I - P'(Y) T G] a = P'(Y) T b`` at the unique performance fixed point
    inside the range where ``P'(y) rho(TG) < 1``.  ``TG`` has the spectrum
    of the symmetric ``S = T^{1/2} G T^{1/2}``, so ``rho`` is ``S``'s largest
    eigenvalue.  Under a linear success probability ``P'`` is the constant
    slope, so this is one linear solve (``iterations`` is 1); otherwise the
    fixed point is a root of an O(n) map in ``S``'s eigenbasis, found by
    brentq (``iterations`` counts its map evaluations), and the profile is
    one solve at the fixed point's slope.
    """
    tau = np.asarray(tau, dtype=float)
    g = network.matrix
    n = network.n
    if tau.shape != (n,):
        raise DomainError(f"tau must have shape ({n},)")
    if np.any(tau < 0):
        raise DomainError("success payments must be nonnegative")
    if np.any(g < 0) or not np.array_equal(g, g.T):
        raise DomainError("network matrix must be symmetric and nonnegative")
    if not p.concave_on_nonneg():
        raise DomainError("success probability must be concave on the working range")
    b = np.ones(n) if standalone is None else np.asarray(standalone, dtype=float)

    if not np.any(tau > 0):
        probs = np.array([1.0 - float(p.value(0.0)), float(p.value(0.0))])
        return EquilibriumResult(
            actions=np.zeros(n), performance=0.0, probs=probs,
            iterations=0, residual=0.0, spectral_margin=1.0,
        )

    root_tau = np.sqrt(tau)
    s = root_tau[:, None] * g * root_tau
    linear = isinstance(p, LinearCappedSuccess)
    if linear:
        # P' is constant below the cap, so the candidate map does not depend
        # on y: one solve at the slope is the equilibrium.
        rho = float(np.linalg.eigvalsh(s)[-1])
        if p.slope * rho >= 1.0:
            raise EquilibriumError(
                f"no equilibrium: slope * spectral radius = {p.slope * rho:.6g} >= 1"
            )
        slope, iterations = float(p.slope), 1
    else:
        modes, vecs = np.linalg.eigh(s)
        rho = float(modes[-1])
        loadings = vecs.T @ (root_tau * b)
        y_fixed, iterations = _performance_fixed_point(loadings ** 2, modes, p, tol, max_iter)
        slope = float(p.deriv(y_fixed))
    a = _candidate_actions(g, tau, b, slope)
    y_star = float(a @ b + 0.5 * a @ g @ a)
    if linear and y_star > p.cap * (1.0 - 1e-12):
        raise CapExceededError("equilibrium performance would reach the success-probability cap")
    slope = float(p.deriv(y_star))
    residual = float(np.max(np.abs(a - slope * tau * (b + g @ a))))
    success = float(p.value(y_star))
    margin = 1.0 - slope * rho
    if margin <= 0.0:
        raise EquilibriumError(f"equilibrium violates the spectral condition: margin {margin:.3g}")
    return EquilibriumResult(
        actions=a,
        performance=y_star,
        probs=np.array([1.0 - success, success]),
        iterations=iterations,
        residual=residual,
        spectral_margin=margin,
    )


# ---------------------------------------------------------------------------
# general solver
# ---------------------------------------------------------------------------


def default_action_bound(contract: Contract) -> float:
    """Effort cap for solver search grids: 10 * (total best-case pay + 1)."""
    return 10.0 * (float(np.max(contract.payments, axis=1).sum()) + 1.0)


def _agent_payoff(problem: Problem, u_levels: np.ndarray, i: int, a: np.ndarray, ai) -> np.ndarray:
    """Expected utility of agent i along a batch of own actions ``ai``."""
    ai = np.asarray(ai, dtype=float)
    pts = np.broadcast_to(a, ai.shape + a.shape).copy()
    pts[..., i] = ai
    y = problem.production.value(pts)
    probs = problem.outcomes.probs(y)
    return probs @ u_levels[i] - problem.costs[i].value(ai)


def _probs_derivs_guarded(outcomes, y: float):
    """Outcome derivatives for search interiors: past a probability cap the
    curve is flat, so slopes are zero there (the kink itself carries no
    equilibrium; converged solutions are re-checked against the true range)."""
    try:
        return outcomes.probs_derivs(y)
    except CapExceededError:
        p = np.asarray(outcomes.probs(y), dtype=float)
        zero = np.zeros_like(p)
        return p, zero, zero


def _marginal_gain(problem: Problem, u_levels: np.ndarray, i: int, a: np.ndarray, ai: float) -> float:
    """First-order condition value g(ai) = (sum_s P_s' u_is) dY/da_i - C'(ai)."""
    pt = a.copy()
    pt[i] = ai
    y = float(problem.production.value(pt))
    _, dp, _ = _probs_derivs_guarded(problem.outcomes, y)
    benefit = float(dp @ u_levels[i]) * problem.production.partial(pt, i)
    return benefit - float(problem.costs[i].marginal(ai))


def _marginal_gain_slope(problem: Problem, u_levels: np.ndarray, i: int, a: np.ndarray, ai: float) -> float:
    pt = a.copy()
    pt[i] = ai
    y = float(problem.production.value(pt))
    _, dp, d2p = _probs_derivs_guarded(problem.outcomes, y)
    dy = problem.production.partial(pt, i)
    d2y = problem.production.partial2(pt, i)
    return (
        float(d2p @ u_levels[i]) * dy * dy
        + float(dp @ u_levels[i]) * d2y
        - float(problem.costs[i].curvature(ai))
    )


def _refine_root(problem, u_levels, i, a, lo, hi) -> float:
    """Safeguarded Newton for the first-order condition inside a bracket with
    g(lo) > 0 >= g(hi): a step that leaves the bracket takes its midpoint."""
    x = 0.5 * (lo + hi)
    for _ in range(100):
        gx = _marginal_gain(problem, u_levels, i, a, x)
        if gx > 0.0:
            lo = x
        else:
            hi = x
        slope = _marginal_gain_slope(problem, u_levels, i, a, x)
        if slope < 0.0:
            x_new = x - gx / slope
            if not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
        else:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-16 * max(1.0, x):
            return x_new
        x = x_new
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return x


def _best_response(problem: Problem, u_levels: np.ndarray, i: int, a: np.ndarray,
                   a_max: float, hint: float | None = None) -> float:
    """Agent i's best response: probe for sign changes of the first-order
    condition, then safeguarded Newton in each bracket;
    multiple roots are resolved by comparing payoffs.  A ``hint`` near the
    previous response tries a cheap local bracket before the full probe grid.
    """
    if hint is not None and hint > 1e-9:
        lo, hi = 0.7 * hint, 1.45 * hint
        g_lo = _marginal_gain(problem, u_levels, i, a, lo)
        g_hi = _marginal_gain(problem, u_levels, i, a, hi)
        if g_lo > 0.0 >= g_hi:
            return float(_refine_root(problem, u_levels, i, a, lo, hi))
    probes = np.unique(np.concatenate([
        np.geomspace(1e-11, a_max, 24),
        np.linspace(a_max / 12.0, a_max, 12),
    ]))
    gains = np.array([_marginal_gain(problem, u_levels, i, a, x) for x in probes])

    brackets = []
    for k in range(len(probes) - 1):
        if gains[k] > 0.0 >= gains[k + 1]:
            brackets.append((probes[k], probes[k + 1]))
    if not brackets:
        if gains[0] <= 0.0:
            return 0.0
        # gain positive everywhere on the probe range: cost eventually wins,
        # so the bound itself is binding; report it and let the caller's
        # residual check flag the anomaly.
        return float(a_max)

    roots = [_refine_root(problem, u_levels, i, a, lo, hi) for lo, hi in brackets]

    candidates = [0.0] + roots if gains[0] <= 0.0 else roots
    if len(candidates) == 1:
        return float(candidates[0])
    payoffs = [float(_agent_payoff(problem, u_levels, i, a, x)) for x in candidates]
    return float(candidates[int(np.argmax(payoffs))])


def _foc_residual(problem: Problem, u_levels: np.ndarray, a: np.ndarray) -> float:
    res = 0.0
    for i in range(problem.n):
        if a[i] > 0.0:
            res = max(res, abs(_marginal_gain(problem, u_levels, i, a, a[i])))
        else:
            # At a corner only upward deviations matter.
            res = max(res, max(0.0, _marginal_gain(problem, u_levels, i, a, 1e-9)))
    return res


def _newton_snap(problem: Problem, u_levels: np.ndarray, a: np.ndarray, steps: int = 6):
    """Full-system Newton on the interior first-order conditions, used as a
    terminal accelerator once damped best responses are close; the caller
    re-verifies the result with an exact best-response pass."""
    support = np.flatnonzero(a > 1e-12)
    if support.size == 0:
        return a
    x = a.copy()
    for _ in range(steps):
        y = float(problem.production.value(x))
        try:
            _, dp, d2p = problem.outcomes.probs_derivs(y)
        except DomainError:
            return None
        grad = np.array([problem.production.partial(x, i) for i in support])
        sens = np.array([float(dp @ u_levels[i]) for i in support])
        curve = np.array([float(d2p @ u_levels[i]) for i in support])
        f = np.array([
            sens[k] * grad[k] - float(problem.costs[i].marginal(x[i]))
            for k, i in enumerate(support)
        ])
        if np.max(np.abs(f)) < 1e-15:
            return x
        try:
            hess = problem.production.hessian(x)[np.ix_(support, support)]
        except DomainError:
            return None
        jac = (
            np.outer(curve * grad, grad)
            + sens[:, None] * hess
            - np.diag([float(problem.costs[i].curvature(x[i])) for i in support])
        )
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        x_new = x.copy()
        x_new[support] = x[support] + np.clip(delta, -0.5 * np.maximum(x[support], 0.1), 0.5 * np.maximum(x[support], 0.1))
        if np.any(x_new[support] <= 0.0):
            return None
        x = x_new
    return x


def solve_equilibrium_general(
    problem: Problem,
    contract: Contract,
    init=None,
    *,
    tol: float = 1e-9,
    damping: float = 0.5,
    max_sweeps: int = 10_000,
    check_grid: int = 64,
) -> EquilibriumResult:
    """Damped simultaneous best-response iteration for arbitrary problems.

    Converges when both the sweep-to-sweep change and the per-agent
    first-order-condition residual fall below ``tol``; afterwards each
    agent's action is compared against a coarse payoff grid (``check_grid``
    points on [0, a_max]) and the outcome recorded in
    ``global_check_passed``.
    """
    n = problem.n
    if contract.payments.shape != (n, problem.n_outcomes):
        raise DomainError("contract shape does not match the problem")
    if np.any(contract.payments < 0):
        raise DomainError("payments must be nonnegative")

    u_levels = np.array([
        problem.utilities[i].value(contract.payments[i]) for i in range(n)
    ])
    a_max = default_action_bound(contract)
    a = np.full(n, 0.1) if init is None else np.asarray(init, dtype=float).copy()
    a = np.clip(a, 0.0, a_max)

    sweeps = 0
    converged = False
    snap_gate = max(1e-4, 10.0 * tol)
    hints = [None] * n
    for sweeps in range(1, max_sweeps + 1):
        br = np.array([
            _best_response(problem, u_levels, i, a, a_max, hint=hints[i]) for i in range(n)
        ])
        hints = list(br)
        gap = float(np.max(np.abs(br - a)))

        def _accept(candidate: np.ndarray) -> bool:
            # Final acceptance always re-derives best responses with the full
            # probe scan, so a warm hint cannot have latched onto a local root.
            full = np.array([
                _best_response(problem, u_levels, i, candidate, a_max) for i in range(n)
            ])
            return (
                float(np.max(np.abs(full - candidate))) <= tol
                and _foc_residual(problem, u_levels, candidate) <= tol
            )

        if gap <= tol:
            if _accept(br):
                a = br
                converged = True
                break
            a = br
        elif gap <= snap_gate:
            # Close to the fixed point: a full-system Newton snap on the
            # first-order conditions saves dozens of damped sweeps.
            snapped = _newton_snap(problem, u_levels, br)
            if snapped is not None and np.all(snapped >= 0.0) and _accept(snapped):
                a = snapped
                converged = True
                break
            snap_gate /= 10.0  # snap failed; retry only once materially closer
            a = (1.0 - damping) * a + damping * br
        else:
            a = (1.0 - damping) * a + damping * br
    if not converged:
        raise EquilibriumError(
            f"best-response iteration did not converge in {max_sweeps} sweeps", best=a
        )
    residual = _foc_residual(problem, u_levels, a)

    y = float(problem.production.value(a))
    probs, _, _ = problem.outcomes.probs_derivs(y)

    passed = True
    grid = np.linspace(0.0, a_max, check_grid)
    for i in range(n):
        here = float(_agent_payoff(problem, u_levels, i, a, a[i]))
        best_grid = float(np.max(_agent_payoff(problem, u_levels, i, a, grid)))
        if best_grid > here + 1e-9 * (1.0 + abs(here)):
            passed = False

    return EquilibriumResult(
        actions=a,
        performance=y,
        probs=np.asarray(probs, dtype=float),
        iterations=sweeps,
        residual=residual,
        spectral_margin=None,
        global_check_passed=passed,
    )
