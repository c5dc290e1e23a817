"""Effort-game equilibrium solvers.

Two paths: a specialized solver for the quadratic-network / binary-outcome
environment (linear money utility, unit quadratic costs), which is one linear
solve under a linear success probability and otherwise one scalar root of the
performance fixed point in the eigenbasis of ``T^{1/2} G T^{1/2}``, and a
general damped best-response solver with a Newton corrector for arbitrary
production / outcome / utility / cost combinations.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .model import (
    CapExceededError,
    Contract,
    DomainError,
    EquilibriumResult,
    LinearCappedSuccess,
    Network,
    Problem,
    SuccessProbability,
    _dot_last,
)

__all__ = [
    "EquilibriumError",
    "brentq",
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


_BRENT_RTOL = 4.0 * sys.float_info.epsilon  # a Python float keeps the loop out of numpy scalars
_FIXED_POINT_TOL = 1e-13   # Brent bracket width at which the performance fixed point stops
_FIXED_POINT_STEPS = 200   # Brent step budget of the performance fixed point


def brentq(f, a: float, b: float, *, xtol: float, maxiter: int = 100) -> tuple[float, int, bool]:
    """Root of ``f`` in the sign-changing bracket ``[a, b]`` by Brent's method
    (Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 4),
    ported step for step from the reference C routine with ``rtol = 4 eps``:
    the same iterates and the same number of evaluations, which
    ``tests/test_equilibrium.py`` checks bit for bit.

    Returns the root, the number of evaluations of ``f``, and whether the
    bracket shrank below ``xtol + rtol |x|`` within ``maxiter`` steps (when
    it did not, the root is the last iterate).  Raises ``ValueError`` on a
    bracket whose ends have the same sign or on a NaN value of ``f``.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    calls = 2
    if fpre == 0.0:
        return xpre, calls, True
    if fcur == 0.0:
        return xcur, calls, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, calls, True
        # Interpolate where the last step was long enough and improved on
        # the one before; take the step only if it is short, else bisect.
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # C's step is infinite or NaN here, which the test below rejects
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
        calls += 1
    return xcur, calls, False


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


def _performance_fixed_point(weights, modes, p: SuccessProbability) -> tuple[float, int]:
    """Root of ``y = Y(P'(y))`` (``Y`` as in ``_performance_map``) on the range
    where ``P'(y) * max(modes) < 1``, by :func:`brentq` to ``_FIXED_POINT_TOL``
    within ``_FIXED_POINT_STEPS`` steps; returns the root and the number of
    map evaluations it made.

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
    y, calls, converged = brentq(excess, 0.0, y_hi, xtol=_FIXED_POINT_TOL, maxiter=_FIXED_POINT_STEPS)
    if not converged:
        raise EquilibriumError(f"performance fixed point not found in {_FIXED_POINT_STEPS} steps")
    return y, calls


def solve_equilibrium_quadratic_binary(network: Network, tau, p: SuccessProbability,
                                       standalone=None) -> EquilibriumResult:
    """Unique equilibrium of the quadratic-network success/failure game.

    ``tau`` holds success payments (failure payments are zero); utilities
    are linear and costs quadratic ``a^2/2``.  The profile solves
    ``[I - P'(Y) T G] a = P'(Y) T b`` at the unique performance fixed point
    inside the range where ``P'(y) rho(TG) < 1``.  ``TG`` has the spectrum
    of the symmetric ``S = T^{1/2} G T^{1/2}``, so ``rho`` is ``S``'s largest
    eigenvalue.  Under a linear success probability ``P'`` is the constant
    slope, so this is one linear solve (``iterations`` is 1); otherwise the
    fixed point is a root of an O(n) map in ``S``'s eigenbasis, found by
    :func:`brentq` (``iterations`` counts its map evaluations), and the
    profile is one solve at the fixed point's slope.
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
        y_fixed, iterations = _performance_fixed_point(loadings ** 2, modes, p)
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


def _profiles(a: np.ndarray, i: int, ai: np.ndarray) -> np.ndarray:
    """Copies of the profile ``a`` with agent i's action set to each entry of
    ``ai``: shape ``ai.shape + a.shape``."""
    pts = np.empty(ai.shape + a.shape)
    pts[...] = a
    pts[..., i] = ai
    return pts


def _agent_payoff(problem: Problem, u_levels: np.ndarray, i: int, a: np.ndarray, ai) -> np.ndarray:
    """Expected utility of agent i along a batch of own actions ``ai``."""
    ai = np.asarray(ai, dtype=float)
    pts = _profiles(a, i, ai)
    y = problem.production.value(pts)
    probs = problem.outcomes.probs(y)
    return probs @ u_levels[i] - problem.costs[i].value(ai)


def _past_cap(outcomes, y, rel: float = 0.0) -> np.ndarray:
    """Mask of the performances at or past a capped success probability's
    kink, or within ``rel`` (relative) below it."""
    success = getattr(outcomes, "success", None)
    if isinstance(success, LinearCappedSuccess):
        return np.asarray(y) * success.slope >= 1.0 - rel
    return np.zeros(np.shape(y), dtype=bool)


def _foc(problem: Problem, u_levels: np.ndarray, i: int, a: np.ndarray, ai):
    """First-order condition of agent i along a batch of own actions ``ai``:
    ``g = (sum_s P_s' u_is) dY/da_i - C_i'`` and its slope ``g'``, each of
    ``ai``'s shape.  Past a probability cap the curve is flat, so the outcome
    slopes are zero there (the kink itself carries no equilibrium; converged
    solutions are re-checked against the true range)."""
    ai = np.asarray(ai, dtype=float)
    pts = _profiles(a, i, ai)
    y = problem.production.value(pts)
    past = _past_cap(problem.outcomes, y)
    _, dp, d2p = problem.outcomes.probs_derivs(np.where(past, 0.0, y))
    sens = np.where(past, 0.0, _dot_last(dp, u_levels[i]))
    curve = np.where(past, 0.0, _dot_last(d2p, u_levels[i]))
    dy = problem.production.partial(pts, i)
    d2y = problem.production.partial2(pts, i)
    cost = problem.costs[i]
    return (
        sens * dy - cost.marginal(ai),
        curve * dy * dy + sens * d2y - cost.curvature(ai),
    )


_NEWTON_STOP = 4.0 * np.finfo(float).eps  # relative step at which Newton has converged
_SNAP_STEPS = 6       # full-system Newton steps per corrector call
_DAMPING = 0.5        # weight of the best-response profile in a damped step
_MAX_SWEEPS = 10_000  # best-response sweep budget
_CHECK_GRID = 64      # payoff-grid points of the global best-response check


def _refine_root(problem, u_levels, i, a, lo, hi, start=None) -> float:
    """Safeguarded Newton for the first-order condition inside a bracket with
    g(lo) > 0 >= g(hi), from ``start`` when it lies strictly inside the
    bracket and from the bracket's midpoint otherwise: a step that leaves the
    bracket takes its midpoint.  Stops at an exact zero of g, or once the
    step is within four ulps of the iterate, which is as close as double
    precision resolves a root."""
    x = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
    for _ in range(100):
        gx, slope = (float(v) for v in _foc(problem, u_levels, i, a, x))
        if gx == 0.0:
            return x
        if gx > 0.0:
            lo = x
        else:
            hi = x
        if slope < 0.0:
            x_new = x - gx / slope
            if not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
        else:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= _NEWTON_STOP * max(1.0, abs(x)):
            return x_new
        x = x_new
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return x


def _best_response(problem: Problem, u_levels: np.ndarray, i: int, a: np.ndarray, a_max: float,
                   start=None) -> float:
    """Agent i's best response: probe for sign changes of the first-order
    condition, then safeguarded Newton in each bracket (from ``start`` in
    the bracket that holds it, see :func:`_refine_root`); multiple roots are
    resolved by comparing payoffs.
    """
    probes = np.unique(np.concatenate([
        np.geomspace(1e-11, a_max, 24),
        np.linspace(a_max / 12.0, a_max, 12),
    ]))
    gains, _ = _foc(problem, u_levels, i, a, probes)

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

    roots = [_refine_root(problem, u_levels, i, a, lo, hi, start) for lo, hi in brackets]

    candidates = [0.0] + roots if gains[0] <= 0.0 else roots
    if len(candidates) == 1:
        return float(candidates[0])
    payoffs = [float(_agent_payoff(problem, u_levels, i, a, x)) for x in candidates]
    return float(candidates[int(np.argmax(payoffs))])


def _foc_residual(problem: Problem, u_levels: np.ndarray, a: np.ndarray) -> float:
    res = 0.0
    for i in range(problem.n):
        interior = a[i] > 0.0
        g, _ = _foc(problem, u_levels, i, a, a[i] if interior else 1e-9)
        # At a corner only upward deviations matter.
        res = max(res, abs(float(g)) if interior else max(0.0, float(g)))
    return res


class _FirstOrder(NamedTuple):
    """The agents' first-order system at one profile ``a``: the outcome
    curve at ``Y(a)``, each agent's payment sensitivity ``sens = u P'`` and
    bend ``u P''``, the marginal products ``grad`` and cost curvatures
    ``curv``, the residual ``foc = sens * grad - C'(a)`` of every agent, and
    on a support the Jacobian ``jac = d foc / da`` (``hess`` is the
    production Hessian, None for an empty support)."""

    probs: np.ndarray
    dprobs: np.ndarray
    sens: np.ndarray
    bend: np.ndarray
    grad: np.ndarray
    curv: np.ndarray
    foc: np.ndarray
    hess: np.ndarray | None
    jac: np.ndarray


def _first_order(problem: Problem, u_levels: np.ndarray, a: np.ndarray, support: np.ndarray) -> _FirstOrder:
    """Evaluate the first-order system at ``a`` (see :class:`_FirstOrder`);
    raises :class:`DomainError` where a derivative is undefined."""
    n = problem.n
    probs, dp, d2p = problem.outcomes.probs_derivs(float(problem.production.value(a)))
    sens, bend = _dot_last(u_levels, dp), _dot_last(u_levels, d2p)
    if np.any(a):
        grad = problem.production.gradient(a)
    else:
        # The dormant profile, where the Cobb-Douglas gradient is singular but
        # every own partial is defined.
        grad = np.array([float(problem.production.partial(a, i)) for i in range(n)])
    marginal, curv = np.array([
        (float(cost.marginal(x)), float(cost.curvature(x))) for cost, x in zip(problem.costs, a)
    ]).T
    hess, jac = None, np.zeros((0, 0))
    if support.size:
        hess = problem.production.hessian(a)
        g = grad[support]
        jac = (
            np.outer(bend[support] * g, g)
            + sens[support][:, None] * hess[np.ix_(support, support)]
            - np.diag(curv[support])
        )
    return _FirstOrder(probs, dp, sens, bend, grad, curv, sens * grad - marginal, hess, jac)


def _newton_snap(problem: Problem, u_levels: np.ndarray, a: np.ndarray):
    """Full-system Newton on the first-order conditions of ``a``'s support,
    from ``a``, for at most ``_SNAP_STEPS`` steps; None when a step leaves
    the support's positive orthant or meets a singular Jacobian or an
    undefined derivative.  The caller accepts the result only after a full
    best-response pass."""
    support = np.flatnonzero(a > 1e-12)
    if support.size == 0:
        return a
    x = a.copy()
    for _ in range(_SNAP_STEPS):
        try:
            system = _first_order(problem, u_levels, x, support)
        except DomainError:
            return None
        f = system.foc[support]
        if np.max(np.abs(f)) < 1e-15:
            return x
        try:
            delta = np.linalg.solve(system.jac, -f)
        except np.linalg.LinAlgError:
            return None
        x_new = x.copy()
        x_new[support] = x[support] + np.clip(delta, -0.5 * np.maximum(x[support], 0.1), 0.5 * np.maximum(x[support], 0.1))
        if np.any(x_new[support] <= 0.0):
            return None
        x = x_new
    return x


def _accepted_residual(problem: Problem, u_levels: np.ndarray, candidate: np.ndarray | None,
                       a_max: float, tol: float) -> float | None:
    """The first-order-condition residual of ``candidate`` when it is an
    equilibrium within ``tol``, else None (also for no candidate): the
    residual is at most ``tol``, and every agent's best response, re-derived
    from the full probe scan with each bracket's Newton started at the
    agent's own action when the bracket holds it, lies within ``tol`` of
    that action."""
    if candidate is None:
        return None
    residual = _foc_residual(problem, u_levels, candidate)
    if residual > tol:
        return None
    full = np.array([
        _best_response(problem, u_levels, i, candidate, a_max, start=candidate[i]) for i in range(problem.n)
    ])
    return residual if float(np.max(np.abs(full - candidate))) <= tol else None


def solve_equilibrium_general(problem: Problem, contract: Contract, init=None, *,
                              tol: float = 1e-9) -> EquilibriumResult:
    """Damped simultaneous best-response iteration with a Newton corrector,
    for arbitrary problems.

    A warm start ``init`` is corrected before any sweep: full-system Newton
    on the first-order conditions of ``init``'s support (``_newton_snap``)
    proposes a candidate, and when the acceptance test below accepts it the
    solve ends without a sweep (``iterations`` is 0).  Otherwise the sweeps
    start at ``init``, or at every action 0.1 when ``init`` is None.

    Each sweep takes every agent's best response: the first-order condition
    on 36 probes in one batched call, each sign change refined by
    safeguarded Newton to machine precision.  When the sweep moves the
    profile by more than ``tol``, full-system Newton on the first-order
    conditions of the best-response profile's support (``_newton_snap``)
    proposes a candidate; otherwise the best-response profile is the
    candidate.  A candidate is accepted only when its first-order-condition
    residual is within ``tol`` and a full best-response pass moves no agent
    by more than ``tol``; otherwise the profile takes the damped step
    ``(1 - _DAMPING) a + _DAMPING br`` (the best-response profile itself once
    the sweep gap is within ``tol``).  ``iterations`` counts the sweeps,
    the accepting one included.  The accepted profile's actions are then
    compared against a coarse payoff grid (``_CHECK_GRID`` points on
    [0, a_max]) and the outcome recorded in ``global_check_passed``.  Raises
    :class:`EquilibriumError` after ``_MAX_SWEEPS`` sweeps, or as soon as the
    best-response profile's performance reaches a linear success
    probability's cap (within 1e-9 relative) on two consecutive sweeps: at
    the kink efforts form a continuum and no interior equilibrium exists.
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
    candidate = None if init is None else _newton_snap(problem, u_levels, a)
    residual = _accepted_residual(problem, u_levels, candidate, a_max, tol)
    at_cap = 0
    while residual is None:
        if sweeps == _MAX_SWEEPS:
            raise EquilibriumError(
                f"best-response iteration did not converge in {_MAX_SWEEPS} sweeps", best=a
            )
        sweeps += 1
        br = np.array([_best_response(problem, u_levels, i, a, a_max) for i in range(n)])
        y_br = problem.production.value(br)
        at_cap = at_cap + 1 if _past_cap(problem.outcomes, y_br, rel=1e-9) else 0
        if at_cap == 2:
            # Best responses pile up at the kink, where each agent's effort
            # lies in a continuum: there is no interior equilibrium to find.
            raise EquilibriumError(
                f"best responses reach the success-probability cap {problem.outcomes.success.cap:.6g} "
                f"on consecutive sweeps (performance {y_br:.17g}): no interior equilibrium",
                best=a,
            )
        close = float(np.max(np.abs(br - a))) <= tol
        candidate = br if close else _newton_snap(problem, u_levels, br)
        residual = _accepted_residual(problem, u_levels, candidate, a_max, tol)
        if residual is None:
            a = br if close else (1.0 - _DAMPING) * a + _DAMPING * br
    a = candidate

    y = float(problem.production.value(a))
    probs, _, _ = problem.outcomes.probs_derivs(y)

    passed = True
    grid = np.linspace(0.0, a_max, _CHECK_GRID)
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
