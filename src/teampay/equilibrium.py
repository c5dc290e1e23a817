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
    _only,
)

__all__ = [
    "EquilibriumError",
    "brentq",
    "spectral_radius",
    "solve_equilibrium_quadratic_binary",
    "solve_equilibrium_general",
]


class EquilibriumError(RuntimeError):
    """An equilibrium solver failed."""


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


def _candidate_actions(gs: np.ndarray, taus: np.ndarray, standalone: np.ndarray, slopes: np.ndarray):
    """Solve ``[I - slope T G] a = slope T standalone`` for every row's action
    profile in one stacked solve, each row rounding as in a solve of its own.
    Returns the profiles and a mask that is False where the system is
    singular (that row of the profiles is NaN)."""
    m = np.eye(taus.shape[1]) - slopes[:, None, None] * (taus[:, :, None] * gs)
    rhs = (slopes[:, None] * taus * standalone)[..., None]
    solved = np.ones(len(taus), dtype=bool)
    try:
        return np.linalg.solve(m, rhs)[..., 0], solved
    except np.linalg.LinAlgError:
        # A stacked solve raises for the whole stack if one matrix is
        # singular; the determinant's sign comes from the same LU
        # factorization and is 0 exactly there.
        solved = np.linalg.slogdet(m)[0] != 0.0
        a = np.full(taus.shape, np.nan)
        a[solved] = np.linalg.solve(m[solved], rhs[solved])[..., 0]
        return a, solved


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
    profile is one solve at the fixed point's slope.  A batch of one of
    ``_quadratic_equilibria``.
    """
    tau = np.asarray(tau, dtype=float)
    n = network.n
    if tau.shape != (n,):
        raise DomainError(f"tau must have shape ({n},)")
    b = np.ones(n) if standalone is None else np.asarray(standalone, dtype=float)
    return _only(_quadratic_equilibria(network.matrix[None], tau[None], p, b))


def _quadratic_equilibria(gs: np.ndarray, taus: np.ndarray, p: SuccessProbability, b: np.ndarray) -> list:
    """``solve_equilibrium_quadratic_binary`` for every row: networks ``gs``
    (k, n, n) under success payments ``taus`` (k, n), with one success
    probability and standalone vector ``b``.  One stacked ``eigvalsh``
    (``eigh`` under a nonlinear ``P``, whose fixed points are found row by
    row) and one stacked solve serve every row; reductions that reach the
    result keep the 1-D ``@`` rounding, so each row is bit for bit what it
    would be alone.  Returns per row its equilibrium or the exception that
    stops it."""
    k, n = taus.shape
    out = [None] * k
    negative = np.any(taus < 0, axis=1)
    asymmetric = np.any((gs < 0) | (gs != gs.swapaxes(1, 2)), axis=(1, 2))
    concave = p.concave_on_nonneg()
    idle = ~np.any(taus > 0, axis=1)
    for r in range(k):
        if negative[r]:
            out[r] = DomainError("success payments must be nonnegative")
        elif asymmetric[r]:
            out[r] = DomainError("network matrix must be symmetric and nonnegative")
        elif not concave:
            out[r] = DomainError("success probability must be concave on the working range")
        elif idle[r]:
            success = float(p.value(0.0))
            out[r] = EquilibriumResult(
                actions=np.zeros(n), performance=0.0, probs=np.array([1.0 - success, success]),
                iterations=0, residual=0.0, spectral_margin=1.0,
            )
    rows = np.flatnonzero(np.array([o is None for o in out], dtype=bool))
    if not rows.size:
        return out
    g, tau = (gs, taus) if rows.size == k else (gs[rows], taus[rows])

    root_tau = np.sqrt(tau)
    s = root_tau[:, :, None] * g * root_tau[:, None, :]
    # A row that fails before its solve keeps slope 0, a harmless identity system.
    slopes = np.zeros(rows.size)
    iterations = [1] * rows.size
    linear = isinstance(p, LinearCappedSuccess)
    if linear:
        # P' is constant below the cap, so the candidate map does not depend
        # on y: one solve at the slope is the equilibrium.
        rho = np.linalg.eigvalsh(s)[:, -1]
        for i, r in enumerate(rows):
            if p.slope * rho[i] >= 1.0:
                out[r] = EquilibriumError(f"no equilibrium: slope * spectral radius = {p.slope * rho[i]:.6g} >= 1")
            else:
                slopes[i] = p.slope
    else:
        modes, vecs = np.linalg.eigh(s)
        rho = modes[:, -1]
        loadings = (vecs.swapaxes(1, 2) @ (root_tau * b)[:, :, None])[:, :, 0]
        for i, r in enumerate(rows):
            try:
                y_fixed, iterations[i] = _performance_fixed_point(loadings[i] ** 2, modes[i], p)
            except EquilibriumError as exc:
                out[r] = exc
                continue
            slopes[i] = p.deriv(y_fixed)
    a, solved = _candidate_actions(g, tau, b, slopes)
    y_star = _dot_last(a, b) + _dot_last(((0.5 * a)[:, None, :] @ g)[:, 0, :], a)
    final = np.zeros(rows.size)  # P'(Y*) of each row that gets this far
    for i, r in enumerate(rows):
        if out[r] is not None:
            continue
        if not solved[i]:
            out[r] = EquilibriumError("singular best-response system: Singular matrix")
        elif linear and y_star[i] > p.cap * (1.0 - 1e-12):
            out[r] = CapExceededError("equilibrium performance would reach the success-probability cap")
        else:
            final[i] = p.deriv(float(y_star[i]))
    residual = np.max(np.abs(a - final[:, None] * tau * (b + (g @ a[:, :, None])[:, :, 0])), axis=1)
    margin = 1.0 - final * rho
    for i, r in enumerate(rows):
        if out[r] is not None:
            continue
        if margin[i] <= 0.0:
            out[r] = EquilibriumError(f"equilibrium violates the spectral condition: margin {margin[i]:.3g}")
            continue
        success = float(p.value(float(y_star[i])))
        out[r] = EquilibriumResult(
            actions=a[i],
            performance=float(y_star[i]),
            probs=np.array([1.0 - success, success]),
            iterations=iterations[i],
            residual=float(residual[i]),
            spectral_margin=float(margin[i]),
        )
    return out


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
    g(lo) > 0 >= g(hi), from ``start = (x, g(x), g'(x))`` when ``x`` lies
    strictly inside the bracket (the caller's evaluation is the first
    iterate) and from the bracket's midpoint otherwise: a step that leaves
    the bracket takes its midpoint.  Stops at an exact zero of g, or once
    the step is within four ulps of the iterate, which is as close as double
    precision resolves a root."""
    if start is not None and lo < start[0] < hi:
        x, known = start[0], start[1:]
    else:
        x, known = 0.5 * (lo + hi), None
    for _ in range(100):
        gx, slope = known or (float(v) for v in _foc(problem, u_levels, i, a, x))
        known = None
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


def _probe_grid(a_max: float) -> np.ndarray:
    """The best responses' 35 probe actions on (0, a_max]: 24 geometric
    from 1e-11 and 12 linear from a_max / 12, the shared end point merged."""
    return np.unique(np.concatenate([
        np.geomspace(1e-11, a_max, 24),
        np.linspace(a_max / 12.0, a_max, 12),
    ]))


def _best_response(problem: Problem, u_levels: np.ndarray, i: int, a: np.ndarray, probes: np.ndarray,
                   gains=None, start=None) -> float:
    """Agent i's best response: sign changes of the first-order condition
    over ``probes`` (from :func:`_probe_grid`; ``gains`` holds the condition
    there when the caller has evaluated it), then safeguarded Newton in each
    bracket (from ``start`` in the bracket that holds it, see
    :func:`_refine_root`); multiple roots are resolved by comparing payoffs.
    """
    if gains is None:
        gains, _ = _foc(problem, u_levels, i, a, probes)

    cuts = np.flatnonzero((gains[:-1] > 0.0) & (gains[1:] <= 0.0))
    if not cuts.size:
        if gains[0] <= 0.0:
            return 0.0
        # gain positive everywhere on the probe range: cost eventually wins,
        # so the bound itself (the last probe) is binding; report it and let
        # the caller's residual check flag the anomaly.
        return float(probes[-1])

    roots = [_refine_root(problem, u_levels, i, a, probes[k], probes[k + 1], start) for k in cuts]

    candidates = [0.0] + roots if gains[0] <= 0.0 else roots
    if len(candidates) == 1:
        return float(candidates[0])
    payoffs = [float(_agent_payoff(problem, u_levels, i, a, x)) for x in candidates]
    return float(candidates[int(np.argmax(payoffs))])


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
        # Every agent active is the usual case: slices, no fancy indexing.
        idx, block = (slice(None), hess) if support.size == n else (support, hess[np.ix_(support, support)])
        g = grad[idx]
        jac = np.outer(bend[idx] * g, g) + sens[idx][:, None] * block - np.diag(curv[idx])
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
                       probes: np.ndarray, tol: float) -> float | None:
    """The first-order-condition residual of ``candidate`` when it is an
    equilibrium within ``tol``, else None (also for no candidate): the
    residual is at most ``tol``, and every agent's best response, re-derived
    from the full probe scan with each bracket's Newton started at the
    agent's own action when the bracket holds it, lies within ``tol`` of
    that action.

    One batched first-order evaluation per agent, over ``probes`` plus the
    agent's own action (1e-9 for an agent at the corner, where only upward
    deviations count), serves the whole test: its last entry is the agent's
    residual, checked for every agent before any Newton step, its probe
    entries are the bracket scan, and its own-action entry is the first
    Newton iterate."""
    if candidate is None:
        return None
    residual = 0.0
    scans = []
    for i in range(problem.n):
        interior = candidate[i] > 0.0
        g, slope = _foc(problem, u_levels, i, candidate, np.append(probes, candidate[i] if interior else 1e-9))
        own = float(g[-1])
        residual = max(residual, abs(own) if interior else max(0.0, own))
        scans.append((g[:-1], (candidate[i], own, float(slope[-1])) if interior else None))
    if residual > tol:
        return None
    for i, (gains, start) in enumerate(scans):
        if not abs(_best_response(problem, u_levels, i, candidate, probes, gains, start) - candidate[i]) <= tol:
            return None
    return residual


def solve_equilibrium_general(problem: Problem, contract: Contract, init=None, *,
                              tol: float = 1e-9) -> EquilibriumResult:
    """Damped simultaneous best-response iteration with a Newton corrector,
    for arbitrary problems.

    The best responses' probe grid (:func:`_probe_grid`) depends only on
    the action bound, so it is built once per solve.  A warm start ``init``
    is corrected before any sweep: full-system Newton on the first-order
    conditions of ``init``'s support (``_newton_snap``) proposes a
    candidate, and when the acceptance test below accepts it the solve ends
    without a sweep (``iterations`` is 0).  Otherwise the sweeps start at
    ``init``, or at every action 0.1 when ``init`` is None.

    Each sweep takes every agent's best response: the first-order condition
    on 35 probes in one batched call (``np.unique`` merges the end point
    ``a_max`` that both probe ranges share), each sign change refined by
    safeguarded Newton to machine precision.  When the sweep moves the
    profile by more than ``tol``, full-system Newton on the first-order
    conditions of the best-response profile's support (``_newton_snap``)
    proposes a candidate; otherwise the best-response profile is the
    candidate.  A candidate is accepted only when its first-order-condition
    residual is within ``tol`` and a full best-response pass moves no agent
    by more than ``tol`` (:func:`_accepted_residual`: the pass's own
    first-order evaluations supply the residual); otherwise the profile
    takes the damped step ``(1 - _DAMPING) a + _DAMPING br`` (the
    best-response profile itself once the sweep gap is within ``tol``).
    ``iterations`` counts the sweeps, the accepting one included.  The
    accepted profile's actions are then compared against a coarse payoff
    grid (``_CHECK_GRID`` points on [0, a_max]) and the outcome recorded in
    ``global_check_passed``.  Raises :class:`EquilibriumError` after
    ``_MAX_SWEEPS`` sweeps, or as soon as the best-response profile's
    performance reaches a linear success probability's cap (within 1e-9
    relative) on two consecutive sweeps: at the kink efforts form a
    continuum and no interior equilibrium exists.
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
    probes = _probe_grid(a_max)
    a = np.full(n, 0.1) if init is None else np.asarray(init, dtype=float).copy()
    a = np.clip(a, 0.0, a_max)

    sweeps = 0
    candidate = None if init is None else _newton_snap(problem, u_levels, a)
    residual = _accepted_residual(problem, u_levels, candidate, probes, tol)
    at_cap = 0
    while residual is None:
        if sweeps == _MAX_SWEEPS:
            raise EquilibriumError(
                f"best-response iteration did not converge in {_MAX_SWEEPS} sweeps"
            )
        sweeps += 1
        br = np.array([_best_response(problem, u_levels, i, a, probes) for i in range(n)])
        y_br = problem.production.value(br)
        at_cap = at_cap + 1 if _past_cap(problem.outcomes, y_br, rel=1e-9) else 0
        if at_cap == 2:
            # Best responses pile up at the kink, where each agent's effort
            # lies in a continuum: there is no interior equilibrium to find.
            raise EquilibriumError(
                f"best responses reach the success-probability cap {problem.outcomes.success.cap:.6g} "
                f"on consecutive sweeps (performance {y_br:.17g}): no interior equilibrium"
            )
        close = float(np.max(np.abs(br - a))) <= tol
        candidate = br if close else _newton_snap(problem, u_levels, br)
        residual = _accepted_residual(problem, u_levels, candidate, probes, tol)
        if residual is None:
            a = br if close else (1.0 - _DAMPING) * a + _DAMPING * br
    a = candidate

    y = float(problem.production.value(a))
    probs = problem.outcomes.probs(y)

    passed = True
    grid = np.linspace(0.0, a_max, _CHECK_GRID)
    for i in range(n):
        # One payoff call per agent: the grid, then the agent's own action.
        payoffs = _agent_payoff(problem, u_levels, i, a, np.append(grid, a[i]))
        here = float(payoffs[-1])
        if float(np.max(payoffs[:-1])) > here + 1e-9 * (1.0 + abs(here)):
            passed = False
            break

    return EquilibriumResult(
        actions=a,
        performance=y,
        probs=np.asarray(probs, dtype=float),
        iterations=sweeps,
        residual=residual,
        spectral_margin=None,
        global_check_passed=passed,
    )
