"""Independent brute-force verification paths.

Everything here is deliberately primitive: equilibria come from grid-argmax
best responses (not first-order conditions), optima from exhaustive payoff
grids, derivatives from finite differences.  The module shares no solver
code with the analytic paths; it imports the domain types only, so a bug in
the main solvers cannot leak in.

The best-response iteration runs a batch of contracts at once: every array
carries a leading contract axis, each row keeps its own tolerances, window,
sweep count and convergence, and a single contract is a batch of one.  The
exhaustive search feeds the contract grid through it in fixed-size batches,
each contract started from zero effort.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from .model import Contract, EquilibriumResult, Problem

__all__ = [
    "OracleError",
    "best_response_iterate",
    "brute_force_optimal_contract",
    "finite_diff",
]

# Points of one windowed scan or zoom.
_SCAN = 64
_SCAN_K = np.arange(_SCAN, dtype=float)
# Contracts per batched iteration in the exhaustive search.
_BATCH = 64
# Grid points per block of the streamed full-grid scan, which bounds its
# memory: 64 columns of a full batch, more columns for fewer rows.
_BLOCK = 64 * _BATCH
# The iteration's damping, default sweep budget and full-grid points.
_DAMPING = 0.5
_MAX_SWEEPS = 5000
_GRID_POINTS = 1024
# Equilibrium tolerance of the exhaustive search's contracts.
_GRID_TOL = 1e-8
# Value comparisons cannot rank actions closer than ~sqrt(machine eps)
# around a flat payoff maximum, so requested tolerances are clamped at
# this resolution floor; the returned residual stays honest.
_FLOOR = 5e-9
# Zooms per best response: each shrinks a bracket by at least (_SCAN - 1) / 2,
# so this many take any finite bracket to the smallest step tolerance,
# a quarter of the resolution floor.
_ZOOMS = math.ceil((math.log(sys.float_info.max) - math.log(_FLOOR / 4.0)) / math.log((_SCAN - 1) / 2.0))


class OracleError(RuntimeError):
    pass


def _linspace_at(lo, hi, num: int, k):
    """Points ``k`` of ``np.linspace(lo, hi, num)`` for rows of bounds,
    each rounded exactly as the scalar ``np.linspace`` rounds it.

    numpy's zero-step branch serves denormal widths, far below any bracket
    here (zooms stop near ``xtol``, which the resolution floor keeps above
    1e-9), and at a zero width both branches give ``lo``.
    """
    y = k * ((hi - lo) / (num - 1)) + lo
    return np.where(k == num - 1, hi, y)


def _payoffs(problem: Problem, u: np.ndarray, i: int, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Agent i's payoff at actions ``x`` (rows, points) with the others at
    the rows of ``a``; ``u`` holds agent i's outcome utilities per row."""
    pts = np.repeat(a[:, None, :], x.shape[1], axis=1)
    pts[..., i] = x
    probs = problem.outcomes.probs(problem.production.value(pts))
    return (probs @ u[:, :, None])[..., 0] - problem.costs[i].value(x)


def _bracket(x: np.ndarray, k: np.ndarray):
    """The points either side of each row's argmax ``k`` on its grid ``x``."""
    rows, last = np.arange(x.shape[0]), x.shape[1] - 1
    return x[rows, np.maximum(0, k - 1)], x[rows, np.minimum(last, k + 1)]


def _full_scan(problem, u, i, a, a_max):
    """First argmax and corner value of agent i's payoff on the full grid
    ``linspace(0, a_max, _GRID_POINTS)`` of each row, streamed in blocks of
    ``_BLOCK // rows`` columns (at least one) with a running first maximum."""
    rows = np.arange(a.shape[0])
    top = a_max[:, None]
    best = np.full(rows.size, -np.inf)
    arg = np.zeros(rows.size, dtype=int)
    columns = max(1, _BLOCK // rows.size)
    for start in range(0, _GRID_POINTS, columns):
        k = np.arange(start, min(start + columns, _GRID_POINTS), dtype=float)
        vals = _payoffs(problem, u, i, a, _linspace_at(0.0, top, _GRID_POINTS, k))
        if start == 0:
            corner = vals[:, 0]
        j = np.argmax(vals, axis=1)
        v = vals[rows, j]
        better = v > best
        best[better] = v[better]
        arg[better] = start + j[better]
    return arg, corner


def _window_scan(problem, u, i, a, a_max, half, lo, hi, corner):
    """Windowed 64-point scans around each row's action, widened sixfold
    while the argmax sits on an inner window edge.  Fills ``lo``, ``hi``
    and the payoff at zero ``corner`` of the rows it brackets and returns
    the rows whose window outgrew the range, for the full grid."""
    r = np.arange(a.shape[0])
    full = [r[:0]]
    while r.size:
        ai, top = a[r, i], a_max[r]
        wlo = np.maximum(0.0, ai - half[r])
        whi = np.minimum(top, ai + half[r])
        # Column 0 is the corner at zero, scanned along with the window.
        sub = _linspace_at(wlo[:, None], whi[:, None], _SCAN, _SCAN_K)
        vals = _payoffs(problem, u[r], i, a[r], np.concatenate([np.zeros((r.size, 1)), sub], axis=1))
        k = np.argmax(vals[:, 1:], axis=1)
        done = ((k > 0) | (wlo == 0.0)) & ((k < _SCAN - 1) | (whi == top))
        d = r[done]
        corner[d] = vals[done, 0]
        lo[d], hi[d] = _bracket(sub[done], k[done])
        r = r[~done]
        half[r] *= 6.0
        over = half[r] > a_max[r]
        full.append(r[over])
        r = r[~over]
    return np.concatenate(full)


def _best_responses(problem, u, i, a, a_max, xtol, window=None):
    """Agent i's grid-argmax best response in every row, zoomed by nested
    64-point grids until the row's bracket is at most its ``xtol``.

    ``window`` (per row) restricts the initial scan to a local bracket around
    the current action (used mid-iteration for speed); an argmax on the
    bracket edge widens it, a bracket wider than the range reopens the full
    grid, and the caller's accepting sweep always runs the full grid.
    """
    rows = a.shape[0]
    lo, hi, corner = np.empty(rows), np.empty(rows), np.empty(rows)
    out = np.empty(rows)
    zoom = np.ones(rows, dtype=bool)
    if window is None:
        f = np.arange(rows)
    else:
        f = _window_scan(problem, u, i, a, a_max, window.copy(), lo, hi, corner)
    if f.size:
        k, corner[f] = _full_scan(problem, u[f], i, a[f], a_max[f])
        picks = np.stack([k - 1.0, k, k + 1.0], axis=1).clip(0, _GRID_POINTS - 1)
        grid = _linspace_at(0.0, a_max[f, None], _GRID_POINTS, picks)
        lo[f], hi[f] = grid[:, 0], grid[:, 2]
        fine = hi[f] - lo[f] <= xtol[f]
        out[f[fine]] = grid[fine, 1]
        zoom[f[fine]] = False

    z = np.flatnonzero(zoom)
    if not z.size:
        return out
    live = z
    for _ in range(_ZOOMS):
        sub = _linspace_at(lo[live, None], hi[live, None], _SCAN, _SCAN_K)
        k = np.argmax(_payoffs(problem, u[live], i, a[live], sub), axis=1)
        lo[live], hi[live] = _bracket(sub, k)
        live = live[hi[live] - lo[live] > xtol[live]]
        if not live.size:
            break
    x = 0.5 * (lo + hi)
    # The corner can beat the interior refinement when the payoff is
    # decreasing from the start.
    at_x = _payoffs(problem, u[z], i, a[z], x[z, None])[:, 0]
    out[z] = np.where(corner[z] >= at_x, 0.0, x[z])
    return out


def _iterate(problem, payments, tol, max_sweeps, init, warm):
    """Damped simultaneous grid-argmax best responses for a batch of
    contracts ``payments`` (B, n, S) from the starts ``init`` (B, n).

    Every row keeps its own action bound ``10 * (total best-case pay + 1)``,
    tolerances, window, Aitken trail, sweep budget ``max_sweeps``
    (broadcast to B) and convergence.  Response
    resolution adapts to the remaining profile movement (no point resolving
    below the current sweep-to-sweep gap) and tightens to ``tol`` as the
    fixed point closes in.  Returns the accepted actions, residuals and
    sweep counts, and the mask of rows that converged (the others hold NaN).
    """
    batch, n = payments.shape[0], problem.n
    u = np.stack([problem.utilities[i].value(payments[:, i]) for i in range(n)], axis=1)
    budget = np.broadcast_to(np.asarray(max_sweeps), (batch,))
    a_max = 10.0 * (np.max(payments, axis=2).sum(axis=1) + 1.0)
    a = init.copy()
    gap = a_max.copy()
    trail = [a.copy()]
    actions = np.full((batch, n), np.nan)
    residual = np.full(batch, np.nan)
    sweeps = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    for sweep in range(1, int(budget.max(initial=0)) + 1):
        r = np.flatnonzero(~converged & (budget >= sweep))
        if not r.size:
            break
        ar, ur, top = a[r], u[r], a_max[r]
        eff_tol = np.maximum(tol, _FLOOR * np.maximum(1.0, np.max(np.abs(ar), axis=1)))
        xtol = np.maximum(eff_tol / 4.0, np.minimum(gap[r] / 20.0, top / _GRID_POINTS))
        # Mid-iteration sweeps on a warm start search a local window; the
        # accepting sweep below always re-derives from the full grid.
        window = None
        if (warm and sweep > 1) or sweep > 2:
            window = np.minimum(4.0 * gap[r] + 100.0 * xtol, top)
        br = np.stack([
            _best_responses(problem, ur[:, i], i, ar, top, xtol, window)
            for i in range(n)
        ], axis=1)
        gap[r] = np.max(np.abs(br - ar), axis=1)
        accept = np.zeros(r.size, dtype=bool)
        near = np.flatnonzero((gap[r] <= eff_tol) & (xtol <= eff_tol / 2.0))
        if near.size:
            full = np.stack([
                _best_responses(problem, ur[near, i], i, br[near], top[near], eff_tol[near] / 4)
                for i in range(n)
            ], axis=1)
            res = np.max(np.abs(full - br[near]), axis=1)
            ok = res <= eff_tol[near]
            done = r[near[ok]]
            actions[done], residual[done], sweeps[done] = full[ok], res[ok], sweep
            converged[done] = True
            accept[near[ok]] = True
        r, br = r[~accept], br[~accept]
        a[r] = (1.0 - _DAMPING) * a[r] + _DAMPING * br
        trail.append(a.copy())
        if len(trail) == 3:
            # Aitken extrapolation of the linearly converging damped map, on
            # the coordinates whose last two steps keep their sign and shrink.
            # Where a step flips sign or grows, the jump can land far off, and
            # from zero effort such jumps can keep the iteration cycling.
            x0, x1, x2 = (t[r] for t in trail)
            d1, d2 = x1 - x0, x2 - x1
            denom = d2 - d1
            safe = (d1 * d2 > 0.0) & (np.abs(d2) < np.abs(d1)) & (np.abs(denom) > 1e-14)
            jump = np.where(safe, x2 - np.divide(d2**2, denom, out=np.zeros_like(d2), where=safe), x2)
            a[r] = np.maximum(0.0, jump)
            trail = [a.copy()]
    return actions, residual, sweeps, converged


def best_response_iterate(
    problem: Problem,
    contract: Contract,
    tol: float = 1e-10,
    *,
    max_sweeps: int = _MAX_SWEEPS,
    init=None,
) -> EquilibriumResult:
    """Damped simultaneous grid-argmax best responses: the batched
    iteration on a batch of one contract, to tolerance ``tol`` within
    ``max_sweeps`` sweeps.

    With ``init`` given, the sweeps after the first search a local window
    around the current profile; without it (a start from zero effort) the
    first two sweeps scan the full grid.
    """
    payments = np.asarray(contract.payments, dtype=float)[None]
    start = np.zeros((1, problem.n)) if init is None else np.array(init, dtype=float).reshape(1, problem.n)
    actions, residual, sweeps, converged = _iterate(problem, payments, tol, max_sweeps, start, init is not None)
    if not converged[0]:
        raise OracleError(f"grid best-response iteration did not converge in {max_sweeps} sweeps")
    full = actions[0]
    performance = float(problem.production.value(full))
    return EquilibriumResult(
        actions=full,
        performance=performance,
        probs=np.asarray(problem.outcomes.probs(performance), dtype=float),
        iterations=int(sweeps[0]),
        residual=float(residual[0]),
        spectral_margin=None,
    )


def principal_payoff(problem: Problem, contract: Contract, performance: float) -> float:
    """Expected revenue minus transfers at the given performance level."""
    probs = problem.outcomes.probs(performance)
    revenues = problem.outcomes.revenues
    return float(np.dot(revenues - contract.payments.sum(axis=0), probs))


def brute_force_optimal_contract(
    problem: Problem,
    grid_resolution: float,
    bounds,
    *,
    dim_cap: int = 6,
) -> tuple[Contract, float]:
    """Exhaustive payoff search over a Cartesian grid of contracts.

    ``bounds`` is ``(lo, hi)`` arrays (or scalars) with shape (n, S).  A
    binary problem with zero failure revenue searches success payments only
    (paying at failure is never optimal there), with failure payments pinned
    at ``lo``; any other problem searches every cell.  More than ``dim_cap``
    searched cells raise :class:`OracleError`.  Ties break to the
    lexicographically smallest contract.  The grid runs through the batched
    best-response iteration ``_BATCH`` contracts at a time, each from zero
    effort (as ``best_response_iterate(problem, contract, _GRID_TOL,
    init=np.zeros(n))``); contracts whose iteration does not converge are
    skipped.
    """
    n, S = problem.n, problem.n_outcomes
    lo = np.broadcast_to(np.asarray(bounds[0], dtype=float), (n, S)).copy()
    hi = np.broadcast_to(np.asarray(bounds[1], dtype=float), (n, S)).copy()

    if S == 2 and float(problem.outcomes.revenues[0]) == 0.0:
        free_coords = [(i, 1) for i in range(n)]
    else:
        free_coords = [(i, s) for i in range(n) for s in range(S)]
    if len(free_coords) > dim_cap:
        raise OracleError(
            f"{len(free_coords)} free payment coordinates exceed the enumeration cap {dim_cap}; "
            "use the gradient optimizer instead"
        )

    axes = []
    for (i, s) in free_coords:
        count = int(round((hi[i, s] - lo[i, s]) / grid_resolution)) + 1
        axes.append(lo[i, s] + grid_resolution * np.arange(count))

    best_payoff = -np.inf
    best_payments = None
    grid = itertools.product(*axes)
    while chunk := list(itertools.islice(grid, _BATCH)):
        payments = np.repeat(lo[None], len(chunk), axis=0)
        for k, (i, s) in enumerate(free_coords):
            payments[:, i, s] = [values[k] for values in chunk]
        actions, _, _, converged = _iterate(problem, payments, _GRID_TOL, _MAX_SWEEPS, np.zeros((len(chunk), n)), True)
        # Contracts that did not converge are skipped.
        solved = np.flatnonzero(converged)
        for b, performance in zip(solved, problem.production.value(actions[solved])):
            payoff = principal_payoff(problem, Contract(payments[b]), float(performance))
            if payoff > best_payoff + 1e-15:
                best_payoff = payoff
                best_payments = payments[b]
    if best_payments is None:
        raise OracleError("no grid point produced a solvable equilibrium")
    return Contract(best_payments), float(best_payoff)


def finite_diff(functional, point, step: float = 1e-6, *, richardson: bool = False):
    """Central-difference derivative of ``functional`` at ``point``.

    Scalar points give a scalar derivative; vector points give the gradient.
    With ``richardson`` the h and h/2 estimates are extrapolated.
    """

    def central(h):
        p = np.asarray(point, dtype=float)
        if p.ndim == 0:
            return (functional(float(p) + h) - functional(float(p) - h)) / (2.0 * h)
        out = np.empty(p.size)
        for k in range(p.size):
            up = p.copy()
            dn = p.copy()
            up[k] += h
            dn[k] -= h
            out[k] = (functional(up) - functional(dn)) / (2.0 * h)
        return out

    d1 = central(step)
    if not richardson:
        return d1
    d2 = central(step / 2.0)
    return (4.0 * np.asarray(d2) - np.asarray(d1)) / 3.0
