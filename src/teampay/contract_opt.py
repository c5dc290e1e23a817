"""Optimal contract search.

Four routes: a projected-gradient ascent with the analytic payoff gradient
(any problem; ``teampay.equity`` runs the same ascent in equity shares), a
closed form for the quadratic-network binary environment
(active-set enumeration plus the optimal total share under the
balanced-neighborhood-equity structure: the share cubic's root under a linear
success probability, a one-dimensional search otherwise), and transformed
closed forms for Cobb-Douglas and CES production.

The one-dimensional searches are parametrized by the equilibrium
performance ``y``: the total share that makes ``y`` an equilibrium is
explicit in each environment, so no candidate needs an equilibrium solve;
only the optimum's contract is solved, as a check.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .diagnostics import ACTIVITY_TOL, DiagnosticsError, _FirstOrderObjects, compute_balance_report
from .equilibrium import (
    EquilibriumError,
    _performance_map,
    _quadratic_equilibria,
    brentq,
    solve_equilibrium_general,
    solve_equilibrium_quadratic_binary,
)
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
    ModelError,
    Network,
    PowerCost,
    Problem,
    QuadraticNetworkProduction,
    SuccessProbability,
    _only,
)

__all__ = [
    "OptimizationError",
    "ActiveSetError",
    "OptimalContractResult",
    "ActiveSetCandidate",
    "optimize_general",
    "optimize_quadratic_binary",
    "optimal_active_set",
    "closed_form_cobb_douglas",
    "closed_form_ces",
    "total_share_root",
    "quadratic_binary_problem",
]

_BIG_GRADIENT = 1e6  # stand-in for unbounded marginal utility at a zero payment
_STEP_INIT = 0.5       # first projected-ascent step length
_ARMIJO = 1e-4         # sufficient-increase fraction of the line search
_MAX_BACKTRACKS = 60   # step halvings per line search
_PRESCAN = 257         # geometric grid points of the 1-D performance search
_Y_FLOOR = 1e-10       # first grid point of the performance search
_Y_CEIL = 1e8          # highest performance searched without a success cap
_ZOOM_POINTS = 65      # linear grid points per zoom of the 1-D performance search
_ZOOM_TOL = 1e-11      # bracket width, relative to the prescan bracket's upper end, at which the search stops
# Zooms of the performance search: each keeps the two grid intervals around
# the best point, so shrinks the bracket at least (_ZOOM_POINTS - 1) / 2 times,
# and this many take any prescan bracket [lo >= 0, hi] to _ZOOM_TOL * hi.
_ZOOMS = math.ceil(math.log(1.0 / _ZOOM_TOL) / math.log((_ZOOM_POINTS - 1) / 2.0))
_CHUNK = 1024          # (network, subset) rows per batched solve of the active-set enumeration
_CAP = 16              # default agent cap of the weighted active-set enumeration (2**cap subsets)
_SHARE_ROOT_TOL = 1e-13  # Brent bracket width at which the share cubic's root stops
_SHARE_ROOT_STEPS = 100  # Brent step budget of the share cubic's root
_ASCENT_STEPS = 4000   # projected-ascent step budget per start
_EQ_TOL = 1e-11        # general-solver tolerance of the optimizers' equilibria
_KKT_TOL = 1e-8        # projected-gradient KKT residual at which an ascent start stops
_STARTS = 8            # deterministic seeds climbed by the projected ascent


class OptimizationError(RuntimeError):
    pass


class ActiveSetError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimalContractResult:
    contract: Contract
    equilibrium: EquilibriumResult
    principal_payoff: float
    active_set: tuple
    kkt_residual: float
    method: str
    balance_constant: float | None = None
    neighborhood_action_constant: float | None = None
    max_balance_residual: float | None = None


@dataclass(frozen=True)
class ActiveSetCandidate:
    """Candidate active set with its balance constant per unit total share."""

    agents: tuple
    share_rate: float
    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float).copy()
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _binary_linear_unit_problem(production, p: SuccessProbability) -> Problem:
    """Every closed form's environment around ``production``: success or
    failure outcome, linear money utility, unit quadratic effort costs."""
    n = production.n
    return Problem(
        n=n,
        production=production,
        outcomes=BinaryOutcomeModel(p),
        utilities=tuple(LinearUtility() for _ in range(n)),
        costs=tuple(PowerCost(1.0, 2.0) for _ in range(n)),
    )


def quadratic_binary_problem(network: Network, p: SuccessProbability) -> Problem:
    """The canonical environment: quadratic-network production in
    ``_binary_linear_unit_problem``."""
    return _binary_linear_unit_problem(QuadraticNetworkProduction(network), p)


def _is_binary_linear_unit(problem: Problem) -> bool:
    """Binary outcomes, linear utilities, unit quadratic costs: every closed form's environment."""
    return (
        isinstance(problem.outcomes, BinaryOutcomeModel)
        and all(isinstance(u, LinearUtility) for u in problem.utilities)
        and all(c.scale == 1.0 and c.exponent == 2.0 for c in problem.costs)
    )


def _is_quadratic_binary(problem: Problem) -> bool:
    return (
        isinstance(problem.production, QuadraticNetworkProduction)
        and _is_binary_linear_unit(problem)
        and problem.outcomes.success.concave_on_nonneg()
    )


def _solve_eq(problem: Problem, contract: Contract, warm=None) -> EquilibriumResult:
    """Equilibrium dispatcher: the quadratic-binary fast path applies whenever
    effective success incentives (success minus failure pay) are nonnegative,
    since equilibria depend on payments only through that difference.
    ``warm``, when given, is called for the general solver's start profile,
    so the fast path never computes one."""
    if _is_quadratic_binary(problem):
        eff = contract.payments[:, 1] - contract.payments[:, 0]
        if np.all(eff >= 0.0):
            prod = problem.production
            return solve_equilibrium_quadratic_binary(
                prod.network, eff, problem.outcomes.success, prod.standalone
            )
    init = None if warm is None else warm()
    return solve_equilibrium_general(problem, contract, init=init, tol=_EQ_TOL)


_CHECK_FAILED = "equilibrium failed the global best-response check"


def _solve_eq_checked(problem: Problem, contract: Contract, warm) -> EquilibriumResult:
    """``_solve_eq`` for optimizer trials: an equilibrium that fails the
    general solver's global best-response check counts as a failed solve."""
    eq = _solve_eq(problem, contract, warm=warm)
    if eq.global_check_passed is False:
        raise EquilibriumError(_CHECK_FAILED)
    return eq


def _principal_payoff(problem: Problem, contract: Contract, probs: np.ndarray) -> float:
    return float((problem.outcomes.revenues - contract.payments.sum(axis=0)) @ probs)


def _solve_eq_selected(problem: Problem, contract: Contract) -> EquilibriumResult:
    """Equilibrium with principal-best selection across several dynamics
    initializations.  Production functions with strong joint complementarity
    can pair a dormant equilibrium with an active one; the principal-optimal
    selection keeps whichever gives the higher payoff."""
    if _is_quadratic_binary(problem):
        return _solve_eq(problem, contract)
    n = problem.n
    best = None
    last_error = None
    for init in (np.full(n, 0.1), np.ones(n), np.full(n, 3.0)):
        try:
            eq = solve_equilibrium_general(problem, contract, init=init, tol=_EQ_TOL)
        except EquilibriumError as exc:
            last_error = exc
            continue
        if eq.global_check_passed is False:
            last_error = EquilibriumError(_CHECK_FAILED)
            continue
        payoff = _principal_payoff(problem, contract, eq.probs)
        if best is None or payoff > best[0]:
            best = (payoff, eq)
    if best is None:
        raise last_error if last_error is not None else EquilibriumError("no equilibrium found")
    return best[1]


def _payoff_gradient(first_order: _FirstOrderObjects, eq: EquilibriumResult) -> np.ndarray:
    """Analytic gradient of the principal payoff in every payment cell, from
    the first-order objects at ``eq``."""
    grad = first_order.D_term * first_order.performance_gradient() - eq.probs[None, :]
    # Unbounded entries (marginal utility at a zero payment) keep their sign
    # but are capped near the finite entries' scale, so one runaway
    # coordinate cannot starve the line search.
    finite = grad[np.isfinite(grad)]
    cap = min(_BIG_GRADIENT, 10.0 * (1.0 + (np.max(np.abs(finite)) if finite.size else 1.0)))
    return np.nan_to_num(grad, nan=0.0, posinf=cap, neginf=-cap)


def _kkt_residual(tau: np.ndarray, grad: np.ndarray) -> float:
    viol = np.where(grad > 0.0, grad, np.minimum(tau, -grad))
    return float(np.max(viol)) if viol.size else 0.0


def _balance_residual_or_none(problem, contract, eq) -> float | None:
    try:
        return compute_balance_report(problem, contract, eq).max_relative_residual()
    except (DiagnosticsError, DomainError):
        # No balance report without active agents, or where the production
        # gradient is singular (Cobb-Douglas with an idle agent).
        return None


# ---------------------------------------------------------------------------
# projected gradient ascent
# ---------------------------------------------------------------------------


def _seed_contracts(problem: Problem) -> list:
    """``_STARTS`` deterministic starts: revenue-proportional contracts at
    several scales (so every seed carries outcome-contingent incentive) plus
    per-agent concentrated variants."""
    n = problem.n
    v = np.asarray(problem.outcomes.revenues, dtype=float)
    direction = v / max(float(np.max(v)), 1e-12) if np.max(v) > 0 else np.ones_like(v)
    seeds = []
    for scale in (0.25, 0.05, 0.5, 0.9):
        seeds.append(np.tile(scale * direction / n, (n, 1)))
    # Productivity-weighted seeds: strongly complementary production (e.g.
    # multiplicative) has no gradient signal at the dormant equilibrium, so
    # at least one seed must start inside the live region with a sensible
    # cross-agent split.
    try:
        marginal = problem.production.gradient(np.ones(n))
        if np.all(np.isfinite(marginal)) and np.all(marginal > 0.0):
            split = marginal / float(np.sum(marginal))
            for scale in (0.9, 0.5):
                seeds.append(np.outer(split, scale * direction))
    except ModelError:
        pass
    for i in range(max(0, _STARTS - len(seeds))):
        tau = np.tile(0.02 * direction / n, (n, 1))
        tau[i % n] = 0.5 * direction
        seeds.append(tau)
    return seeds[:_STARTS]


@dataclass(frozen=True)
class _Parametrization:
    """The variable a projected ascent climbs in: ``contract`` maps it to a
    payment contract, ``pull_back`` maps the payoff's payment gradient to its
    gradient, and ``project`` is the Euclidean projection onto its feasible
    set."""

    contract: Callable[[np.ndarray], Contract]
    pull_back: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]

    def payoff(self, problem: Problem, x: np.ndarray, eq: EquilibriumResult) -> float:
        return _principal_payoff(problem, self.contract(x), eq.probs)

    def gradient(self, problem: Problem, x: np.ndarray, eq: EquilibriumResult):
        """The first-order objects at ``eq`` and the payoff's gradient in
        ``x``, taken from them."""
        first_order = _FirstOrderObjects(problem, self.contract(x), eq)
        return first_order, self.pull_back(_payoff_gradient(first_order, eq))


_PAYMENTS = _Parametrization(Contract, lambda grad: grad, lambda tau: np.maximum(0.0, tau))


def _ascend(problem: Problem, x0: np.ndarray, var: _Parametrization, known=None):
    """Projected Armijo ascent with Barzilai-Borwein steps from ``x0``.  It
    stops at a KKT residual within ``_KKT_TOL``, on reaching a run in
    ``known`` that another start already certified, when the line search
    stalls, or after ``_ASCENT_STEPS`` steps.  Returns ``(x, eq,
    payoff, kkt, converged)``.

    A stall counts as converged when the first trial's predicted gain was
    within the payoff's rounding: the step the curvature allows can raise
    the payoff by no amount it resolves, so the KKT residual sits at its
    noise floor, and ``kkt`` reports that floor.

    Each line-search trial that goes to the general solver is solved warm
    from the tangent prediction ``a - J^{-1} dF``
    (``_FirstOrderObjects.tangent_profile``), with ``J`` the first-order
    Jacobian the payoff gradient at the current equilibrium was built from,
    so such a trial costs one small solve more and usually no best-response
    sweep; the quadratic-binary fast path computes no prediction."""
    x = x0.copy()
    eq = _solve_eq_selected(problem, var.contract(x))
    payoff = var.payoff(problem, x, eq)
    step = _STEP_INIT
    prev = None  # (x, grad) for the Barzilai-Borwein step length
    for _ in range(_ASCENT_STEPS):
        # A start homing in on an optimum another start already certified
        # can stop; re-running the same endgame is pure waste.
        if known:
            for run in known:
                if (
                    float(np.max(np.abs(x - run[0]))) < 1e-2 * (1.0 + float(np.max(run[0])))
                    and payoff >= run[2] - 1e-7 * (1.0 + abs(run[2]))
                ):
                    return run
        first_order, grad = var.gradient(problem, x, eq)
        kkt = _kkt_residual(x, grad)
        if kkt <= _KKT_TOL:
            return x, eq, payoff, kkt, True
        if prev is not None:
            # Barzilai-Borwein step over the free coordinates only; entries
            # pinned at the zero bound carry capped gradients whose jitter
            # would poison the quotient.
            free = ~((x.ravel() == 0.0) & (grad.ravel() <= 0.0))
            d_x = (x - prev[0]).ravel()[free]
            d_grad = (grad - prev[1]).ravel()[free]
            denom = float(d_grad @ d_grad)
            if denom > 0.0:
                bb = abs(float(d_x @ d_grad)) / denom
                if np.isfinite(bb) and bb > 0.0:
                    step = min(max(bb, 1e-12), 1e3)
        prev = (x.copy(), grad.copy())
        accepted = False
        flat = False  # the first trial's predicted gain is below the payoff's rounding
        for backtrack in range(_MAX_BACKTRACKS):
            trial = var.project(x + step * grad)
            delta = trial - x
            if not np.any(delta):
                break
            gain = float(np.sum(grad * delta))
            if backtrack == 0:
                flat = gain <= np.finfo(float).eps * (1.0 + abs(payoff))
            contract = var.contract(trial)
            try:
                eq_t = _solve_eq_checked(problem, contract, partial(first_order.tangent_profile, contract.payments))
            except (EquilibriumError, CapExceededError):
                step *= 0.5
                continue
            pay_t = var.payoff(problem, trial, eq_t)
            if pay_t >= payoff + _ARMIJO * gain:
                x, eq, payoff = trial, eq_t, pay_t
                step = min(step * 1.3, 1e3)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return x, eq, payoff, kkt, flat
    kkt = _kkt_residual(x, var.gradient(problem, x, eq)[1])
    return x, eq, payoff, kkt, kkt <= _KKT_TOL


def _best_ascent(problem: Problem, seeds, var: _Parametrization):
    """Projected ascent from every distinct seed.  The best converged local
    optimum wins, with payoff ties broken toward the lexicographically
    smallest variable; returns ``(x, eq, payoff, kkt)``.  Raises
    ``OptimizationError`` when no start converges."""
    runs = []
    failures = []
    seen_seeds = []
    for x0 in seeds:
        if any(np.array_equal(x0, s) for s in seen_seeds):
            continue
        seen_seeds.append(x0)
        try:
            x, eq, payoff, kkt, converged = _ascend(problem, x0, var, known=runs)
        except (EquilibriumError, DiagnosticsError, ModelError) as exc:
            failures.append(str(exc))
            continue
        if converged:
            runs.append((x, eq, payoff, kkt, True))

    if not runs:
        raise OptimizationError(f"no start converged to tolerance (failures: {failures[:3]})")

    best_pay = max(r[2] for r in runs)
    ties = [r for r in runs if r[2] >= best_pay - 1e-12]
    ties.sort(key=lambda r: tuple(r[0].ravel()))
    return ties[0][:4]


def optimize_general(problem: Problem) -> OptimalContractResult:
    """Multi-start projected gradient ascent on the principal payoff.

    ``_STARTS`` deterministic seeds (revenue-proportional contracts at
    four scales, productivity-weighted ones at two, then per-agent
    concentrated ones); Armijo backtracking line search; the best converged
    local optimum wins, with payoff ties broken toward the lexicographically
    smallest contract.
    """
    tau, eq, payoff, kkt = _best_ascent(problem, _seed_contracts(problem), _PAYMENTS)

    contract = Contract(tau)
    return OptimalContractResult(
        contract=contract,
        equilibrium=eq,
        principal_payoff=payoff,
        active_set=tuple(int(i) for i in np.flatnonzero(eq.actions > ACTIVITY_TOL)),
        kkt_residual=kkt,
        method="general",
        max_balance_residual=_balance_residual_or_none(problem, contract, eq),
    )


# ---------------------------------------------------------------------------
# active sets
# ---------------------------------------------------------------------------


def _maximum_cliques(adjacency: np.ndarray, budget: int) -> list:
    """All maximum cliques, by branch-and-bound extension of candidate sets.
    Raises ``ActiveSetError`` when the search needs more than ``budget``
    nodes (calls of the extension step)."""
    n = adjacency.shape[0]
    neighbors = [set(np.flatnonzero(adjacency[i] > 0.0)) for i in range(n)]
    best: list = []
    best_size = 0
    nodes = 0

    def extend(clique: list, candidates: list):
        nonlocal best, best_size, nodes
        nodes += 1
        if nodes > budget:
            raise ActiveSetError(
                f"maximum-clique search stopped at its budget of {budget} branch-and-bound nodes; "
                "use optimize_general"
            )
        if not candidates:
            if len(clique) > best_size:
                best, best_size = [tuple(clique)], len(clique)
            elif len(clique) == best_size:
                best.append(tuple(clique))
            return
        if len(clique) + len(candidates) < best_size:
            return
        for idx, v in enumerate(candidates):
            rest = [u for u in candidates[idx + 1:] if u in neighbors[v]]
            # Only recurse when the branch can still tie the incumbent.
            if len(clique) + 1 + len(rest) >= best_size:
                extend(clique + [v], rest)

    extend([], list(range(n)))
    return sorted(set(best))


def _balanced_candidates(gs: np.ndarray, agents: np.ndarray) -> list:
    """The (network, subset) pairs, over every network of the stack ``gs``
    and every row of ``agents`` (one subset of one size per row), whose
    induced subnetwork is connected with diameter at most 2 and solves
    ``G_S t = 1`` with ``t > 0``; one batched solve for all of them.  Returns
    (network index, candidate) pairs."""
    size = agents.shape[1]
    sub = gs[:, agents[:, :, None], agents[:, None, :]].reshape(-1, size, size)
    adj = sub > 0.0
    reach = adj | (adj @ adj)
    reach[:, np.arange(size), np.arange(size)] = True
    keep = reach.all(axis=(1, 2))
    # A batched solve raises for the whole stack if one matrix is singular.
    # The sign of the determinant comes from the same LU factorization, and
    # is 0 exactly where the solve would raise, even when the determinant
    # itself would underflow.
    keep[keep] = np.linalg.slogdet(sub[keep])[0] != 0.0
    rows, sub = np.flatnonzero(keep), sub[keep]
    t = np.linalg.solve(sub, np.ones((len(rows), size, 1)))
    residual = np.max(np.abs(sub @ t - 1.0), axis=(1, 2))
    t = t[..., 0]
    ok = np.isfinite(t).all(axis=1) & (residual <= 1e-8) & (t.min(axis=1) > 1e-12)
    rows, t = rows[ok], t[ok]
    total = t.sum(axis=1)
    return [
        (net, ActiveSetCandidate(agents=tuple(row), share_rate=rate, direction=direction))
        for net, row, rate, direction in zip((rows // len(agents)).tolist(), agents[rows % len(agents)].tolist(),
                                             (1.0 / total).tolist(), t / total[:, None])
    ]


def optimal_active_set(network: Network, *, cap: int = _CAP) -> list:
    """Ranked candidate active sets for the quadratic-binary environment.

    Unweighted (0/1) networks: the maximum cliques, with balance constant
    ``(k-1)/k`` per unit share (Motzkin & Straus, 1965), found by a
    branch-and-bound search of at most ``2**cap`` nodes at any network size.
    Weighted networks of at most ``cap`` agents: all connected subsets of
    diameter at most 2 whose subnetwork supports a positive balanced payment
    direction, scored by balance constant per unit share; the ``2**n``
    subsets are enumerated exactly, each size in batches of up to
    ``_CHUNK`` subsets.  Ties break toward smaller then lexicographically
    earlier sets.  The ranking does not depend on the success probability,
    which only scales the share level in the downstream share searches.
    Raises ``ActiveSetError`` for a weighted network of more than ``cap``
    agents and for a clique search past its node budget.  A batch of one of
    ``_ranked_active_sets``.
    """
    return _only(_ranked_active_sets(network.matrix[None], cap))


def _ranked_active_sets(gs: np.ndarray, cap: int) -> list:
    """``optimal_active_set`` for every network of the stack ``gs`` (k, n, n):
    per network its ranked candidates, or the ``ActiveSetError`` that stops
    its search.  Each 0/1 network runs its own clique search; the weighted
    ones are enumerated together, each subset size in calls of at most
    ``_CHUNK`` (network, subset) rows while k is at most ``_CHUNK``."""
    k, n = gs.shape[:2]
    out = [None] * k
    binary = np.all((gs == 0.0) | (gs == 1.0), axis=(1, 2))
    for j in np.flatnonzero(binary):
        try:
            # No search reaches 2**64 nodes; the bound keeps a huge cap from
            # building a huge integer.
            cliques = _maximum_cliques(gs[j], 2 ** min(cap, 64))
        except ActiveSetError as exc:
            out[j] = exc
            continue
        # The cliques come sorted, all of one size.
        out[j] = [
            ActiveSetCandidate(agents=tuple(int(i) for i in clique), share_rate=(len(clique) - 1.0) / len(clique),
                               direction=np.full(len(clique), 1.0 / len(clique)))
            for clique in cliques
        ]

    weighted = np.flatnonzero(~binary)
    if not weighted.size:
        return out
    if n > cap:
        for j in weighted:
            out[j] = ActiveSetError(
                f"active-set enumeration of a weighted network capped at {cap} agents "
                f"(2^{cap} subsets); use optimize_general"
            )
        return out
    for j in weighted:
        out[j] = [ActiveSetCandidate(agents=(i,), share_rate=0.0, direction=np.ones(1)) for i in range(n)]
    per_call = max(1, _CHUNK // weighted.size)
    stack = gs[weighted]
    for size in range(2, n + 1):
        subsets = itertools.combinations(range(n), size)
        while (agents := np.fromiter(itertools.islice(subsets, per_call), dtype=(np.intp, size))).size:
            for j, candidate in _balanced_candidates(stack, agents):
                out[weighted[j]].append(candidate)
    for j in weighted:
        out[j].sort(key=lambda c: (-c.share_rate, len(c.agents), c.agents))
    return out


# ---------------------------------------------------------------------------
# quadratic-binary closed form
# ---------------------------------------------------------------------------


def _performance_ceiling(p: SuccessProbability) -> float:
    """Highest equilibrium performance the quadratic-binary share search
    reaches: just below a linear success probability's cap, else ``_Y_CEIL``."""
    return p.cap * (1.0 - 1e-12) if isinstance(p, LinearCappedSuccess) else _Y_CEIL


def _balanced_share(y, rate, p: SuccessProbability):
    """Total share of the balanced-equity contract (neighborhood equity
    ``lam = s * rate``) whose equilibrium performance is ``y``.

    This inverts the one-mode case of the quadratic equilibrium's
    performance map, ``y = s (c/q + c^2 lam / (2 q^2))`` with ``c = P'(y)``
    and ``q = 1 - c lam``.  In ``x = c lam`` the map reads
    ``2 rate y = 1/(1 - x)^2 - 1``, so ``x = 1 - 1/r`` with
    ``r = sqrt(1 + 2 rate y)`` and ``s = x / (rate c) = 2y / (r (1 + r) c)``,
    which is ``y / c`` at rate 0.  Every ``y >= 0`` has ``x < 1``, so the
    spectral condition holds all along the curve.  Vectorised over ``y`` and
    ``rate``.
    """
    r = np.sqrt(1.0 + 2.0 * rate * y)
    return 2.0 * y / (r * (1.0 + r) * p.deriv(y))


def _payoff_along(share, p: SuccessProbability, y_max: float, stable=None):
    """The principal payoff ``(1 - s(y)) P(y)`` along a share curve ``s``,
    vectorised over the performance ``y``; ``-inf`` past ``y_max``, where the
    share reaches 1, or where ``stable(y, s)`` fails."""
    def payoff(y):
        y = np.asarray(y, dtype=float)
        inside = y <= y_max
        y = np.where(inside, y, y_max)
        # Off the valid range the curve may overflow or divide by zero; those
        # points are masked out.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.asarray(share(y))
            ok = inside & (s < 1.0)
            if stable is not None:
                ok &= stable(y, s)
            return np.where(ok, (1.0 - s) * p.value(y), -np.inf)
    return payoff


def _performance_search(payoff, y_max: float, zero_payoff: float) -> float:
    """Maximizer over the equilibrium performance of a payoff from
    ``_payoff_along``: a geometric prescan of ``[_Y_FLOOR, y_max]``, then
    linear zooms into the two grid intervals around the best point until
    the bracket is at most ``_ZOOM_TOL`` of the prescan bracket's upper end,
    whose midpoint is returned; a maximum at the first prescan point is
    refined down to 0.  Paying nothing earns ``zero_payoff``, and
    performance 0 wins when that is no less."""
    grid = np.geomspace(_Y_FLOOR, y_max, _PRESCAN)
    k = int(np.argmax(payoff(grid)))
    lo = grid[k - 1] if k > 0 else 0.0
    hi = grid[min(_PRESCAN - 1, k + 1)]
    tol = _ZOOM_TOL * hi
    for _ in range(_ZOOMS):
        grid = np.linspace(lo, hi, _ZOOM_POINTS)
        k = int(np.argmax(payoff(grid)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, _ZOOM_POINTS - 1)]
        if hi - lo <= tol:
            break
    y = 0.5 * (lo + hi)
    return 0.0 if zero_payoff >= payoff(y) else float(y)


def _share_kkt(payoff, x: float, share, value: float) -> float:
    """Finite-difference optimality residual, in the total share, of a 1-D
    payoff in ``x`` at ``x``, where the payoff is ``value``.  ``share(x)`` is
    the total share, monotone in ``x``, and the residual follows the chain
    rule ``|dpi/ds| = |dpi/dx| / |ds/dx|``; with ``share`` None, ``x`` is the
    share itself."""
    h = max(1e-7, 1e-7 * x)
    up = payoff(x + h)
    if x == 0.0:
        # Zero share sits on the bound: only a payoff rising away from it
        # violates optimality.
        if up <= value:
            return 0.0
        lo, hi, slope = 0.0, h, (up - value) / h
    else:
        lo = max(x - h, 1e-12)
        down = payoff(lo)
        if np.isfinite(up):
            hi, slope = x + h, abs(up - down) / (2 * h)
        else:
            # Past the cap kink: x is an upper-bound optimum, so only a
            # payoff falling towards it from the left violates optimality.
            hi, slope = x, max(0.0, -(value - down) / h)
    ds = 1.0 if share is None else abs(share(hi) - share(lo)) / (hi - lo)
    return float(slope / ds)


def optimize_quadratic_binary(network: Network, p: SuccessProbability) -> OptimalContractResult:
    """``_quadratic_closed_form`` plus its ``max_balance_residual`` certificate (a fallback has its own)."""
    opt = _quadratic_closed_form(network, p)
    if opt.method != "quadratic_closed_form":
        return opt
    problem = quadratic_binary_problem(network, p)
    return replace(opt, max_balance_residual=_balance_residual_or_none(problem, opt.contract, opt.equilibrium))


def _quadratic_closed_form(network: Network, p: SuccessProbability) -> OptimalContractResult:
    """Closed-form optimal contract for the quadratic-network environment,
    without the balance certificate ``max_balance_residual``.

    Enumerates candidate active sets, takes the best balance rate, and
    maximizes the exact principal payoff over the total share.  Under a
    linear success probability the optimal share is the root of the share
    cubic; otherwise, or when that root's performance reaches the cap, the
    search runs over the equilibrium performance, whose balanced-equity
    share is explicit (``_balanced_share``).  Falls back to the gradient
    optimizer, with a warning that names the bound, when the active-set
    search stops at its work bound.  A batch of one of
    ``_quadratic_closed_forms``.
    """
    return _only(_quadratic_closed_forms([network], p))


def _quadratic_closed_forms(networks: list, p: SuccessProbability) -> list:
    """``_quadratic_closed_form`` for networks of one size together: one
    ranking of all their active sets (``_ranked_active_sets``), the optimal
    share network by network, and one stacked solve of all their equilibria
    (``_quadratic_equilibria``).  Returns per network its result, bit for bit
    the one it gets alone, or the exception that stops it, which leaves the
    other networks unaffected."""
    gs = np.stack([network.matrix for network in networks])
    out = [None] * len(networks)
    shares = []  # (network index, best candidate, optimal share, where its residual is taken)
    for j, ranked in enumerate(_ranked_active_sets(gs, _CAP)):
        try:
            if isinstance(ranked, ActiveSetError):
                warnings.warn(f"no usable active set ({ranked}); falling back to the gradient optimizer")
                out[j] = optimize_general(quadratic_binary_problem(networks[j], p))
            else:
                shares.append((j, ranked[0], *_optimal_share(ranked[0].share_rate, p)))
        except Exception as exc:  # the network's own failure, whatever its type
            out[j] = exc
    taus = np.zeros((len(shares), gs.shape[1]))
    for tau, (_, best, s_star, _) in zip(taus, shares):
        tau[list(best.agents)] = s_star * best.direction
    rows = [j for j, *_ in shares]
    equilibria = _quadratic_equilibria(gs[rows], taus, p, np.ones(gs.shape[1]))
    for (j, best, s_star, residual_at), tau, eq in zip(shares, taus, equilibria):
        try:
            out[j] = eq if isinstance(eq, Exception) else _closed_form_result(gs[j], p, best, s_star, tau, eq,
                                                                               residual_at)
        except Exception as exc:  # the network's own failure, whatever its type
            out[j] = exc
    return out


def _optimal_share(rate: float, p: SuccessProbability) -> tuple:
    """Optimal total share on an active set of balance rate ``rate``, and the
    (payoff, x, share) at which ``_share_kkt`` takes its residual."""
    linear = isinstance(p, LinearCappedSuccess)
    y_max = _performance_ceiling(p)
    if linear and p.slope * rate < 1.0:
        # The payoff's share derivative has the sign of the share cubic, so its
        # root is the optimum unless the performance there reaches the cap.
        # Under a linear success probability the performance is explicit in
        # the share as well.
        def payoff_of_share(s: float) -> float:
            y = _performance_map(float(p.slope), s, s * rate)
            return (1.0 - s) * float(p.value(y)) if y <= y_max else -np.inf

        try:
            root = total_share_root(1.0, p.slope, 1.0 / rate) if rate > 0.0 else 0.5
        except ModelError:
            # Just below slope * rate = 1 the cubic's value at s = 1 can round
            # to >= 0, so its bracket fails; the search below covers that case.
            root = None
        if root is not None and np.isfinite(payoff_of_share(root)):
            return root, (payoff_of_share, root, None)

    def share(y):
        return _balanced_share(y, rate, p)

    payoff_of_performance = _payoff_along(share, p, y_max)
    y_star = _performance_search(payoff_of_performance, y_max, float(p.value(0.0)))
    return float(share(y_star)), (payoff_of_performance, y_star, share)


def _closed_form_result(g: np.ndarray, p: SuccessProbability, best: ActiveSetCandidate, s_star: float,
                        tau: np.ndarray, eq: EquilibriumResult, residual_at: tuple) -> OptimalContractResult:
    """The closed form's result at success payments ``tau``, the share
    ``s_star`` along ``best``, once the balanced-neighborhood conditions hold
    at its equilibrium ``eq`` on the network ``g``."""
    agents = np.array(best.agents, dtype=int)
    sub = g[np.ix_(agents, agents)]
    equity_levels = sub @ tau[agents]
    action_levels = sub @ eq.actions[agents]
    for name, levels in (("equity", equity_levels), ("action", action_levels)):
        spread = float(np.max(levels) - np.min(levels))
        scale = max(abs(float(np.mean(levels))), 1e-12)
        if agents.size > 1 and spread / scale > 1e-6:
            raise OptimizationError(f"balanced neighborhood {name} violated (spread {spread:.3g})")

    payments = np.zeros((tau.size, 2))
    payments[:, 1] = tau
    contract = Contract(payments)
    # _principal_payoff's expression, without building the problem around the revenues
    payoff = float((BinaryOutcomeModel(p).revenues - contract.payments.sum(axis=0)) @ eq.probs)
    return OptimalContractResult(
        contract=contract,
        equilibrium=eq,
        principal_payoff=payoff,
        active_set=tuple(int(i) for i in agents) if s_star > 0.0 else (),
        kkt_residual=_share_kkt(*residual_at, payoff),
        method="quadratic_closed_form",
        balance_constant=float(s_star * best.share_rate),
        neighborhood_action_constant=float(np.mean(action_levels)) if agents.size > 1 else 0.0,
    )


# ---------------------------------------------------------------------------
# separable closed forms
# ---------------------------------------------------------------------------


def _second_order_ok(production, p: SuccessProbability, y, tau, actions):
    """Each agent's payoff must be locally concave at the candidate
    equilibrium: tau_i * (P'' (dY/da_i)^2 + P' d2Y/da_i^2) <= C'' = 1.
    Vectorised over ``y``; ``tau`` and ``actions`` carry a trailing agent
    axis, and a profile with a non-finite or non-positive action fails."""
    ok = np.all(np.isfinite(actions) & (actions > 0.0), axis=-1)
    actions = np.where(ok[..., None], actions, 1.0)
    dp = p.deriv(y)
    d2p = p.second(y)
    for i in range(actions.shape[-1]):
        dy = production.partial(actions, i)
        d2y = production.partial2(actions, i)
        ok &= tau[..., i] * (d2p * dy * dy + dp * d2y) <= 1.0 + 1e-7
    return ok


def _separable_curve(production, p: SuccessProbability, d_hat: np.ndarray):
    """Share curve of the separable environments under payments
    ``t * d_hat``: the agents' first-order conditions tie the performance
    ``y`` to ``t`` through a scalar equation that is explicit in ``t``.
    Returns ``share(y)``, that ``t``, and ``actions(y, t)``, the profile
    there; both are vectorised over ``y``.

    At a fixed ``t`` several performances can solve the equation; a higher
    stable one pays the principal more, so a maximum over ``y`` never picks
    a dominated one.
    """
    if isinstance(production, CobbDouglasProduction):
        shares = production.shares
        total = float(np.sum(shares))
        log_k = float(np.sum(0.5 * shares * np.log(d_hat * shares)))

        # a_i^2 = t d_i gamma_i P'(y) y and y = prod a_i^gamma_i give
        # (1 - total/2) ln y = (total/2) (ln t + ln P'(y)) + log_k.
        def share(y):
            return np.exp((2.0 / total) * (
                (1.0 - 0.5 * total) * np.log(y) - 0.5 * total * np.log(p.deriv(y)) - log_k
            ))

        def actions(y, t):
            return np.sqrt(np.asarray(t * p.deriv(y) * y)[..., None] * d_hat * shares)

    elif isinstance(production, CESProduction):
        shares, rho, returns = production.shares, production.rho, production.returns
        q = float(np.sum(shares * (d_hat * shares) ** (rho / (2.0 - rho))))

        def pull(y):
            return returns * p.deriv(y) * y ** (1.0 - rho / returns)

        # a_i^(2 - rho) = t d_i gamma_i b with b = pull(y), and the CES
        # aggregate gives y^((2 - rho) / returns) = t q^((2 - rho) / rho) b.
        def share(y):
            return y ** ((2.0 - rho) / returns) / (q ** ((2.0 - rho) / rho) * pull(y))

        def actions(y, t):
            return (np.asarray(t * pull(y))[..., None] * d_hat * shares) ** (1.0 / (2.0 - rho))

    else:
        raise ModelError(f"no separable closed form for {type(production).__name__}")
    return share, actions


def _separable_closed_form(production, p, direction: np.ndarray, method: str) -> OptimalContractResult:
    n = direction.size
    d_hat = direction / float(np.sum(direction))
    share, actions_at = _separable_curve(production, p, d_hat)
    y_max = _performance_ceiling(p)

    def stable(y, t):
        return _second_order_ok(production, p, y, t[..., None] * d_hat, actions_at(y, t))

    payoff_of_performance = _payoff_along(share, p, y_max, stable)
    y_star = _performance_search(payoff_of_performance, y_max, float(p.value(0.0)))
    if y_star == 0.0:
        # Paying nothing leaves every agent at the dormant corner.
        t_star, actions = 0.0, np.zeros(n)
    else:
        t_star = float(share(y_star))
        actions = actions_at(y_star, t_star)
    tau = t_star * d_hat

    problem = _binary_linear_unit_problem(production, p)
    payments = np.zeros((n, 2))
    payments[:, 1] = tau
    contract = Contract(payments)
    eq = solve_equilibrium_general(problem, contract, init=actions, tol=_EQ_TOL)
    if abs(eq.performance - y_star) > 1e-6 * max(1.0, y_star):
        raise OptimizationError(
            f"{method}: scalar fixed point and best-response equilibrium disagree "
            f"({y_star:.9g} vs {eq.performance:.9g})"
        )
    payoff = _principal_payoff(problem, contract, eq.probs)
    return OptimalContractResult(
        contract=contract,
        equilibrium=eq,
        principal_payoff=payoff,
        active_set=tuple(range(n)) if t_star > 0.0 else (),
        kkt_residual=_share_kkt(payoff_of_performance, y_star, share, payoff),
        method=method,
        max_balance_residual=_balance_residual_or_none(problem, contract, eq),
    )


def closed_form_cobb_douglas(gamma, p: SuccessProbability) -> OptimalContractResult:
    """Optimal contract for Cobb-Douglas production in the binary
    environment: payments proportional to factor shares, scaled by a 1-D
    payoff search over the equilibrium performance, where the total share is
    explicit; only the optimum's contract is solved, as a check."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0.0):
        raise ModelError("factor shares must be strictly positive")
    if abs(float(np.sum(gamma)) - 2.0) < 1e-12:
        raise ModelError("total factor share of exactly 2 makes the scalar equilibrium degenerate")
    production = CobbDouglasProduction(gamma)
    return _separable_closed_form(production, p, gamma, "cobb_douglas_closed_form")


def closed_form_ces(gamma, rho: float, kappa: float, p: SuccessProbability) -> OptimalContractResult:
    """Optimal contract for CES production (``rho < 1``): payments
    proportional to ``gamma ** (1 / (1 - rho))``."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0.0):
        raise ModelError("factor shares must be strictly positive")
    if rho == 0.0:
        raise ModelError("rho must be nonzero; use the Cobb-Douglas closed form")
    if rho >= 1.0:
        raise ModelError("closed form restricted to rho < 1 (interior payments)")
    if abs(2.0 - float(kappa)) < 1e-12:
        raise ModelError("returns-to-scale of exactly 2 makes the scalar equilibrium degenerate")
    production = CESProduction(gamma, rho, kappa)
    direction = gamma ** (1.0 / (1.0 - rho))
    return _separable_closed_form(production, p, direction, "ces_closed_form")


# ---------------------------------------------------------------------------
# total-share cubic (linear success probability)
# ---------------------------------------------------------------------------


def share_cubic(s: float, beta: float, kappa: float, kstar: float) -> float:
    """Numerator of the share derivative of the principal payoff under a
    linear success probability: a cubic in the total share."""
    bk = beta * kappa
    return -(bk**2) * s**3 + 3.0 * bk * kstar * s**2 - 4.0 * kstar**2 * s + 2.0 * kstar**2


def total_share_root(beta: float, kappa: float, kstar: float) -> float:
    """Optimal total share with a linear success probability: the unique
    root of the share cubic, which lies in (1/2, 1), by ``equilibrium.brentq``
    to ``_SHARE_ROOT_TOL`` within ``_SHARE_ROOT_STEPS`` steps.  Requires ``beta * kappa < kstar``."""
    if not beta * kappa < kstar:
        raise ModelError(f"requires beta * kappa < kstar, got {beta * kappa:.6g} >= {kstar:.6g}")
    args = (beta, kappa, kstar)
    if share_cubic(0.5, *args) <= 0.0:
        raise ModelError("cubic not positive at s = 1/2; parameters out of range")
    if share_cubic(1.0, *args) >= 0.0:
        raise ModelError("cubic not negative at s = 1; parameters out of range")
    root, _, converged = brentq(lambda s: share_cubic(s, *args), 0.5, 1.0,
                                xtol=_SHARE_ROOT_TOL, maxiter=_SHARE_ROOT_STEPS)
    if not converged:
        raise ModelError(f"share cubic root not found within the budget of {_SHARE_ROOT_STEPS} Brent steps")
    return root
