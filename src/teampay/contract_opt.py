"""Optimal contract search.

Four routes: a projected-gradient ascent with the analytic payoff gradient
(any problem; ``teampay.equity`` runs the same ascent in equity shares), a
closed form for the quadratic-network binary environment
(active-set enumeration plus the optimal total share under the
balanced-neighborhood-equity structure: the share cubic's root under a linear
success probability, a one-dimensional search otherwise), and transformed
closed forms for Cobb-Douglas and CES production.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .diagnostics import ACTIVITY_TOL, DiagnosticsError, _FirstOrderObjects, compute_balance_report
from .equilibrium import (
    EquilibriumError,
    _performance_fixed_point,
    _performance_map,
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
)

__all__ = [
    "OptimizationError",
    "ActiveSetError",
    "OptimizerOptions",
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
_PRESCAN = 64          # grid points of the 1-D share search
_GOLDEN_TOL = 1e-11    # bracket width at which the share search stops


class OptimizationError(RuntimeError):
    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ActiveSetError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizerOptions:
    tol: float = 1e-8            # projected-gradient KKT residual
    max_iters: int = 4000
    starts: int = 8


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

    def to_dict(self) -> dict:
        return {
            "contract": {"payments": [[float(x) for x in row] for row in self.contract.payments]},
            "equilibrium": self.equilibrium.to_dict(),
            "principal_payoff": float(self.principal_payoff),
            "active_set": [int(i) for i in self.active_set],
            "kkt_residual": float(self.kkt_residual),
            "method": self.method,
            "balance_constant": None if self.balance_constant is None else float(self.balance_constant),
            "neighborhood_action_constant": (
                None if self.neighborhood_action_constant is None
                else float(self.neighborhood_action_constant)
            ),
            "max_balance_residual": (
                None if self.max_balance_residual is None else float(self.max_balance_residual)
            ),
        }


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


def quadratic_binary_problem(network: Network, p: SuccessProbability, standalone=None) -> Problem:
    """The canonical environment: quadratic-network production, success or
    failure outcome, linear money utility, unit quadratic effort costs."""
    n = network.n
    return Problem(
        n=n,
        production=QuadraticNetworkProduction(network, standalone),
        outcomes=BinaryOutcomeModel(p),
        utilities=tuple(LinearUtility() for _ in range(n)),
        costs=tuple(PowerCost(1.0, 2.0) for _ in range(n)),
    )


def _is_quadratic_binary(problem: Problem) -> bool:
    return (
        isinstance(problem.production, QuadraticNetworkProduction)
        and isinstance(problem.outcomes, BinaryOutcomeModel)
        and all(isinstance(u, LinearUtility) for u in problem.utilities)
        and all(c.scale == 1.0 and c.exponent == 2.0 for c in problem.costs)
        and problem.outcomes.success.concave_on_nonneg()
    )


def _solve_eq(problem: Problem, contract: Contract, warm=None, *, tol: float = 1e-11) -> EquilibriumResult:
    """Equilibrium dispatcher: the quadratic-binary fast path applies whenever
    effective success incentives (success minus failure pay) are nonnegative,
    since equilibria depend on payments only through that difference."""
    if _is_quadratic_binary(problem):
        eff = contract.payments[:, 1] - contract.payments[:, 0]
        if np.all(eff >= 0.0):
            prod = problem.production
            return solve_equilibrium_quadratic_binary(
                prod.network, eff, problem.outcomes.success, prod.standalone
            )
    return solve_equilibrium_general(problem, contract, init=warm, tol=max(tol, 1e-12))


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


def _solve_eq_selected(problem: Problem, contract: Contract, *, tol: float = 1e-11) -> EquilibriumResult:
    """Equilibrium with principal-best selection across several dynamics
    initializations.  Production functions with strong joint complementarity
    can pair a dormant equilibrium with an active one; the principal-optimal
    selection keeps whichever gives the higher payoff."""
    if _is_quadratic_binary(problem):
        return _solve_eq(problem, contract, tol=tol)
    n = problem.n
    best = None
    last_error = None
    for init in (np.full(n, 0.1), np.ones(n), np.full(n, 3.0)):
        try:
            eq = solve_equilibrium_general(problem, contract, init=init, tol=max(tol, 1e-12))
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


def _payoff_gradient(problem: Problem, contract: Contract, eq: EquilibriumResult) -> np.ndarray:
    """Analytic gradient of the principal payoff in every payment cell."""
    probs, dprobs, _ = problem.outcomes.probs_derivs(eq.performance)
    d_term = float((problem.outcomes.revenues - contract.payments.sum(axis=0)) @ dprobs)
    if np.any(eq.actions > ACTIVITY_TOL):
        obj = _FirstOrderObjects(problem, contract, eq)
        dy = obj.performance_gradient()
    else:
        # Dormant team: every agent sits at the degenerate corner, so the
        # first incentive round has no spillover feedback.  Each agent's
        # marginal product there is the own partial, which stays defined
        # where the full gradient is singular (Cobb-Douglas at zero).
        zeros = np.zeros(problem.n)
        grad0 = np.array([problem.production.partial(zeros, i) for i in range(problem.n)])
        curv0 = np.array([float(problem.costs[i].curvature(0.0)) for i in range(problem.n)])
        marg = np.array([problem.utilities[i].marginal(contract.payments[i]) for i in range(problem.n)])
        with np.errstate(invalid="ignore"):
            dy = np.where(
                dprobs[None, :] > 0.0, (grad0**2 / curv0)[:, None] * dprobs[None, :] * marg, 0.0
            )
        dy = np.nan_to_num(dy, nan=0.0, posinf=np.inf, neginf=-np.inf)
    grad = d_term * dy - probs[None, :]
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
        # No balance report where the production gradient is singular
        # (Cobb-Douglas at the dormant profile).
        return None


# ---------------------------------------------------------------------------
# projected gradient ascent
# ---------------------------------------------------------------------------


def _seed_contracts(problem: Problem, starts: int) -> list:
    """Deterministic starts: revenue-proportional contracts at several scales
    (so every seed carries outcome-contingent incentive) plus per-agent
    concentrated variants."""
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
    for i in range(max(0, starts - len(seeds))):
        tau = np.tile(0.02 * direction / n, (n, 1))
        tau[i % n] = 0.5 * direction
        seeds.append(tau)
    return seeds[:starts]


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

    def gradient(self, problem: Problem, x: np.ndarray, eq: EquilibriumResult) -> np.ndarray:
        return self.pull_back(_payoff_gradient(problem, self.contract(x), eq))


_PAYMENTS = _Parametrization(Contract, lambda grad: grad, lambda tau: np.maximum(0.0, tau))


def _polish_support(problem: Problem, x: np.ndarray, eq: EquilibriumResult, options: OptimizerOptions,
                    var: _Parametrization):
    """Newton refinement of the stationarity system on the positive support.

    Projected gradient stalls once line-search gains sink below the payoff's
    equilibrium-solve noise; solving grad = 0 on the support with a
    finite-difference Jacobian of the analytic gradient pushes the KKT
    residual a few more orders down.
    """
    shape = x.shape
    support = np.flatnonzero(x.ravel() > 1e-7)
    if support.size == 0:
        return x, eq
    x = x.ravel().copy()
    for _ in range(12):
        g = var.gradient(problem, x.reshape(shape), eq).ravel()[support]
        if np.max(np.abs(g)) <= 0.25 * options.tol:
            break
        h = 1e-6 * np.maximum(1.0, np.abs(x[support]))
        jac = np.empty((support.size, support.size))
        for col, b in enumerate(support):
            xp = x.copy()
            xp[b] += h[col]
            try:
                eq_p = _solve_eq_checked(problem, var.contract(xp.reshape(shape)), eq.actions)
            except (EquilibriumError, CapExceededError):
                return x.reshape(shape), eq
            gp = var.gradient(problem, xp.reshape(shape), eq_p).ravel()
            jac[:, col] = (gp[support] - g) / h[col]
        try:
            delta = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            break
        limit = 0.2 * max(1.0, float(np.max(np.abs(x[support]))))
        scale = min(1.0, limit / max(float(np.max(np.abs(delta))), 1e-300))
        x_new = x.copy()
        x_new[support] += scale * delta
        x_new = var.project(x_new)
        try:
            eq_new = _solve_eq_checked(problem, var.contract(x_new.reshape(shape)), eq.actions)
        except (EquilibriumError, CapExceededError):
            break
        x, eq = x_new, eq_new
    return x.reshape(shape), eq


def _ascend(problem: Problem, x0: np.ndarray, options: OptimizerOptions, var: _Parametrization,
            known=None):
    """Projected Armijo ascent with Barzilai-Borwein steps from ``x0``, with
    a Newton polish once the KKT residual is small.  Returns ``(x, eq,
    payoff, kkt, converged)``."""
    x = x0.copy()
    eq = _solve_eq_selected(problem, var.contract(x))
    payoff = var.payoff(problem, x, eq)
    step = _STEP_INIT
    kkt = np.inf
    prev = None  # (x, grad) for the Barzilai-Borwein step length
    polish_gate = 1e-3
    for _ in range(options.max_iters):
        # A start homing in on an optimum another start already certified
        # can stop; re-running the same endgame is pure waste.
        if known:
            for run in known:
                if (
                    float(np.max(np.abs(x - run[0]))) < 1e-2 * (1.0 + float(np.max(run[0])))
                    and payoff >= run[2] - 1e-7 * (1.0 + abs(run[2]))
                ):
                    return run
        grad = var.gradient(problem, x, eq)
        kkt = _kkt_residual(x, grad)
        if kkt <= options.tol:
            return x, eq, payoff, kkt, True
        if kkt <= polish_gate:
            x_p, eq_p = _polish_support(problem, x, eq, options, var)
            kkt_p = _kkt_residual(x_p, var.gradient(problem, x_p, eq_p))
            if kkt_p <= options.tol:
                return x_p, eq_p, var.payoff(problem, x_p, eq_p), kkt_p, True
            polish_gate = min(polish_gate / 30.0, kkt / 30.0)
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
        for _ in range(_MAX_BACKTRACKS):
            trial = var.project(x + step * grad)
            delta = trial - x
            if not np.any(delta):
                break
            try:
                eq_t = _solve_eq_checked(problem, var.contract(trial), eq.actions)
            except (EquilibriumError, CapExceededError):
                step *= 0.5
                continue
            pay_t = var.payoff(problem, trial, eq_t)
            if pay_t >= payoff + _ARMIJO * float(np.sum(grad * delta)):
                x, eq, payoff = trial, eq_t, pay_t
                step = min(step * 1.3, 1e3)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    kkt = _kkt_residual(x, var.gradient(problem, x, eq))
    if kkt > options.tol:
        x, eq = _polish_support(problem, x, eq, options, var)
        payoff = var.payoff(problem, x, eq)
        kkt = _kkt_residual(x, var.gradient(problem, x, eq))
    return x, eq, payoff, kkt, kkt <= options.tol


def _best_ascent(problem: Problem, seeds, options: OptimizerOptions, var: _Parametrization):
    """Projected ascent from every distinct seed.  The best converged local
    optimum wins, with payoff ties broken toward the lexicographically
    smallest variable; returns ``(x, eq, payoff, kkt)``.  When no start
    converges, ``OptimizationError`` carries the best unconverged run."""
    runs = []
    failures = []
    best_effort = None
    seen_seeds = []
    for x0 in seeds:
        if any(np.array_equal(x0, s) for s in seen_seeds):
            continue
        seen_seeds.append(x0)
        try:
            x, eq, payoff, kkt, converged = _ascend(problem, x0, options, var, known=runs)
        except (EquilibriumError, DiagnosticsError, ModelError) as exc:
            failures.append(str(exc))
            continue
        if best_effort is None or payoff > best_effort[2]:
            best_effort = (x, eq, payoff, kkt)
        if converged:
            runs.append((x, eq, payoff, kkt, True))

    if not runs:
        raise OptimizationError(
            f"no start converged to tolerance (failures: {failures[:3]})",
            best=best_effort,
        )

    best_pay = max(r[2] for r in runs)
    ties = [r for r in runs if r[2] >= best_pay - 1e-12]
    ties.sort(key=lambda r: tuple(r[0].ravel()))
    return ties[0][:4]


def optimize_general(problem: Problem, starts: int | None = None, options: OptimizerOptions | None = None) -> OptimalContractResult:
    """Multi-start projected gradient ascent on the principal payoff.

    Deterministic seeds (revenue-proportional contracts at four scales,
    productivity-weighted ones at two, then per-agent concentrated ones);
    Armijo backtracking line search; the best converged local optimum wins,
    with payoff ties broken toward the lexicographically smallest contract.
    """
    options = options or OptimizerOptions()
    if starts is None:
        starts = options.starts
    tau, eq, payoff, kkt = _best_ascent(problem, _seed_contracts(problem, starts), options, _PAYMENTS)

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


def _maximum_cliques(adjacency: np.ndarray) -> list:
    """All maximum cliques, by branch-and-bound extension of candidate sets."""
    n = adjacency.shape[0]
    neighbors = [set(np.flatnonzero(adjacency[i] > 0.0)) for i in range(n)]
    best: list = []
    best_size = 0

    def extend(clique: list, candidates: list):
        nonlocal best, best_size
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


def _induced_diameter_le2(sub: np.ndarray) -> bool:
    """Connected with all pairwise distances at most 2 (in the induced graph)."""
    k = sub.shape[0]
    if k == 1:
        return True
    adj = sub > 0.0
    two_step = adj | (adj @ adj)
    np.fill_diagonal(two_step, True)
    return bool(np.all(two_step))


def optimal_active_set(network: Network, p: SuccessProbability, *, cap: int = 16) -> list:
    """Ranked candidate active sets for the quadratic-binary environment.

    Unweighted (0/1) networks: the maximum cliques, with balance constant
    ``(k-1)/k`` per unit share.  Weighted networks: all connected subsets of
    diameter at most 2 whose subnetwork supports a positive balanced payment
    direction, scored by balance constant per unit share.  Ties break toward
    smaller then lexicographically earlier sets.  The ranking does not
    depend on the success probability (it only scales the share level), so
    ``p`` participates only through downstream share searches.
    """
    n = network.n
    if n > cap:
        raise ActiveSetError(
            f"active-set enumeration capped at {cap} agents; use optimize_general"
        )
    g = network.matrix

    candidates: list[ActiveSetCandidate] = []
    if np.all(np.isin(g, (0.0, 1.0))):
        for clique in _maximum_cliques(g):
            k = len(clique)
            candidates.append(ActiveSetCandidate(
                agents=tuple(int(i) for i in clique),
                share_rate=(k - 1.0) / k,
                direction=np.full(k, 1.0 / k),
            ))
        candidates.sort(key=lambda c: (len(c.agents), c.agents))
        return candidates

    for size in range(1, n + 1):
        for agents in itertools.combinations(range(n), size):
            sub = g[np.ix_(agents, agents)]
            if size == 1:
                candidates.append(ActiveSetCandidate(agents=agents, share_rate=0.0, direction=np.ones(1)))
                continue
            if not _induced_diameter_le2(sub):
                continue
            try:
                t = np.linalg.solve(sub, np.ones(size))
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(t)) or np.max(np.abs(sub @ t - 1.0)) > 1e-8:
                continue
            if np.min(t) <= 1e-12:
                continue
            total = float(np.sum(t))
            candidates.append(ActiveSetCandidate(
                agents=agents, share_rate=1.0 / total, direction=t / total,
            ))

    candidates.sort(key=lambda c: (-c.share_rate, len(c.agents), c.agents))
    return candidates


# ---------------------------------------------------------------------------
# quadratic-binary closed form
# ---------------------------------------------------------------------------


def _balanced_performance(s: float, rate: float, p: SuccessProbability) -> float:
    """Equilibrium performance under a balanced-equity contract with total
    share ``s`` and neighborhood equity ``lam = s * rate``.

    This is the one-mode case of the quadratic equilibrium's performance map
    (eigenvalue ``lam``, squared loading ``s``):
    ``y = s * (P'/(1 - P' lam) + P'^2 lam / (2 (1 - P' lam)^2))``.  Under a
    linear success probability the right side does not depend on y and is
    the answer; otherwise the fixed point is found by brentq.
    """
    lam = s * rate
    if not isinstance(p, LinearCappedSuccess):
        return _performance_fixed_point(s, lam, p)[0]
    if p.slope * lam >= 1.0:
        raise EquilibriumError(f"no balanced equilibrium: slope * equity = {p.slope * lam:.6g} >= 1")
    y = _performance_map(float(p.slope), s, lam)
    if y > p.cap * (1.0 - 1e-12):
        raise CapExceededError("balanced performance would reach the probability cap")
    return y


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def _share_search(payoff, smax: float, zero_payoff: float) -> float:
    """Coarse prescan then golden-section refinement of a 1-D share payoff;
    a maximum at the first grid point is refined down to share 0.  Paying
    nothing earns ``zero_payoff``, and share 0 wins when that is more."""
    grid = np.linspace(smax / _PRESCAN, smax, _PRESCAN)
    vals = np.array([payoff(s) for s in grid])
    k = int(np.argmax(vals))
    lo = grid[k - 1] if k > 0 else 0.0
    hi = grid[min(_PRESCAN - 1, k + 1)]
    s = _golden_max(payoff, lo, hi, _GOLDEN_TOL)
    return 0.0 if zero_payoff > payoff(s) else s


def _share_kkt(payoff, s: float, smax: float, value: float) -> float:
    """Finite-difference optimality residual of a 1-D share payoff at ``s``,
    where the payoff is ``value``."""
    h = max(1e-7, 1e-7 * s)
    up = payoff(min(s + h, smax))
    if s == 0.0:
        # Zero share sits on the bound: only a payoff rising away from it
        # violates optimality.
        return max(0.0, (up - value) / h)
    down = payoff(max(s - h, 1e-12))
    if np.isfinite(up):
        return abs(up - down) / (2 * h)
    # Past the cap kink: s is an upper-bound optimum, so only a payoff
    # falling towards it from the left violates optimality.
    return max(0.0, -(value - down) / h)


def optimize_quadratic_binary(
    network: Network, p: SuccessProbability, options: OptimizerOptions | None = None
) -> OptimalContractResult:
    """Closed-form optimal contract for the quadratic-network environment.

    Enumerates candidate active sets, takes the best balance rate, and
    maximizes the exact principal payoff over the total share.  Under a
    linear success probability the optimal share is the root of the share
    cubic; otherwise, or when that root's performance reaches the cap, a
    golden-section search re-solves the balanced-equity performance fixed
    point at each candidate share.  Falls back to the gradient optimizer
    when no usable candidate set exists.
    """
    try:
        candidates = optimal_active_set(network, p)
    except ActiveSetError:
        candidates = []
    if not candidates:
        warnings.warn("no usable active set; falling back to the gradient optimizer")
        return optimize_general(quadratic_binary_problem(network, p), options=options)

    best = candidates[0]
    agents = np.array(best.agents, dtype=int)
    rate = best.share_rate
    n = network.n

    smax = 1.0 - 1e-12
    if rate > 0.0:
        smax = min(smax, (1.0 - 1e-9) / (float(p.deriv(0.0)) * rate))

    def payoff_of_share(s: float) -> float:
        try:
            y = _balanced_performance(s, rate, p)
        except (EquilibriumError, CapExceededError):
            return -np.inf
        return (1.0 - s) * float(p.value(y))

    s_star = None
    if isinstance(p, LinearCappedSuccess) and p.slope * rate < 1.0:
        # The payoff's share derivative has the sign of the share cubic, so its
        # root is the optimum unless the performance there reaches the cap.
        root = total_share_root(1.0, p.slope, 1.0 / rate) if rate > 0.0 else 0.5
        if np.isfinite(payoff_of_share(root)):
            s_star = root
    if s_star is None:
        s_star = _share_search(payoff_of_share, smax, float(p.value(0.0)))

    tau = np.zeros(n)
    tau[agents] = s_star * best.direction
    eq = solve_equilibrium_quadratic_binary(network, tau, p)

    g = network.matrix
    sub = g[np.ix_(agents, agents)]
    equity_levels = sub @ tau[agents]
    action_levels = sub @ eq.actions[agents]
    for name, levels in (("equity", equity_levels), ("action", action_levels)):
        spread = float(np.max(levels) - np.min(levels))
        scale = max(abs(float(np.mean(levels))), 1e-12)
        if agents.size > 1 and spread / scale > 1e-6:
            raise OptimizationError(f"balanced neighborhood {name} violated (spread {spread:.3g})")

    payments = np.zeros((n, 2))
    payments[:, 1] = tau
    contract = Contract(payments)
    problem = quadratic_binary_problem(network, p)
    payoff = _principal_payoff(problem, contract, eq.probs)
    return OptimalContractResult(
        contract=contract,
        equilibrium=eq,
        principal_payoff=payoff,
        active_set=tuple(int(i) for i in agents) if s_star > 0.0 else (),
        kkt_residual=float(_share_kkt(payoff_of_share, s_star, smax, payoff)),
        method="quadratic_closed_form",
        balance_constant=float(s_star * rate),
        neighborhood_action_constant=float(np.mean(action_levels)) if agents.size > 1 else 0.0,
        max_balance_residual=_balance_residual_or_none(problem, contract, eq),
    )


# ---------------------------------------------------------------------------
# separable closed forms
# ---------------------------------------------------------------------------


def _scan_roots(f, lo: float, hi: float, points: int = 257) -> list:
    """Roots of ``f`` (vectorised over its argument) on a geometric scan,
    each sign change refined by brentq."""
    xs = np.geomspace(lo, hi, points)
    vals = f(xs)
    a, b = vals[:-1], vals[1:]
    with np.errstate(invalid="ignore", over="ignore"):
        hits = np.isfinite(a) & np.isfinite(b) & ((a == 0.0) | (a * b < 0.0))
    return [
        float(xs[k]) if a[k] == 0.0
        else float(brentq(f, xs[k], xs[k + 1], xtol=1e-15, rtol=1e-15))
        for k in np.flatnonzero(hits)
    ]


def _second_order_ok(production, p: SuccessProbability, y: float, tau: np.ndarray, actions: np.ndarray) -> bool:
    """Each agent's payoff must be locally concave at the candidate
    equilibrium: tau_i * (P'' (dY/da_i)^2 + P' d2Y/da_i^2) <= C'' = 1."""
    dp = float(p.deriv(y))
    d2p = float(p.second(y))
    for i in range(actions.size):
        dy = production.partial(actions, i)
        d2y = production.partial2(actions, i)
        if tau[i] * (d2p * dy * dy + dp * d2y) > 1.0 + 1e-7:
            return False
    return True


def _separable_equilibrium(production, p: SuccessProbability, tau: np.ndarray):
    """Principal-best verified equilibrium of the separable environments.

    Works through the scalar performance fixed point implied by the agents'
    first-order conditions; every root is checked against the agents'
    second-order conditions, and the best surviving root (highest success
    probability) is returned as ``(performance, actions)`` or None.
    """
    cap = p.cap if isinstance(p, LinearCappedSuccess) else np.inf
    y_hi = min(cap * (1.0 - 1e-9), 1e8)

    if isinstance(production, CobbDouglasProduction):
        shares = production.shares
        if np.any(tau <= 0.0):
            return None
        total = float(np.sum(shares))
        log_k = float(np.sum(0.5 * shares * np.log(tau * shares)))

        def f(y):
            dp = p.deriv(y)
            with np.errstate(divide="ignore", invalid="ignore"):
                val = (1.0 - 0.5 * total) * np.log(y) - log_k - 0.5 * total * np.log(dp)
            return np.where(dp <= 0.0, np.inf, val)

        def actions_at(y):
            return np.sqrt(tau * shares * float(p.deriv(y)) * y)

    elif isinstance(production, CESProduction):
        shares, rho, returns = production.shares, production.rho, production.returns
        if np.any(tau <= 0.0):
            return None
        q = float(np.sum(shares * (tau * shares) ** (rho / (2.0 - rho))))

        def f(y):
            dp = p.deriv(y)
            b = returns * dp * y ** (1.0 - rho / returns)
            with np.errstate(invalid="ignore"):
                val = y - q ** (returns / rho) * b ** (returns / (2.0 - rho))
            return np.where(dp <= 0.0, np.inf, val)

        def actions_at(y):
            dp = float(p.deriv(y))
            b = returns * dp * y ** (1.0 - rho / returns)
            return (tau * shares * b) ** (1.0 / (2.0 - rho))

    else:
        raise ModelError(f"no separable closed form for {type(production).__name__}")

    best = None
    for y in _scan_roots(f, 1e-10, y_hi):
        a = actions_at(y)
        if not np.all(np.isfinite(a)):
            continue
        if not _second_order_ok(production, p, y, tau, a):
            continue
        # Several candidate equilibria can coexist; keep the principal-best
        # (highest-performance) one.
        if best is None or y > best[0]:
            best = (y, a)
    return best


def _separable_closed_form(production, p, direction: np.ndarray, method: str) -> OptimalContractResult:
    n = direction.size
    d_hat = direction / float(np.sum(direction))
    tmax = 1.0 - 1e-9

    def payoff_of_total(t: float) -> float:
        got = _separable_equilibrium(production, p, t * d_hat)
        if got is None:
            return -np.inf
        return (1.0 - t) * float(p.value(got[0]))

    t_star = _share_search(payoff_of_total, tmax, float(p.value(0.0)))
    tau = t_star * d_hat
    if t_star == 0.0:
        # Paying nothing leaves every agent at the dormant corner.
        y_star, actions = 0.0, np.zeros(n)
    else:
        got = _separable_equilibrium(production, p, tau)
        if got is None:
            raise OptimizationError(f"{method}: no stable equilibrium at the optimal scale")
        y_star, actions = got

    problem = Problem(
        n=n,
        production=production,
        outcomes=BinaryOutcomeModel(p),
        utilities=tuple(LinearUtility() for _ in range(n)),
        costs=tuple(PowerCost(1.0, 2.0) for _ in range(n)),
    )
    payments = np.zeros((n, 2))
    payments[:, 1] = tau
    contract = Contract(payments)
    eq = solve_equilibrium_general(problem, contract, init=actions, tol=1e-11)
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
        kkt_residual=float(_share_kkt(payoff_of_total, t_star, tmax, payoff)),
        method=method,
        # With no one paid there is no balance to report, and the separable
        # gradients are undefined at zero actions.
        max_balance_residual=_balance_residual_or_none(problem, contract, eq) if t_star > 0.0 else None,
    )


def closed_form_cobb_douglas(gamma, p: SuccessProbability) -> OptimalContractResult:
    """Optimal contract for Cobb-Douglas production in the binary
    environment: payments proportional to factor shares, scaled by a 1-D
    payoff search with an equilibrium re-solve per candidate scale."""
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


def total_share_root(beta: float, kappa: float, kstar: float, *, tol: float = 1e-13) -> float:
    """Optimal total share with a linear success probability: the unique
    root of the share cubic, which lies in (1/2, 1).  Requires
    ``beta * kappa < kstar``."""
    if not beta * kappa < kstar:
        raise ModelError(f"requires beta * kappa < kstar, got {beta * kappa:.6g} >= {kstar:.6g}")
    args = (beta, kappa, kstar)
    if share_cubic(0.5, *args) <= 0.0:
        raise ModelError("cubic not positive at s = 1/2; parameters out of range")
    if share_cubic(1.0, *args) >= 0.0:
        raise ModelError("cubic not negative at s = 1; parameters out of range")
    return float(brentq(share_cubic, 0.5, 1.0, args=args, xtol=tol))
