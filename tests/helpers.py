"""Shared instance builders and verification batteries used across tests."""

from __future__ import annotations

import itertools

import numpy as np

import teampay as tp

KAPPA_HALF = tp.LinearCappedSuccess(0.5)


def clique(n: int, weight: float = 1.0) -> tp.Network:
    w = weight * (np.ones((n, n)) - np.eye(n))
    return tp.Network(w)


def star(n: int, weight: float = 1.0) -> tp.Network:
    w = np.zeros((n, n))
    w[0, 1:] = w[1:, 0] = weight
    return tp.Network(w)


def random_symmetric_network(rng: np.random.Generator, n: int, high: float = 1.0) -> tp.Network:
    w = rng.uniform(0.0, high, size=(n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return tp.Network(w)


def random_production(family: str, n: int, rng: np.random.Generator):
    """A member of each production family, with random parameters."""
    if family == "quadratic":
        return tp.QuadraticNetworkProduction(random_symmetric_network(rng, n), rng.uniform(0.5, 1.5, size=n))
    if family == "cobb_douglas":
        return tp.CobbDouglasProduction(rng.uniform(0.2, 1.2, size=n))
    if family == "ces":
        return tp.CESProduction(rng.uniform(0.3, 2.0, size=n), rho=float(rng.choice([-1.5, -0.5, 0.3, 0.7])),
                                returns=float(rng.uniform(0.5, 1.5)))
    terms = tuple((float(rng.uniform(0.2, 1.0)), tuple(int(k) for k in rng.integers(0, 3, size=n)))
                  for _ in range(3))
    return tp.PolynomialProduction(n, terms)


PRODUCTION_FAMILIES = ["quadratic", "cobb_douglas", "ces", "polynomial"]


def quadratic_problem(network: tp.Network, p=None, standalone=None) -> tp.Problem:
    p = p or KAPPA_HALF
    n = network.n
    return tp.Problem(
        n=n,
        production=tp.QuadraticNetworkProduction(network, standalone),
        outcomes=tp.BinaryOutcomeModel(p),
        utilities=tuple(tp.LinearUtility() for _ in range(n)),
        costs=tuple(tp.PowerCost() for _ in range(n)),
    )


def softmax_instance(theta, shift, revenues, network: tp.Network, utility) -> tp.Problem:
    n = network.n
    return tp.Problem(
        n=n,
        production=tp.QuadraticNetworkProduction(network),
        outcomes=tp.SoftmaxOutcomeModel(theta, shift, revenues),
        utilities=tuple(utility for _ in range(n)),
        costs=tuple(tp.PowerCost() for _ in range(n)),
    )


def success_contract(tau) -> tp.Contract:
    tau = np.asarray(tau, dtype=float)
    return tp.Contract(np.column_stack([np.zeros_like(tau), tau]))


def random_quadratic_binary(rng: np.random.Generator, max_n: int = 6):
    """Instance family for the solver-vs-oracle agreement battery."""
    n = int(rng.integers(1, max_n + 1))
    net = random_symmetric_network(rng, n)
    tau = rng.uniform(0.0, 0.3, size=n)
    p = tp.LinearCappedSuccess(float(rng.uniform(0.2, 0.8)))
    return net, tau, p


def solver_oracle_agreement(count: int, seed: int, tol: float = 1e-8) -> float:
    """Worst sup-norm disagreement between the specialized solver and the
    grid-argmax oracle over random quadratic-binary instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < count:
        net, tau, p = random_quadratic_binary(rng)
        if float(p.deriv(0.0)) * tp.spectral_radius(tau[:, None] * net.matrix) >= 0.95:
            continue  # keep clear of the no-equilibrium boundary
        try:
            eq = tp.solve_equilibrium_quadratic_binary(net, tau, p)
        except (tp.EquilibriumError, tp.CapExceededError):
            continue
        oracle_eq = tp.best_response_iterate(
            quadratic_problem(net, p), success_contract(tau), tol=1e-10
        )
        worst = max(worst, float(np.max(np.abs(eq.actions - oracle_eq.actions))))
        assert worst < tol, (net.weights, tau, p)
        done += 1
    return worst


def random_gradient_instance(rng: np.random.Generator):
    """Instance family for the analytic-vs-FD performance-gradient battery:
    binary and 3-outcome models, linear and sqrt utilities, strictly
    positive payments."""
    n = int(rng.integers(1, 5))
    net = random_symmetric_network(rng, n, high=0.8)
    if rng.uniform() < 0.5:
        outcomes = tp.BinaryOutcomeModel(tp.LinearCappedSuccess(float(rng.uniform(0.3, 0.6))))
    else:
        theta = np.sort(rng.uniform(0.0, 2.5, size=3))
        shift = rng.uniform(-0.5, 0.5, size=3)
        revenues = rng.uniform(0.0, 2.0, size=3)
        outcomes = tp.SoftmaxOutcomeModel(theta, shift, revenues)
    utility = tp.SqrtUtility() if rng.uniform() < 0.5 else tp.LinearUtility()
    problem = tp.Problem(
        n=n,
        production=tp.QuadraticNetworkProduction(net),
        outcomes=outcomes,
        utilities=tuple(utility for _ in range(n)),
        costs=tuple(tp.PowerCost() for _ in range(n)),
    )
    payments = rng.uniform(0.02, 0.25, size=(n, outcomes.n_outcomes))
    return problem, tp.Contract(payments)


def gradient_fd_battery(count: int, seed: int, rel_tol: float = 1e-5) -> float:
    """Worst relative error of analytic dY/dtau against central differences
    of re-solved equilibria, over instances whose spectral margin is safe."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < count:
        problem, contract = random_gradient_instance(rng)
        try:
            eq = tp.solve_equilibrium_general(problem, contract, tol=1e-12)
            report = tp.compute_balance_report(problem, contract, eq)
        except (tp.EquilibriumError, tp.DiagnosticsError):
            continue
        spill = (report.payment_utility / np.sqrt(report.curvature))[:, None] \
            * report.hessian / np.sqrt(report.curvature)[None, :]
        margin = 1.0 - tp.spectral_radius(spill)
        if margin < 0.05:
            continue
        analytic = report.dY_dtau
        floor = 1e-6 * (1.0 + float(np.max(np.abs(analytic))))
        h = 1e-6
        for i in range(problem.n):
            for s in range(problem.n_outcomes):
                up = contract.payments.copy()
                dn = contract.payments.copy()
                up[i, s] += h
                dn[i, s] -= h
                y_up = tp.solve_equilibrium_general(
                    problem, tp.Contract(up), init=eq.actions, tol=1e-13).performance
                y_dn = tp.solve_equilibrium_general(
                    problem, tp.Contract(dn), init=eq.actions, tol=1e-13).performance
                fd = (y_up - y_dn) / (2.0 * h)
                if abs(analytic[i, s]) < 1e-8 and abs(fd) < 1e-8:
                    continue  # both zero up to solver noise (pinned corner)
                rel = abs(analytic[i, s] - fd) / max(abs(fd), floor)
                worst = max(worst, rel)
                assert rel < rel_tol, (i, s, analytic[i, s], fd)
        done += 1
    return worst


def two_stage_oracle(problem, coarse_step, coarse_hi, fine_step, fine_halfwidth):
    """Coarse exhaustive scan, then a fine scan around the coarse argmax."""
    return staged_oracle(problem, coarse_step, coarse_hi, [(fine_step, fine_halfwidth)])


def staged_oracle(problem, coarse_step, coarse_hi, stages):
    """Exhaustive scan refined through successively finer boxes.

    Each stage re-scans a box around the previous argmax; every stage's half
    width must cover the previous stage's cell size so the true optimum
    cannot escape the box.
    """
    contract, payoff = tp.brute_force_optimal_contract(problem, coarse_step, (0.0, coarse_hi))
    for step, halfwidth in stages:
        lo = np.maximum(contract.payments - halfwidth, 0.0)
        hi = contract.payments + halfwidth
        lo[:, 0] = 0.0
        hi[:, 0] = 0.0
        contract, payoff = tp.brute_force_optimal_contract(problem, step, (lo, hi))
    return contract, payoff


def _induced_diameter_le2(sub: np.ndarray) -> bool:
    """Connected with all pairwise distances at most 2 (in the induced graph)."""
    k = sub.shape[0]
    if k == 1:
        return True
    adj = sub > 0.0
    two_step = adj | (adj @ adj)
    np.fill_diagonal(two_step, True)
    return bool(np.all(two_step))


def reference_active_sets(network: tp.Network) -> list:
    """The weighted branch of ``optimal_active_set`` as a loop over every
    subset, one solve each: the reference the batched enumeration must
    match bit for bit."""
    n = network.n
    g = network.matrix
    candidates = []
    for size in range(1, n + 1):
        for agents in itertools.combinations(range(n), size):
            sub = g[np.ix_(agents, agents)]
            if size == 1:
                candidates.append(tp.ActiveSetCandidate(agents=agents, share_rate=0.0, direction=np.ones(1)))
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
            candidates.append(tp.ActiveSetCandidate(
                agents=agents, share_rate=1.0 / total, direction=t / total,
            ))
    candidates.sort(key=lambda c: (-c.share_rate, len(c.agents), c.agents))
    return candidates
