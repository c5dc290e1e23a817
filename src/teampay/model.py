"""Domain types for team incentive-pay problems.

Agents choose nonnegative efforts; a production function aggregates efforts
into a scalar team performance; performance drives a finite outcome
distribution; the principal pays each agent a nonnegative amount per outcome.

Everything here is an immutable value type with pure evaluation methods, so
instances are safe to share across threads.  Construction is permissive:
structural problems (asymmetric networks, bad parameters) are reported by
``validate_problem`` rather than raised at build time.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ModelError",
    "DomainError",
    "CapExceededError",
    "SchemaError",
    "Network",
    "QuadraticNetworkProduction",
    "CobbDouglasProduction",
    "CESProduction",
    "PolynomialProduction",
    "LinearCappedSuccess",
    "LogisticSuccess",
    "PowerSuccess",
    "BinaryOutcomeModel",
    "SoftmaxOutcomeModel",
    "LinearUtility",
    "SqrtUtility",
    "PowerUtility",
    "Log1pUtility",
    "PowerCost",
    "Problem",
    "Contract",
    "EquilibriumResult",
    "ValidationReport",
    "validate_problem",
    "problem_from_dict",
    "contract_from_dict",
]


class ModelError(ValueError):
    """Bad model data or bad evaluation request."""


class DomainError(ModelError):
    """Evaluation requested outside a function's admissible domain."""


class CapExceededError(DomainError):
    """Performance reached the kink of a capped success probability."""


class SchemaError(ModelError):
    """Malformed dictionary / JSON input."""


def _vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ModelError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelError(f"{name} must be a square matrix, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _dot_last(x, y):
    """Dot products over the last axis, batched; each one rounds exactly as
    the 1-D ``x @ y`` does, so a batch agrees bit for bit with a loop."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _only(results):
    """The one entry of a batch solver's per-row list for a batch of one:
    the result, or the exception that stopped it, raised."""
    (out,) = results
    if isinstance(out, Exception):
        raise out
    return out


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Network:
    """Undirected complementarity network.

    ``weights`` is the base matrix (zero diagonal, symmetric, nonnegative);
    ``scale`` is a global multiplier so the effective matrix is
    ``scale * weights``.  Keeping the multiplier explicit makes "strength of
    complementarities" sweeps a one-field change.
    """

    weights: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "weights", _matrix(self.weights, "weights"))
        object.__setattr__(self, "scale", float(self.scale))
        effective = self.scale * self.weights
        effective.setflags(write=False)
        object.__setattr__(self, "_effective", effective)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Effective complementarity matrix ``scale * weights`` (read-only,
        computed once at construction)."""
        return self._effective

    def with_scale(self, scale: float) -> "Network":
        return Network(self.weights, scale)

    def with_edge(self, i: int, j: int, weight: float) -> "Network":
        """New network with the (i, j) base weight replaced."""
        w = self.weights.copy()
        w[i, j] = weight
        w[j, i] = weight
        return Network(w, self.scale)


# ---------------------------------------------------------------------------
# production functions
# ---------------------------------------------------------------------------


class ProductionFunction:
    """Scalar team performance as a function of the effort vector.

    ``value`` accepts batched inputs with shape ``(..., n)``.  ``gradient``
    and ``hessian`` operate on a single point and raise :class:`DomainError`
    where derivatives are singular (Cobb-Douglas / CES at a zero action).
    Each family also defines ``partial``/``partial2``, the single-coordinate
    versions used by best-response solvers; they tolerate zeros in the
    *other* coordinates, accept a batch of points ``(..., n)`` and return
    shape ``(...)`` (a float for one point), and their domain checks apply
    to every point of the batch.
    """

    n: int

    def value(self, a) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, a) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, a) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class QuadraticNetworkProduction(ProductionFunction):
    """Linear standalone terms plus pairwise network complementarities.

    ``Y(a) = standalone . a + 0.5 * a' G a`` with ``G`` the effective
    network matrix.
    """

    network: Network
    standalone: np.ndarray | None = None

    def __post_init__(self):
        n = self.network.n
        standalone = np.ones(n) if self.standalone is None else self.standalone
        object.__setattr__(self, "standalone", _vector(standalone, "standalone"))
        if self.standalone.size != n:
            raise ModelError(f"standalone must have one entry per agent ({n}), got {self.standalone.size}")
        # Two copies of standalone as columns, for the linear term of value.
        object.__setattr__(self, "_linear", np.stack([self.standalone, self.standalone], axis=1))

    @property
    def n(self) -> int:
        return self.network.n

    def value(self, a):
        """``Y`` at one point ``(n,)`` (a float) or at a batch ``(..., n)``.

        The points are the rows of one matrix, so each BLAS product, ``a @ G``
        and the linear term (the first column of ``a`` times two copies of
        ``standalone``), is one gemm for a batch of any shape and one gemv
        for a single point; the quadratic term ends in a row-wise
        contraction with ``a``.  Rounding: at n = 2 (zero diagonal, any
        weights) the quadratic term is bit for bit the i-major sum
        ``sum_ij (a_i G_ij) a_j``, since both add the same two rounded
        products.  From n = 3, on weighted and on 0/1 networks, the
        additions run in another order than that sum's and the result can
        differ from it by a few ulps (relative gaps up to 5e-15 over random
        points at n = 50 and 200).  Up to n = 3 a batch row equals the
        single point bit for bit, whatever ``standalone`` holds.  From n = 4
        gemm and gemv can add in different orders, and batch and loop agree
        to a relative 1e-14.  (``a @ standalone`` would be a gemv for a
        batch but a dot for one point, which differ in the last bit already
        at n = 2; a dot per batch row would match the point but costs
        several times the gemm on the oracle's large batches.)
        """
        a = np.asarray(a, dtype=float)
        rows = a.reshape(-1, a.shape[-1])
        quad = 0.5 * np.einsum("ij,ij->i", rows @ self.network.matrix, rows)
        out = ((rows @ self._linear)[:, 0] + quad).reshape(a.shape[:-1])
        return out if out.ndim else float(out)

    def gradient(self, a):
        a = np.asarray(a, dtype=float)
        return self.standalone + self.network.matrix @ a

    def hessian(self, a):
        return self.network.matrix.copy()

    def partial(self, a, i):
        out = self.standalone[i] + _dot_last(np.asarray(a, dtype=float), self.network.matrix[i])
        return out if np.ndim(out) else float(out)

    def partial2(self, a, i):
        shape = np.shape(a)[:-1]
        return np.zeros(shape) if shape else 0.0


@dataclass(frozen=True)
class CobbDouglasProduction(ProductionFunction):
    """``Y(a) = prod_i a_i ** shares_i`` with strictly positive shares."""

    shares: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shares", _vector(self.shares, "shares"))

    @property
    def n(self) -> int:
        return self.shares.size

    def value(self, a):
        a = np.asarray(a, dtype=float)
        out = np.prod(np.power(a, self.shares), axis=-1)
        return out if np.ndim(out) else float(out)

    def gradient(self, a):
        a = np.asarray(a, dtype=float)
        if np.any(a <= 0):
            raise DomainError("cobb_douglas gradient requires strictly positive actions")
        y = float(self.value(a))
        return self.shares * y / a

    def hessian(self, a):
        a = np.asarray(a, dtype=float)
        if np.any(a <= 0):
            raise DomainError("cobb_douglas hessian requires strictly positive actions")
        y = float(self.value(a))
        g = self.shares
        h = np.outer(g, g) * y / np.outer(a, a)
        np.fill_diagonal(h, g * (g - 1.0) * y / a**2)
        return h

    def partial(self, a, i):
        return _cobb_douglas_own(self.shares, a, i, 1)

    def partial2(self, a, i):
        return _cobb_douglas_own(self.shares, a, i, 2)


def _cobb_douglas_own(g, a, i, order: int):
    """Own derivative of order 1 or 2 at a point or a batch of points:
    ``c * a_i**(g_i - order) * prod_{j != i} a_j**g_j`` with ``c = g_i`` or
    ``g_i (g_i - 1)``; zero wherever another coordinate is zero."""
    a = np.asarray(a, dtype=float)
    others = np.arange(g.size) != i
    rest = np.prod(a[..., others] ** g[others], axis=-1)
    own = a[..., i]
    live = rest != 0.0
    if (live & (own <= 0)).any():
        raise DomainError("cobb_douglas partial requires a positive own action")
    coef = g[i] if order == 1 else g[i] * (g[i] - 1.0)
    # An array power also for one point, so a point and a batch round alike.
    own_power = np.zeros(np.shape(rest))
    np.power(own, g[i] - order, out=own_power, where=live)
    out = coef * own_power * rest
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class CESProduction(ProductionFunction):
    """``Y(a) = (sum_i shares_i a_i**rho) ** (returns / rho)``, ``rho != 0``."""

    shares: np.ndarray
    rho: float
    returns: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "shares", _vector(self.shares, "shares"))
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "returns", float(self.returns))

    @property
    def n(self) -> int:
        return self.shares.size

    def _basis(self, a):
        # sum_i shares_i a_i**rho; with rho < 0 a zero action sends the sum
        # to +inf and the value to 0 (Leontief-like collapse).
        with np.errstate(divide="ignore"):
            return np.sum(self.shares * np.power(a, self.rho), axis=-1)

    def value(self, a):
        a = np.asarray(a, dtype=float)
        s = self._basis(a)
        with np.errstate(over="ignore"):
            out = np.where(np.isinf(s), 0.0 if self.returns / self.rho < 0 else np.inf,
                           np.power(s, self.returns / self.rho))
        return out if np.ndim(out) else float(out)

    def gradient(self, a):
        a = np.asarray(a, dtype=float)
        if np.any(a <= 0):
            raise DomainError("ces gradient requires strictly positive actions")
        s = float(self._basis(a))
        k, r = self.returns, self.rho
        return k * self.shares * a ** (r - 1.0) * s ** (k / r - 1.0)

    def hessian(self, a):
        a = np.asarray(a, dtype=float)
        if np.any(a <= 0):
            raise DomainError("ces hessian requires strictly positive actions")
        s = float(self._basis(a))
        k, r = self.returns, self.rho
        gi = self.shares * a ** (r - 1.0)
        h = k * (k - r) * np.outer(gi, gi) * s ** (k / r - 2.0)
        h += np.diag(k * (r - 1.0) * self.shares * a ** (r - 2.0) * s ** (k / r - 1.0))
        return h

    def partial(self, a, i):
        own, s = _ces_own_and_basis(self, a, i)
        k, r = self.returns, self.rho
        out = k * self.shares[i] * own ** (r - 1.0) * s ** (k / r - 1.0)
        return out if np.ndim(out) else float(out)

    def partial2(self, a, i):
        own, s = _ces_own_and_basis(self, a, i)
        k, r = self.returns, self.rho
        gi = self.shares[i]
        # With rho well below 0, tiny own actions overflow own ** (2 rho - 2)
        # and the value is nan.  Best-response probe scans evaluate such
        # points but use only the first derivative there, so this stays quiet.
        with np.errstate(over="ignore", invalid="ignore"):
            term1 = (r - 1.0) * own ** (r - 2.0) * s ** (k / r - 1.0)
            term2 = (k - r) * gi * own ** (2.0 * r - 2.0) * s ** (k / r - 2.0)
        out = k * gi * (term1 + term2)
        return out if np.ndim(out) else float(out)


def _ces_own_and_basis(production: CESProduction, a, i):
    """Own actions and the basis sum, as arrays also for one point, so that a
    point and a batch round alike in the array powers.  The basis is
    infinite only where another action is zero and ``rho < 0``; there the
    powers ``s ** (returns / rho - m)`` in the partials are exactly 0."""
    a = np.asarray(a, dtype=float)
    own = np.asarray(a[..., i])
    if (own <= 0).any():
        raise DomainError("ces partial requires a positive own action")
    return own, np.asarray(production._basis(a))


@dataclass(frozen=True)
class PolynomialProduction(ProductionFunction):
    """Sparse posynomial ``Y(a) = sum_t coef_t * prod_i a_i**powers_t[i]``.

    ``terms`` is a sequence of ``(coefficient, powers)`` with nonnegative
    integer powers; positive coefficients keep the function increasing on
    the nonnegative orthant.  The value and every derivative come from one
    rule (:meth:`_derivative`): differentiating a term in ``a_i`` multiplies
    it by its current power of ``a_i`` and lowers that power by 1, and a term
    whose power of ``a_i`` is already 0 drops out.
    """

    n_agents: int
    terms: tuple

    def __post_init__(self):
        cooked = []
        for coef, powers in self.terms:
            p = np.asarray(powers, dtype=float)
            if p.size != self.n_agents:
                raise ModelError("polynomial term power length must equal agent count")
            p = p.copy()
            p.setflags(write=False)
            cooked.append((float(coef), p))
        object.__setattr__(self, "terms", tuple(cooked))

    @property
    def n(self) -> int:
        return self.n_agents

    def value(self, a):
        return self._derivative(a)

    def gradient(self, a):
        a = np.asarray(a, dtype=float)
        return np.array([self.partial(a, i) for i in range(self.n)])

    def hessian(self, a):
        return np.array([[self._derivative(a, i, j) for j in range(self.n)] for i in range(self.n)])

    def partial(self, a, i):
        return self._derivative(a, i)

    def partial2(self, a, i):
        return self._derivative(a, i, i)

    def _derivative(self, a, *agents):
        """``Y`` differentiated in each of ``agents`` in turn (none, one, or two;
        ``(i, i)`` is ``partial2``), at a point (a float) or a batch ``(..., n)``."""
        a = np.asarray(a, dtype=float)
        total = np.zeros(a.shape[:-1])
        for coef, powers in self.terms:
            scale, powers = coef, powers.copy()
            for i in agents:
                if powers[i] == 0:
                    break
                scale = scale * powers[i]
                powers[i] -= 1
            else:
                total = total + scale * np.prod(np.power(a, powers), axis=-1)
        return total if np.ndim(total) else float(total)


# ---------------------------------------------------------------------------
# success probabilities (binary outcome)
# ---------------------------------------------------------------------------


class SuccessProbability:
    """Strictly increasing, twice differentiable map from performance to [0, 1]."""

    def value(self, y):
        raise NotImplementedError

    def deriv(self, y):
        raise NotImplementedError

    def second(self, y):
        raise NotImplementedError

    def concave_on_nonneg(self) -> bool:
        """True when the map is (weakly) concave on the whole working range."""
        raise NotImplementedError


@dataclass(frozen=True)
class LinearCappedSuccess(SuccessProbability):
    """``P(Y) = min(slope * Y, 1)``.

    The value is defined everywhere; derivatives raise past the kink, and
    solvers treat ``Y >= 1/slope`` as out of range.
    """

    slope: float

    @property
    def cap(self) -> float:
        return 1.0 / self.slope

    def value(self, y):
        return np.minimum(self.slope * np.asarray(y, dtype=float), 1.0)

    def _check(self, y):
        if np.any(np.asarray(y) * self.slope >= 1.0):
            raise CapExceededError(
                f"performance {np.max(y):.6g} at or past the cap {self.cap:.6g}"
            )

    def deriv(self, y):
        self._check(y)
        return np.full_like(np.asarray(y, dtype=float), self.slope)

    def second(self, y):
        self._check(y)
        return np.zeros_like(np.asarray(y, dtype=float))

    def concave_on_nonneg(self) -> bool:
        return True


@dataclass(frozen=True)
class LogisticSuccess(SuccessProbability):
    """``P(Y) = 1 / (1 + exp(-(Y - shift) / scale))``.

    Concave on ``Y >= 0`` only when ``shift <= 0``.
    """

    scale: float
    shift: float = 0.0

    def value(self, y):
        z = (np.asarray(y, dtype=float) - self.shift) / self.scale
        # exp(-|z|) <= 1 never overflows; on each side it is exp(-z) or exp(z).
        ez = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))

    def deriv(self, y):
        p = self.value(y)
        return p * (1.0 - p) / self.scale

    def second(self, y):
        p = self.value(y)
        return p * (1.0 - p) * (1.0 - 2.0 * p) / self.scale**2

    def concave_on_nonneg(self) -> bool:
        return self.shift <= 0.0


@dataclass(frozen=True)
class PowerSuccess(SuccessProbability):
    """``P(Y) = 1 - (1 + Y) ** (-exponent)`` with ``exponent > 0``."""

    exponent: float

    def value(self, y):
        return 1.0 - np.power(1.0 + np.asarray(y, dtype=float), -self.exponent)

    def deriv(self, y):
        return self.exponent * np.power(1.0 + np.asarray(y, dtype=float), -self.exponent - 1.0)

    def second(self, y):
        r = self.exponent
        return -r * (r + 1.0) * np.power(1.0 + np.asarray(y, dtype=float), -r - 2.0)

    def concave_on_nonneg(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# outcome models
# ---------------------------------------------------------------------------


def _pair(first, second):
    """``first`` and ``second`` side by side along a new last axis: the
    values of ``np.stack``, filled into one array without its overhead."""
    out = np.empty(np.shape(second) + (2,))
    out[..., 0] = first
    out[..., 1] = second
    return out


@dataclass(frozen=True)
class BinaryOutcomeModel:
    """Failure/success outcomes with revenues normalized to (0, 1).

    Outcome index 0 is failure, index 1 is success.
    """

    success: SuccessProbability

    @property
    def n_outcomes(self) -> int:
        return 2

    @property
    def revenues(self) -> np.ndarray:
        return np.array([0.0, 1.0])

    def probs(self, y):
        p = np.asarray(self.success.value(y), dtype=float)
        return _pair(1.0 - p, p)

    def probs_derivs(self, y):
        """(P_s, P_s', P_s''), each of shape ``y.shape + (2,)``: for a scalar
        performance three 2-vectors, for an array of performances three stacks."""
        y = np.asarray(y, dtype=float)
        if (y < 0).any():
            raise DomainError("performance must be nonnegative")
        p = np.asarray(self.success.value(y), dtype=float)
        d = np.asarray(self.success.deriv(y), dtype=float)
        d2 = np.asarray(self.success.second(y), dtype=float)
        return _pair(1.0 - p, p), _pair(-d, d), _pair(-d2, d2)


@dataclass(frozen=True)
class SoftmaxOutcomeModel:
    """Multi-outcome model with ``P_s(Y) = softmax(theta_s * Y + shift_s)``.

    Strictly positive and smooth for every performance level, with
    per-outcome slopes controlled by the spread of ``theta``.
    """

    theta: np.ndarray
    shift: np.ndarray
    revenues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _vector(self.theta, "theta"))
        object.__setattr__(self, "shift", _vector(self.shift, "shift"))
        object.__setattr__(self, "revenues", _vector(self.revenues, "revenues"))

    @property
    def n_outcomes(self) -> int:
        return self.theta.size

    def probs(self, y):
        y = np.asarray(y, dtype=float)
        z = np.multiply.outer(y, self.theta) + self.shift
        z -= z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def probs_derivs(self, y):
        """(P_s, P_s', P_s''), each of shape ``y.shape + (S,)``."""
        y = np.asarray(y, dtype=float)
        if (y < 0).any():
            raise DomainError("performance must be nonnegative")
        p = self.probs(y)
        mean = _dot_last(p, self.theta)
        centered = self.theta - mean[..., None]
        squared = centered**2
        var = _dot_last(p, squared)[..., None]
        dp = p * centered
        d2p = p * (squared - var)
        return p, dp, d2p


# ---------------------------------------------------------------------------
# utilities and costs
# ---------------------------------------------------------------------------


class Utility:
    """Strictly increasing concave money utility on t >= 0."""

    def value(self, t):
        raise NotImplementedError

    def marginal(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class LinearUtility(Utility):
    def value(self, t):
        return np.asarray(t, dtype=float) + 0.0

    def marginal(self, t):
        return np.ones_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class SqrtUtility(Utility):
    def value(self, t):
        return np.sqrt(np.asarray(t, dtype=float))

    def marginal(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(t > 0, 0.5 / np.sqrt(np.maximum(t, 1e-300)), np.inf)


@dataclass(frozen=True)
class PowerUtility(Utility):
    """``u(t) = t ** eta`` with ``eta`` in (0, 1); unbounded marginal at 0."""

    eta: float

    def value(self, t):
        return np.power(np.asarray(t, dtype=float), self.eta)

    def marginal(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(t > 0, self.eta * np.power(np.maximum(t, 1e-300), self.eta - 1.0), np.inf)


@dataclass(frozen=True)
class Log1pUtility(Utility):
    def value(self, t):
        return np.log1p(np.asarray(t, dtype=float))

    def marginal(self, t):
        return 1.0 / (1.0 + np.asarray(t, dtype=float))


@dataclass(frozen=True)
class PowerCost:
    """Effort cost ``C(a) = scale * a**exponent / exponent``; C'(0) = 0."""

    scale: float = 1.0
    exponent: float = 2.0

    def value(self, a):
        return self.scale * np.power(np.asarray(a, dtype=float), self.exponent) / self.exponent

    def marginal(self, a):
        return self.scale * np.power(np.asarray(a, dtype=float), self.exponent - 1.0)

    def curvature(self, a):
        a = np.asarray(a, dtype=float)
        return self.scale * (self.exponent - 1.0) * np.power(a, self.exponent - 2.0)


# ---------------------------------------------------------------------------
# problem, contracts, equilibrium result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """Full environment: production, outcome model, per-agent tastes."""

    n: int
    production: ProductionFunction
    outcomes: BinaryOutcomeModel | SoftmaxOutcomeModel
    utilities: tuple
    costs: tuple

    def __post_init__(self):
        object.__setattr__(self, "utilities", tuple(self.utilities))
        object.__setattr__(self, "costs", tuple(self.costs))

    @property
    def n_outcomes(self) -> int:
        return self.outcomes.n_outcomes


@dataclass(frozen=True)
class Contract:
    """Per-agent, per-outcome nonnegative payments, shape (n, n_outcomes)."""

    payments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "payments", _matrix_like(self.payments))


def _matrix_like(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ModelError(f"payments must be a 2-d array, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EquilibriumResult:
    """Effort-game equilibrium under a fixed contract.

    ``spectral_margin`` is ``1 - P'(Y*) rho(TG)`` on the quadratic-binary
    path and None otherwise; ``global_check_passed`` is set by the general
    solver's coarse grid verification.
    """

    actions: np.ndarray
    performance: float
    probs: np.ndarray
    iterations: int
    residual: float
    spectral_margin: float | None = None
    global_check_passed: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "actions", _vector(self.actions, "actions"))
        object.__setattr__(self, "probs", _vector(self.probs, "probs"))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str):
        self.violations.append(message)


def _validate_network(net: Network, report: ValidationReport, where: str):
    w = net.weights
    if w.shape[0] < 1:
        report.add(f"{where}: network needs at least one agent")
        return
    if not np.allclose(w, w.T, atol=0.0):
        report.add(f"{where}: network weights must be symmetric")
    if np.any(np.diag(w) != 0.0):
        report.add(f"{where}: network diagonal must be zero")
    if np.any(w < 0.0):
        report.add(f"{where}: network weights must be nonnegative")
    if net.scale < 0.0:
        report.add(f"{where}: network scale must be nonnegative")


def _numbers(part) -> list:
    """Every number a model part holds in its fields, recursively, as arrays."""
    if isinstance(part, tuple):
        return [x for item in part for x in _numbers(item)]
    if is_dataclass(part):
        return [x for f in fields(part) for x in _numbers(getattr(part, f.name))]
    return [] if part is None else [np.ravel(part)]


def validate_problem(problem: Problem) -> ValidationReport:
    """Report every structural violation; empty report iff well-formed."""
    report = ValidationReport()
    n = problem.n
    prod = problem.production

    if prod.n != n:
        report.add(f"production dimension {prod.n} does not match agent count {n}")
    # Costs are checked agent by agent below; the one utility parameter, a
    # power eta, must lie in (0, 1), which no NaN or infinity does.
    for where, part in (("production", prod), ("outcomes", problem.outcomes)):
        if not all(np.isfinite(x).all() for x in _numbers(part)):
            report.add(f"{where}: parameters must be finite")

    if isinstance(prod, QuadraticNetworkProduction):
        _validate_network(prod.network, report, "production")
        if np.any(prod.standalone <= 0.0):
            report.add("production: standalone coefficients must be strictly positive")
    elif isinstance(prod, CobbDouglasProduction):
        if np.any(prod.shares <= 0.0):
            report.add("production: cobb_douglas shares must be strictly positive")
    elif isinstance(prod, CESProduction):
        if np.any(prod.shares <= 0.0):
            report.add("production: ces shares must be strictly positive")
        if prod.rho == 0.0:
            report.add("production: ces rho must be nonzero; use cobb_douglas for the rho -> 0 case")
        if prod.returns <= 0.0:
            report.add("production: ces returns must be strictly positive")
    elif isinstance(prod, PolynomialProduction):
        if not prod.terms:
            report.add("production: polynomial needs at least one term")
        else:
            touched = np.zeros(prod.n, dtype=bool)
            for coef, powers in prod.terms:
                if coef <= 0:
                    report.add("production: polynomial coefficients must be strictly positive")
                if np.any(powers < 0) or np.any(powers != np.floor(powers)):
                    report.add("production: polynomial powers must be nonnegative integers")
                touched |= powers > 0
            if not np.all(touched):
                report.add("production: every agent must appear in some polynomial term")
    else:
        report.add(f"production: unknown production type {type(prod).__name__}")

    out = problem.outcomes
    if isinstance(out, BinaryOutcomeModel):
        p = out.success
        if isinstance(p, LinearCappedSuccess) and p.slope <= 0:
            report.add("outcomes: linear_capped slope must be strictly positive")
        if isinstance(p, LogisticSuccess) and p.scale <= 0:
            report.add("outcomes: logistic scale must be strictly positive")
        if isinstance(p, PowerSuccess) and p.exponent <= 0:
            report.add("outcomes: power exponent must be strictly positive")
    elif isinstance(out, SoftmaxOutcomeModel):
        if out.n_outcomes < 2:
            report.add("outcomes: softmax model needs at least 2 outcomes")
        if out.shift.size != out.n_outcomes or out.revenues.size != out.n_outcomes:
            report.add("outcomes: theta, shift, revenues must have equal length")
        if np.any(out.revenues < 0):
            report.add("outcomes: revenues must be nonnegative")
    else:
        report.add(f"outcomes: unknown outcome model {type(out).__name__}")

    if len(problem.utilities) != n:
        report.add(f"utilities: expected {n} entries, got {len(problem.utilities)}")
    for i, u in enumerate(problem.utilities):
        if isinstance(u, PowerUtility) and not (0.0 < u.eta < 1.0):
            report.add(f"utilities[{i}]: power eta must lie in (0, 1)")

    if len(problem.costs) != n:
        report.add(f"costs: expected {n} entries, got {len(problem.costs)}")
    for i, c in enumerate(problem.costs):
        if not (math.isfinite(c.scale) and math.isfinite(c.exponent)):
            report.add(f"costs[{i}]: scale and exponent must be finite")
        if c.scale <= 0:
            report.add(f"costs[{i}]: scale must be strictly positive")
        if c.exponent < 2:
            report.add(f"costs[{i}]: exponent must be at least 2")

    return report


def validate_contract(problem: Problem, contract: Contract) -> ValidationReport:
    report = ValidationReport()
    if contract.payments.shape != (problem.n, problem.n_outcomes):
        report.add(
            f"contract: payments shape {contract.payments.shape} does not match "
            f"({problem.n}, {problem.n_outcomes})"
        )
    if np.any(contract.payments < 0):
        report.add("contract: payments must be nonnegative")
    if not np.isfinite(contract.payments).all():
        report.add("contract: payments must be finite")
    return report


# ---------------------------------------------------------------------------
# dict / JSON schema
# ---------------------------------------------------------------------------


def _take(d: dict, where: str, required: Sequence[str], optional: Sequence[str] = ()) -> dict:
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise SchemaError(f"{where}: missing fields {missing}")
    return d


def _kind(d: dict, where: str):
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    return d.get("type")


@contextmanager
def _malformed_values(where: str):
    """A value of the wrong type or form (``"n": "x"``) is a SchemaError."""
    try:
        yield
    except ModelError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: malformed value: {exc}") from exc


def _success_from_dict(d: dict, where: str) -> SuccessProbability:
    kind = _kind(d, where)
    if kind == "linear_capped":
        _take(d, where, ["type", "slope"])
        return LinearCappedSuccess(slope=float(d["slope"]))
    if kind == "logistic":
        _take(d, where, ["type", "scale"], ["shift"])
        return LogisticSuccess(scale=float(d["scale"]), shift=float(d.get("shift", 0.0)))
    if kind == "power":
        _take(d, where, ["type", "exponent"])
        return PowerSuccess(exponent=float(d["exponent"]))
    raise SchemaError(f"{where}: unknown success probability type {kind!r}")


def _production_from_dict(d: dict, where: str) -> ProductionFunction:
    kind = _kind(d, where)
    if kind == "quadratic_network":
        _take(d, where, ["type", "weights"], ["scale", "standalone"])
        net = Network(np.asarray(d["weights"], dtype=float), float(d.get("scale", 1.0)))
        standalone = d.get("standalone")
        return QuadraticNetworkProduction(net, None if standalone is None else np.asarray(standalone, dtype=float))
    if kind == "cobb_douglas":
        _take(d, where, ["type", "shares"])
        return CobbDouglasProduction(np.asarray(d["shares"], dtype=float))
    if kind == "ces":
        _take(d, where, ["type", "shares", "rho"], ["returns"])
        return CESProduction(np.asarray(d["shares"], dtype=float), float(d["rho"]), float(d.get("returns", 1.0)))
    if kind == "polynomial":
        _take(d, where, ["type", "n", "terms"])
        if not d["terms"]:
            # Nothing else in the file bounds n, which the per-agent entries expand to.
            raise SchemaError(f"{where}: polynomial needs at least one term")
        terms = []
        for k, t in enumerate(d["terms"]):
            _take(t, f"{where}.terms[{k}]", ["coefficient", "powers"])
            terms.append((float(t["coefficient"]), np.asarray(t["powers"], dtype=float)))
        return PolynomialProduction(int(d["n"]), tuple(terms))
    raise SchemaError(f"{where}: unknown production type {kind!r}")


def _outcomes_from_dict(d: dict, where: str):
    kind = _kind(d, where)
    if kind == "binary_success":
        _take(d, where, ["type", "success"])
        return BinaryOutcomeModel(_success_from_dict(d["success"], where + ".success"))
    if kind == "softmax":
        _take(d, where, ["type", "theta", "revenues"], ["shift"])
        theta = np.asarray(d["theta"], dtype=float)
        shift = np.asarray(d.get("shift", np.zeros_like(theta)), dtype=float)
        return SoftmaxOutcomeModel(theta, shift, np.asarray(d["revenues"], dtype=float))
    raise SchemaError(f"{where}: unknown outcome model type {kind!r}")


def _utility_from_dict(d: dict, where: str) -> Utility:
    kind = _kind(d, where)
    if kind == "linear":
        _take(d, where, ["type"])
        return LinearUtility()
    if kind == "sqrt":
        _take(d, where, ["type"])
        return SqrtUtility()
    if kind == "power":
        _take(d, where, ["type", "eta"])
        return PowerUtility(eta=float(d["eta"]))
    if kind == "log1p":
        _take(d, where, ["type"])
        return Log1pUtility()
    raise SchemaError(f"{where}: unknown utility type {kind!r}")


def _cost_from_dict(d: dict, where: str) -> PowerCost:
    _take(d, where, ["type"], ["scale", "exponent"])
    if d.get("type") != "power":
        raise SchemaError(f"{where}: unknown cost type {d.get('type')!r}")
    return PowerCost(scale=float(d.get("scale", 1.0)), exponent=float(d.get("exponent", 2.0)))


def _per_agent(entries, n: int, where: str, parse) -> tuple:
    """One parsed entry per agent; a single object shared by every agent is
    parsed once, as entry 0."""
    if isinstance(entries, dict):
        return (parse(entries, f"{where}[0]"),) * n
    if len(entries) != n:
        raise SchemaError(f"{where}: expected {n} entries, got {len(entries)}")
    return tuple(parse(e, f"{where}[{i}]") for i, e in enumerate(entries))


def problem_from_dict(d: dict) -> Problem:
    """Strict parser for the problem schema; rejects unknown fields."""
    _take(d, "problem", ["n", "production", "outcomes", "utilities", "costs"])
    with _malformed_values("problem"):
        n = int(d["n"])
        production = _production_from_dict(d["production"], "production")
        # Before any per-agent tuple is built: a shared entry would expand to n.
        if n != production.n:
            raise SchemaError(f"problem: production dimension {production.n} does not match agent count {n}")
        outcomes = _outcomes_from_dict(d["outcomes"], "outcomes")
        utilities = _per_agent(d["utilities"], n, "utilities", _utility_from_dict)
        costs = _per_agent(d["costs"], n, "costs", _cost_from_dict)
        return Problem(n=n, production=production, outcomes=outcomes, utilities=utilities, costs=costs)


def contract_from_dict(d: dict) -> Contract:
    _take(d, "contract", ["payments"])
    with _malformed_values("contract"):
        return Contract(np.asarray(d["payments"], dtype=float))
