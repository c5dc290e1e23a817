import math
import re
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teampay as tp
from teampay import model
from teampay.model import ModelError, SchemaError, problem_from_dict, validate_contract

from helpers import PRODUCTION_FAMILIES, clique, quadratic_problem, random_production, random_symmetric_network


def fd_gradient(fun, a, h=1e-6):
    a = np.asarray(a, dtype=float)
    out = np.empty(a.size)
    for k in range(a.size):
        up, dn = a.copy(), a.copy()
        up[k] += h
        dn[k] -= h
        out[k] = (fun(up) - fun(dn)) / (2 * h)
    return out


def fd_hessian(production, a, h=1e-5):
    a = np.asarray(a, dtype=float)
    n = a.size
    out = np.empty((n, n))
    for k in range(n):
        up, dn = a.copy(), a.copy()
        up[k] += h
        dn[k] -= h
        out[:, k] = (production.gradient(up) - production.gradient(dn)) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_well_formed_quadratic():
    report = tp.validate_problem(quadratic_problem(clique(2)))
    assert report.ok and report.violations == []


@dataclass(frozen=True)
class _UnknownProduction(model.ProductionFunction):
    n: int = 2


@dataclass(frozen=True)
class _UnknownOutcomes:
    n_outcomes: int = 2


_BASE = quadratic_problem(clique(2))


def _with(**changes) -> tp.Problem:
    """The defect-free base problem with some fields replaced."""
    return replace(_BASE, **changes)


@pytest.mark.parametrize("problem, contract, message", [
    pytest.param(_BASE, None, None, id="none"),
    pytest.param(_with(production=tp.QuadraticNetworkProduction(tp.Network([[0.0, 1.0], [0.5, 0.0]]))), None,
                 "production: network weights must be symmetric", id="network_asymmetric"),
    pytest.param(_with(n=0, production=tp.QuadraticNetworkProduction(tp.Network(np.zeros((0, 0)))),
                       utilities=(), costs=()), None,
                 "production: network needs at least one agent", id="network_empty"),
    pytest.param(_with(production=tp.QuadraticNetworkProduction(tp.Network([[1.0, 1.0], [1.0, 0.0]]))), None,
                 "production: network diagonal must be zero", id="network_diagonal"),
    pytest.param(_with(production=tp.QuadraticNetworkProduction(tp.Network([[0.0, -1.0], [-1.0, 0.0]]))), None,
                 "production: network weights must be nonnegative", id="network_negative_weight"),
    pytest.param(_with(production=tp.QuadraticNetworkProduction(clique(2).with_scale(-1.0))), None,
                 "production: network scale must be nonnegative", id="network_negative_scale"),
    pytest.param(_with(production=tp.QuadraticNetworkProduction(clique(2), [1.0, 0.0])), None,
                 "production: standalone coefficients must be strictly positive", id="standalone"),
    pytest.param(_with(n=3, utilities=(tp.LinearUtility(),) * 3, costs=(tp.PowerCost(),) * 3), None,
                 "production dimension 2 does not match agent count 3", id="production_dimension"),
    pytest.param(_with(n=3, production=tp.PolynomialProduction(2, ((1.0, (1, 1)),)),
                       utilities=(tp.LinearUtility(),) * 3, costs=(tp.PowerCost(),) * 3), None,
                 "production dimension 2 does not match agent count 3", id="polynomial_dimension"),
    pytest.param(_with(production=_UnknownProduction()), None,
                 "production: unknown production type _UnknownProduction", id="production_unknown"),
    pytest.param(_with(production=tp.CobbDouglasProduction([1.0, 0.0])), None,
                 "production: cobb_douglas shares must be strictly positive", id="cobb_douglas_shares"),
    pytest.param(_with(production=tp.CESProduction([1.0, 0.0], rho=0.5)), None,
                 "production: ces shares must be strictly positive", id="ces_shares"),
    pytest.param(_with(production=tp.CESProduction([1.0, 1.0], rho=0.5, returns=0.0)), None,
                 "production: ces returns must be strictly positive", id="ces_returns"),
    pytest.param(_with(production=tp.PolynomialProduction(2, ())), None,
                 "production: polynomial needs at least one term", id="polynomial_no_terms"),
    pytest.param(_with(production=tp.PolynomialProduction(2, ((0.0, (1, 1)),))), None,
                 "production: polynomial coefficients must be strictly positive", id="polynomial_coefficient"),
    pytest.param(_with(production=tp.PolynomialProduction(2, ((1.0, (-1, 1)), (1.0, (1, 0))))), None,
                 "production: polynomial powers must be nonnegative integers", id="polynomial_negative_power"),
    pytest.param(_with(production=tp.PolynomialProduction(2, ((1.0, (0.5, 0)), (1.0, (0, 1))))), None,
                 "production: polynomial powers must be nonnegative integers", id="polynomial_fractional_power"),
    pytest.param(_with(production=tp.PolynomialProduction(2, ((1.0, (1, 0)),))), None,
                 "production: every agent must appear in some polynomial term", id="polynomial_untouched_agent"),
    pytest.param(_with(outcomes=tp.BinaryOutcomeModel(tp.LinearCappedSuccess(0.0))), None,
                 "outcomes: linear_capped slope must be strictly positive", id="linear_capped_slope"),
    pytest.param(_with(outcomes=tp.BinaryOutcomeModel(tp.LogisticSuccess(0.0))), None,
                 "outcomes: logistic scale must be strictly positive", id="logistic_scale"),
    pytest.param(_with(outcomes=tp.BinaryOutcomeModel(tp.PowerSuccess(0.0))), None,
                 "outcomes: power exponent must be strictly positive", id="power_exponent"),
    pytest.param(_with(outcomes=tp.SoftmaxOutcomeModel([1.0], [0.0], [1.0])), None,
                 "outcomes: softmax model needs at least 2 outcomes", id="softmax_outcomes"),
    pytest.param(_with(outcomes=tp.SoftmaxOutcomeModel([0.0, 1.0], [0.0], [0.0, 1.0])), None,
                 "outcomes: theta, shift, revenues must have equal length", id="softmax_lengths"),
    pytest.param(_with(outcomes=tp.SoftmaxOutcomeModel([0.0, 1.0], [0.0, 0.0], [-1.0, 1.0])), None,
                 "outcomes: revenues must be nonnegative", id="softmax_revenues"),
    pytest.param(_with(outcomes=_UnknownOutcomes()), None,
                 "outcomes: unknown outcome model _UnknownOutcomes", id="outcomes_unknown"),
    pytest.param(_with(utilities=(tp.LinearUtility(),)), None,
                 "utilities: expected 2 entries, got 1", id="utilities_count"),
    pytest.param(_with(utilities=(tp.LinearUtility(), tp.PowerUtility(1.0))), None,
                 "utilities[1]: power eta must lie in (0, 1)", id="utility_eta"),
    pytest.param(_with(costs=(tp.PowerCost(),) * 3), None,
                 "costs: expected 2 entries, got 3", id="costs_count"),
    pytest.param(_with(costs=(tp.PowerCost(), tp.PowerCost(scale=0.0))), None,
                 "costs[1]: scale must be strictly positive", id="cost_scale"),
    pytest.param(_with(costs=(tp.PowerCost(exponent=1.5), tp.PowerCost())), None,
                 "costs[0]: exponent must be at least 2", id="cost_exponent"),
    pytest.param(_BASE, tp.Contract([[0.0, 0.5]]), "contract: payments shape (1, 2) does not match (2, 2)",
                 id="contract_shape"),
    pytest.param(_BASE, tp.Contract([[0.0, 0.5], [0.0, -0.5]]), "contract: payments must be nonnegative",
                 id="contract_sign"),
])
def test_validation_reports_each_defect_with_its_message(problem, contract, message):
    report = tp.validate_problem(problem) if contract is None else validate_contract(problem, contract)
    assert report.violations == ([] if message is None else [message])


def test_validate_flags_ces_rho_zero():
    problem = tp.Problem(
        n=2,
        production=tp.CESProduction([1.0, 1.0], rho=0.0),
        outcomes=tp.BinaryOutcomeModel(tp.LinearCappedSuccess(0.5)),
        utilities=(tp.LinearUtility(),) * 2,
        costs=(tp.PowerCost(),) * 2,
    )
    report = tp.validate_problem(problem)
    assert any("cobb_douglas" in v for v in report.violations)


# ---------------------------------------------------------------------------
# production evaluation
# ---------------------------------------------------------------------------


def test_network_matrix_is_computed_once_and_read_only():
    net = tp.Network([[0.0, 1.0], [1.0, 0.0]], scale=0.5)
    assert net.matrix is net.matrix
    assert np.array_equal(net.matrix, 0.5 * net.weights)
    with pytest.raises(ValueError):
        net.matrix[0, 1] = 2.0


def test_quadratic_production_known_point():
    prod = tp.QuadraticNetworkProduction(clique(2))
    a = np.array([1 / 7, 1 / 7])
    assert prod.value(a) == pytest.approx(15 / 49, abs=1e-15)
    assert prod.gradient(a) == pytest.approx([8 / 7, 8 / 7], abs=1e-15)
    assert np.allclose(prod.hessian(a), [[0, 1], [1, 0]])


def test_quadratic_production_at_zero_returns_standalone():
    prod = tp.QuadraticNetworkProduction(clique(3), np.array([1.0, 2.0, 0.5]))
    assert prod.value(np.zeros(3)) == 0.0
    assert prod.gradient(np.zeros(3)) == pytest.approx([1.0, 2.0, 0.5])


def test_cobb_douglas_known_point_and_fd_hessian():
    prod = tp.CobbDouglasProduction([1.0, 2.0])
    a = np.array([1.0, 1.0])
    assert prod.value(a) == pytest.approx(1.0)
    assert prod.gradient(a) == pytest.approx([1.0, 2.0])
    fd = fd_hessian(prod, [1.0, 1.0])
    assert np.max(np.abs(prod.hessian(a) - fd)) < 1e-6


def test_cobb_douglas_gradient_rejects_zero_action():
    prod = tp.CobbDouglasProduction([1.0, 2.0])
    with pytest.raises(tp.DomainError):
        prod.gradient(np.array([0.0, 1.0]))


@pytest.mark.parametrize("prod", [
    tp.QuadraticNetworkProduction(clique(3, 0.7), np.array([1.0, 1.3, 0.8])),
    tp.CobbDouglasProduction([0.6, 1.1, 0.8]),
    tp.CESProduction([1.0, 2.0, 0.5], rho=0.4, returns=1.2),
    tp.CESProduction([1.0, 2.0, 0.5], rho=-1.5, returns=0.9),
    tp.PolynomialProduction(3, ((1.0, (1, 0, 0)), (0.5, (0, 1, 1)), (0.2, (1, 1, 1)))),
])
def test_hessian_matches_fd_on_random_interior_points(prod):
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.uniform(0.3, 1.8, size=3)
        hess = prod.hessian(a)
        assert np.allclose(hess, hess.T, atol=1e-12)
        fd = fd_hessian(prod, a)
        scale = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(hess - fd)) / scale < 1e-6


@pytest.mark.parametrize("prod", [
    tp.QuadraticNetworkProduction(clique(3, 0.7)),
    tp.CobbDouglasProduction([0.6, 1.1, 0.8]),
    tp.CESProduction([1.0, 2.0, 0.5], rho=0.4),
    tp.PolynomialProduction(3, ((1.0, (1, 0, 0)), (0.5, (0, 1, 1)), (0.2, (2, 0, 1)))),
])
def test_production_strictly_increasing(prod):
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.uniform(0.1, 2.0, size=3)
        y = prod.value(a)
        for k in range(3):
            bumped = a.copy()
            bumped[k] += 1e-6
            assert prod.value(bumped) > y


def test_partials_match_gradient():
    rng = np.random.default_rng(3)
    for prod in (
        tp.QuadraticNetworkProduction(clique(3, 0.5)),
        tp.CobbDouglasProduction([0.6, 1.1, 0.8]),
        tp.CESProduction([1.0, 2.0, 0.5], rho=-0.7),
        tp.PolynomialProduction(3, ((1.0, (1, 0, 0)), (0.5, (1, 2, 1)))),
    ):
        a = rng.uniform(0.2, 1.5, size=3)
        grad = prod.gradient(a)
        hess = prod.hessian(a)
        for i in range(3):
            assert prod.partial(a, i) == pytest.approx(grad[i], rel=1e-12)
            assert prod.partial2(a, i) == pytest.approx(hess[i, i], rel=1e-10, abs=1e-12)


def test_polynomial_derivatives_are_exact_at_a_boundary_point():
    # Y = 2 a0^2 a1 + 3 a1^3 + a0 a1 a2 at a0 = 0, where the terms in a0 drop
    # out of the value but not of the derivatives; every figure is a dyadic
    # rational, so the rule must give it exactly.
    prod = tp.PolynomialProduction(3, ((2.0, (2, 1, 0)), (3.0, (0, 3, 0)), (1.0, (1, 1, 1))))
    a = np.array([0.0, 1.5, 2.0])
    hess = np.array([[6.0, 2.0, 1.5], [2.0, 27.0, 0.0], [1.5, 0.0, 0.0]])
    assert prod.value(a) == 10.125 and isinstance(prod.value(a), float)
    assert np.array_equal(prod.gradient(a), [3.0, 20.25, 0.0])
    assert np.array_equal(prod.hessian(a), hess)
    assert [prod.partial2(a, i) for i in range(3)] == list(np.diag(hess))
    batch = np.broadcast_to(a, (2, 3, 3))
    assert np.array_equal(prod.value(batch), np.full((2, 3), 10.125))
    assert np.array_equal(np.moveaxis(prod.gradient(batch), 0, -1), np.broadcast_to(prod.gradient(a), (2, 3, 3)))
    for i in range(3):
        assert np.array_equal(prod.partial(batch, i), np.full((2, 3), prod.partial(a, i)))
        assert np.array_equal(prod.partial2(batch, i), np.full((2, 3), hess[i, i]))


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(PRODUCTION_FAMILIES), n=st.integers(1, 5), k=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_batched_partials_match_a_loop_of_single_points(family, n, k, seed):
    rng = np.random.default_rng(seed)
    prod = random_production(family, n, rng)
    i = int(rng.integers(n))
    pts = rng.uniform(0.05, 3.0, size=(2, k, n))
    others = rng.uniform(size=pts.shape) < 0.2
    others[..., i] = False
    pts[others] = 0.0  # zeros in the other coordinates are admissible
    for method in (prod.partial, prod.partial2):
        batch = method(pts, i)
        assert batch.shape == (2, k)
        assert isinstance(method(pts[0, 0], i), float)
        loop = np.array([[method(x, i) for x in row] for row in pts])
        np.testing.assert_allclose(batch, loop, rtol=1e-14, atol=0.0)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_quadratic_value_rounding_contract(n, k, seed):
    # Y(a) = s.a + 0.5 sum_ij (a_i G_ij) a_j.  A batch matches a loop of
    # single points to a relative 1e-14 (bit for bit up to n = 3) and the
    # exact sum of its terms to 8 eps of their absolute sum.  At n = 2,
    # whatever the two weights, it is bit for bit one dot product s.a per
    # point plus the i-major sum, which keeps the 2-clique outputs' bytes.
    # Weights are nonnegative, as the model requires: with negative ones the
    # sum can cancel to below any relative bound.
    rng = np.random.default_rng(seed)
    if n == 2:
        w = np.zeros((2, 2))
        w[0, 1], w[1, 0] = rng.uniform(size=2) * 10.0 ** rng.integers(-3, 4, size=2)
        network = tp.Network(w, scale=float(rng.uniform(0.1, 2.0)))
    else:
        network = random_symmetric_network(rng, n, high=float(rng.choice([1.0, 5.0])))
    prod = tp.QuadraticNetworkProduction(network, rng.uniform(0.5, 1.5, size=n))
    pts = rng.uniform(0.0, 3.0, size=(2, k, n))
    batch = prod.value(pts)
    assert batch.shape == (2, k)
    loop = np.array([[prod.value(x) for x in row] for row in pts])
    np.testing.assert_allclose(batch, loop, rtol=1e-14, atol=0.0)
    if n <= 3:
        assert np.array_equal(batch, loop)

    g, s = network.matrix, prod.standalone
    for a, y in zip(pts.reshape(-1, n), batch.ravel()):
        terms = [s[i] * a[i] for i in range(n)] + [0.5 * ((a[i] * g[i, j]) * a[j])
                                                   for i in range(n) for j in range(n)]
        assert abs(y - math.fsum(terms)) <= 8 * np.finfo(float).eps * sum(abs(t) for t in terms)
    if n == 2:
        quad = np.zeros((2, k))
        for i in range(2):
            for j in range(2):
                quad = quad + (pts[..., i] * g[i, j]) * pts[..., j]
        assert np.array_equal(batch, np.array([[a @ s for a in row] for row in pts]) + 0.5 * quad)


def test_quadratic_value_of_a_point_is_its_batch_row_bit_for_bit():
    # With a non-unit standalone, a linear term computed as one gemv over
    # the batch differed in the last bit from the single point's dot product
    # at 399 of these 2,000 points.
    prod = tp.QuadraticNetworkProduction(tp.Network([[0.0, 0.49279058], [0.49279058, 0.0]]),
                                         [1.02492198, 1.3221824])
    pts = np.random.default_rng(0).uniform(0.1, 1.0, size=(1000, 2, 2))
    batch = prod.value(pts)
    single = np.array([[prod.value(a) for a in pair] for pair in pts])
    assert np.array_equal(batch, single)


@pytest.mark.parametrize("prod", [tp.CobbDouglasProduction([0.5, 0.8]), tp.CESProduction([1.0, 2.0], rho=-0.5)])
def test_batched_partials_keep_the_domain_guard(prod):
    pts = np.full((3, 2), 0.5)
    pts[1, 0] = 0.0  # own action zero, other coordinate positive
    for method in (prod.partial, prod.partial2):
        with pytest.raises(tp.DomainError):
            method(pts, 0)
        with pytest.raises(tp.DomainError):
            method(pts[1], 0)
        assert method(pts[[0, 2]], 0).shape == (2,)


# ---------------------------------------------------------------------------
# outcome models
# ---------------------------------------------------------------------------


def test_linear_capped_probs_below_kink():
    model = tp.BinaryOutcomeModel(tp.LinearCappedSuccess(0.5))
    p, dp, d2p = model.probs_derivs(0.4)
    assert p == pytest.approx([0.8, 0.2])
    assert dp == pytest.approx([-0.5, 0.5])
    assert d2p == pytest.approx([0.0, 0.0])


def test_linear_capped_raises_at_cap():
    model = tp.BinaryOutcomeModel(tp.LinearCappedSuccess(0.5))
    with pytest.raises(tp.CapExceededError):
        model.probs_derivs(2.0)


def test_softmax_flat_theta_has_zero_slopes():
    model = tp.SoftmaxOutcomeModel([0.0, 0.0, 0.0], [0.3, -0.2, 1.0], [0.0, 1.0, 2.0])
    _, dp, _ = model.probs_derivs(0.7)
    assert np.max(np.abs(dp)) == 0.0


def test_softmax_derivatives_match_fd():
    model = tp.SoftmaxOutcomeModel([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 1.0, 2.0])
    y = 1.0
    p, dp, d2p = model.probs_derivs(y)
    h = 1e-5
    p_up = model.probs(y + h)
    p_dn = model.probs(y - h)
    assert np.max(np.abs((p_up - p_dn) / (2 * h) - dp)) < 1e-9
    assert np.max(np.abs((p_up - 2 * p + p_dn) / h**2 - d2p)) < 5e-5


@pytest.mark.parametrize("model", [
    tp.BinaryOutcomeModel(tp.LinearCappedSuccess(0.4)),
    tp.BinaryOutcomeModel(tp.LogisticSuccess(0.6, -0.1)),
    tp.BinaryOutcomeModel(tp.PowerSuccess(2.0)),
    tp.SoftmaxOutcomeModel([0.0, 0.7, 2.1], [0.5, 0.0, -0.5], [0.0, 1.0, 2.0]),
])
def test_probabilities_sum_to_one_and_slopes_to_zero(model):
    rng = np.random.default_rng(5)
    for y in rng.uniform(0.0, 2.0, size=100):
        p, dp, _ = model.probs_derivs(float(y))
        assert abs(p.sum() - 1.0) < 1e-12
        assert abs(dp.sum()) < 1e-12
        assert np.all(p > 0.0)


OUTCOME_MODELS = [
    tp.BinaryOutcomeModel(tp.LinearCappedSuccess(0.4)),
    tp.BinaryOutcomeModel(tp.LogisticSuccess(0.6, -0.1)),
    tp.BinaryOutcomeModel(tp.PowerSuccess(2.0)),
    tp.SoftmaxOutcomeModel([0.0, 0.7, 2.1], [0.5, 0.0, -0.5], [0.0, 1.0, 2.0]),
    tp.SoftmaxOutcomeModel([0.0, 2.0, 2.5], [1.5, 0.0, -1.0], [0.0, 2.0, 3.0]),
]


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(OUTCOME_MODELS), shape=st.sampled_from([(1,), (5,), (3, 4)]),
       seed=st.integers(0, 2**32 - 1))
def test_batched_probs_derivs_match_a_loop_of_scalar_calls(model, shape, seed):
    # Linear success stays below its cap (2.5), where derivatives exist.
    ys = np.random.default_rng(seed).uniform(0.0, 2.49, size=shape)
    batch = model.probs_derivs(ys)
    for part, stack in enumerate(batch):
        assert stack.shape == shape + (model.n_outcomes,)
        loop = np.array([model.probs_derivs(float(y))[part] for y in ys.ravel()]).reshape(stack.shape)
        np.testing.assert_allclose(stack, loop, rtol=1e-14, atol=0.0)


def test_batched_probs_derivs_raise_when_any_point_is_past_the_cap():
    model = tp.BinaryOutcomeModel(tp.LinearCappedSuccess(0.5))
    with pytest.raises(tp.CapExceededError):
        model.probs_derivs(np.array([0.5, 2.0, 1.0]))
    with pytest.raises(tp.DomainError):
        model.probs_derivs(np.array([0.5, -0.1]))


# ---------------------------------------------------------------------------
# utilities and costs
# ---------------------------------------------------------------------------


def test_utility_value_and_marginal_examples():
    lin, sq, pw = tp.LinearUtility(), tp.SqrtUtility(), tp.PowerUtility(0.6)
    assert lin.value(0.4) == 0.4 and lin.marginal(0.4) == 1.0
    assert sq.value(0.25) == 0.5 and sq.marginal(0.25) == 1.0
    assert sq.value(0.0) == 0.0 and sq.marginal(0.0) == np.inf
    assert pw.value(0.25) == pytest.approx(0.25 ** 0.6, rel=1e-15)
    assert pw.marginal(0.25) == pytest.approx(0.6 * 0.25 ** -0.4, rel=1e-15)
    assert pw.value(0.0) == 0.0 and pw.marginal(0.0) == np.inf


def test_power_cost_curvature_at_zero():
    assert float(tp.PowerCost(2.0, 2.0).curvature(0.0)) == 2.0
    assert float(tp.PowerCost(1.0, 3.0).curvature(0.0)) == 0.0
    assert float(tp.PowerCost(1.0, 3.0).marginal(0.0)) == 0.0


# ---------------------------------------------------------------------------
# schema round trip
# ---------------------------------------------------------------------------


def test_parser_rejects_unknown_fields():
    d = {
        "n": 2,
        "production": {"type": "quadratic_network", "weights": [[0.0, 1.0], [1.0, 0.0]], "scale": 1.0,
                       "standalone": [1.0, 1.0]},
        "outcomes": {"type": "binary_success", "success": {"type": "linear_capped", "slope": 0.5}},
        "utilities": [{"type": "linear"}, {"type": "linear"}],
        "costs": [{"type": "power", "scale": 1.0, "exponent": 2.0}] * 2,
    }
    assert problem_from_dict(d).n == 2
    d["extra"] = 1
    with pytest.raises(SchemaError):
        problem_from_dict(d)
    d.pop("extra")
    d["production"]["bogus"] = 2
    with pytest.raises(SchemaError):
        problem_from_dict(d)


@pytest.mark.parametrize("production, message", [
    pytest.param({"type": "quadratic_network", "weights": [[0.0, 1.0], [1.0, 0.0]]},
                 "production dimension 2 does not match agent count 1000000", id="quadratic"),
    # No term bounds n, so only the parser's own check stops the expansion.
    pytest.param({"type": "polynomial", "n": 10**6, "terms": []},
                 "production: polynomial needs at least one term", id="polynomial_no_terms"),
])
def test_agent_count_is_checked_before_the_per_agent_entries_are_built(production, message):
    d = {
        "n": 10**6,
        "production": production,
        "outcomes": {"type": "binary_success", "success": {"type": "linear_capped", "slope": 0.5}},
        "utilities": {"type": "linear"},
        "costs": {"type": "power"},
    }
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=re.escape(message)):
            problem_from_dict(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


_PARSER_BASE = {
    "n": 2,
    "production": {"type": "polynomial", "n": 2, "terms": [{"coefficient": 1.0, "powers": [1, 1]}]},
    "outcomes": {"type": "binary_success", "success": {"type": "power", "exponent": 2.0}},
    "utilities": [{"type": "power", "eta": 0.5}, {"type": "log1p"}],
    "costs": [{"type": "power"}, {"type": "power", "scale": 2.0}],
}
_MYSTERY = {"type": "mystery"}


@pytest.mark.parametrize("field, entry, error, message", [
    pytest.param(None, None, None, None, id="none"),
    pytest.param("production", _MYSTERY, SchemaError, "production: unknown production type 'mystery'",
                 id="production_type"),
    pytest.param("outcomes", _MYSTERY, SchemaError, "outcomes: unknown outcome model type 'mystery'",
                 id="outcomes_type"),
    pytest.param("outcomes", {"type": "binary_success", "success": _MYSTERY}, SchemaError,
                 "outcomes.success: unknown success probability type 'mystery'", id="success_type"),
    pytest.param("utilities", [{"type": "linear"}, _MYSTERY], SchemaError,
                 "utilities[1]: unknown utility type 'mystery'", id="utility_type"),
    pytest.param("costs", _MYSTERY, SchemaError, "costs[0]: unknown cost type 'mystery'", id="cost_type"),
    pytest.param("costs", [{"type": "power"}], SchemaError, "costs: expected 2 entries, got 1", id="costs_count"),
    pytest.param("production", {"type": "polynomial", "n": 2, "terms": [{"coefficient": 1.0, "powers": [1]}]},
                 ModelError, "polynomial term power length must equal agent count", id="polynomial_power_length"),
    pytest.param("production", {"type": "polynomial", "n": 2, "terms": []}, SchemaError,
                 "production: polynomial needs at least one term", id="polynomial_no_terms"),
])
def test_parser_reports_each_defect_with_its_message(field, entry, error, message):
    if error is None:
        problem = problem_from_dict(_PARSER_BASE)
        assert problem.utilities == (tp.PowerUtility(0.5), tp.Log1pUtility())
        assert tp.validate_problem(problem).ok
        return
    with pytest.raises(error, match=re.escape(message)):
        problem_from_dict({**_PARSER_BASE, field: entry})


def test_parser_broadcasts_single_utility_and_cost(monkeypatch):
    d = {
        "n": 3,
        "production": {"type": "cobb_douglas", "shares": [1.0, 1.0, 1.0]},
        "outcomes": {"type": "binary_success", "success": {"type": "power", "exponent": 2.0}},
        "utilities": {"type": "sqrt"},
        "costs": {"type": "power", "scale": 2.0},
    }
    seen = []
    parse = model._cost_from_dict
    monkeypatch.setattr(model, "_cost_from_dict", lambda c, where: seen.append(where) or parse(c, where))
    problem = problem_from_dict(d)
    assert len(problem.utilities) == 3
    assert all(isinstance(u, tp.SqrtUtility) for u in problem.utilities)
    # A shared entry is parsed once, and its errors name it entry 0.
    assert seen == ["costs[0]"] and problem.costs == (tp.PowerCost(2.0),) * 3
    for field, entry, message in (("utilities", {"type": "power"}, "utilities[0]: missing fields ['eta']"),
                                  ("costs", {"type": "power", "zz": 1}, "costs[0]: unknown fields ['zz']")):
        with pytest.raises(SchemaError, match=re.escape(message)):
            problem_from_dict({**d, field: entry})
