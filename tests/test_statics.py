import numpy as np
import pytest

import teampay as tp

from helpers import KAPPA_HALF, clique, random_symmetric_network

def asym_triangle() -> tp.Network:
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[0, 2] = w[2, 0] = 0.8
    w[1, 2] = w[2, 1] = 0.6
    return tp.Network(w)


def figure_network(g23: float = 0.0) -> tp.Network:
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[0, 2] = w[2, 0] = 0.8
    w[1, 2] = w[2, 1] = g23
    return tp.Network(w)


# ---------------------------------------------------------------------------
# link derivatives of optimal payments
# ---------------------------------------------------------------------------


def test_share_derivative_matches_reoptimization_fd():
    net = asym_triangle()
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    ds = tp.dshare_dlink(net, KAPPA_HALF, opt)
    assert ds.includes_share_response
    h = 1e-4
    for j, k in [(0, 1), (0, 2), (1, 2)]:
        up = tp.optimize_quadratic_binary(net.with_edge(j, k, net.weights[j, k] + h), KAPPA_HALF)
        dn = tp.optimize_quadratic_binary(net.with_edge(j, k, net.weights[j, k] - h), KAPPA_HALF)
        assert up.active_set == opt.active_set == dn.active_set
        fd = (up.contract.payments[:, 1] - dn.contract.payments[:, 1]) / (2 * h)
        rel = np.max(np.abs(ds.tensor[:, j, k] - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-3


def test_share_derivative_symmetric_on_symmetric_clique():
    net = clique(2)
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    ds = tp.dshare_dlink(net, KAPPA_HALF, opt)
    assert ds.tensor[0, 0, 1] == pytest.approx(ds.tensor[1, 0, 1], abs=1e-12)
    assert ds.tensor[:, 0, 1] == pytest.approx(ds.tensor[:, 1, 0])


def _dshare_dlink_loops(network, p, opt, include_share_response):
    """Reference: the element-by-element loops of the link-derivative formula."""
    agents = np.asarray(opt.active_set, dtype=int)
    ginv = np.linalg.inv(network.matrix[np.ix_(agents, agents)])
    tau = opt.contract.payments[agents, 1]
    s = float(np.sum(tau))
    lam = opt.balance_constant
    t = tau / lam
    kstar = float(np.sum(t))
    m = agents.size
    dlam = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            if j != k:
                dlam[j, k] = 2.0 * tau[j] * tau[k] / s
    if include_share_response:
        kappa = p.slope
        dp_ds = -3.0 * kappa**2 * s**2 + 6.0 * kappa * kstar * s - 4.0 * kstar**2
        dp_dk = 3.0 * kappa * s**2 - 8.0 * kstar * s + 4.0 * kstar
        for j in range(m):
            for k in range(m):
                if j != k:
                    dlam[j, k] += (dp_dk / dp_ds) * 2.0 * t[j] * t[k] / kstar
    tensor = np.zeros((network.n,) * 3)
    for i_pos, i in enumerate(agents):
        for j_pos, j in enumerate(agents):
            for k_pos, k in enumerate(agents):
                if j != k:
                    tensor[i, j, k] = (
                        -ginv[i_pos, k_pos] * tau[j_pos]
                        - ginv[i_pos, j_pos] * tau[k_pos]
                        + dlam[j_pos, k_pos] * tau[i_pos] / lam
                    )
    return tensor


@pytest.mark.parametrize("p", [KAPPA_HALF, tp.PowerSuccess(2.0)], ids=["linear", "power"])
def test_share_derivative_arrays_match_the_elementwise_loops(p):
    rng = np.random.default_rng(3)
    for net in (asym_triangle(), figure_network(0.4), clique(4),
                *(random_symmetric_network(rng, 5) for _ in range(4))):
        opt = tp.optimize_quadratic_binary(net, p)
        if len(opt.active_set) < 2:
            continue
        ds = tp.dshare_dlink(net, p, opt)
        expected = _dshare_dlink_loops(net, p, opt, ds.includes_share_response)
        assert np.array_equal(ds.tensor, expected)


def test_own_link_derivative_initially_negative_in_figure_setup():
    net = figure_network(0.3)
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    ds = tp.dshare_dlink(net, KAPPA_HALF, opt)
    assert ds.tensor[1, 1, 2] < 0.0  # agent 2's own new link first lowers its pay


# ---------------------------------------------------------------------------
# link derivatives of performance
# ---------------------------------------------------------------------------


def test_performance_derivative_proportional_to_payment_products():
    net = asym_triangle()
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    dperf = tp.dperformance_dlink(net, KAPPA_HALF, opt)
    tau = opt.contract.payments[:, 1]
    assert dperf[0, 1] / dperf[0, 2] == pytest.approx(tau[1] / tau[2], rel=1e-8)
    assert np.allclose(dperf, dperf.T)
    assert np.all(np.diag(dperf) == 0.0)


def test_performance_derivative_zero_for_inactive_endpoint():
    net = figure_network(0.0)  # pendant-ish: active set is the (0, 1) edge
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    assert opt.active_set == (0, 1)
    dperf = tp.dperformance_dlink(net, KAPPA_HALF, opt)
    assert dperf[1, 2] == 0.0


def test_performance_derivative_matches_fixed_contract_fd():
    net = asym_triangle()
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    tau = opt.contract.payments[:, 1]
    dperf = tp.dperformance_dlink(net, KAPPA_HALF, opt)
    h = 1e-5
    for j, k in [(0, 1), (1, 2)]:
        up = tp.solve_equilibrium_quadratic_binary(
            net.with_edge(j, k, net.weights[j, k] + h), tau, KAPPA_HALF).performance
        dn = tp.solve_equilibrium_quadratic_binary(
            net.with_edge(j, k, net.weights[j, k] - h), tau, KAPPA_HALF).performance
        fd = (up - dn) / (2 * h)
        assert abs(dperf[j, k] - fd) / abs(fd) < 1e-5


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure_sweep():
    return tp.sweep(figure_network(), KAPPA_HALF, "G23", np.arange(0.0, 1.0001, 0.04))


def test_sweep_principal_payoff_nondecreasing(figure_sweep):
    assert np.all(np.diff(figure_sweep.principal_payoffs) >= -1e-9)


def test_sweep_agent2_payment_and_payoff_non_monotone(figure_sweep):
    pay2 = figure_sweep.payments[:, 1]
    payoff2 = figure_sweep.agent_payoffs[:, 1]
    assert np.any(np.diff(pay2) < -1e-7)
    assert np.any(np.diff(pay2) > 1e-7)
    assert np.any(np.diff(payoff2) < -1e-7)
    assert np.any(np.diff(payoff2) > 1e-7)


def test_sweep_agent1_topmost_on_ordered_region(figure_sweep):
    # The labeled ordering maintains G12 >= G13 >= G23, i.e. G23 <= 0.8;
    # past that point the hub role flips to agent 2 by the closed form.
    mask = figure_sweep.grid <= 0.8 + 1e-12
    pay = figure_sweep.payments
    payoff = figure_sweep.agent_payoffs
    assert np.all(pay[mask, 0] >= pay[mask, 1] - 1e-9)
    assert np.all(pay[mask, 0] >= pay[mask, 2] - 1e-9)
    assert np.all(payoff[mask, 0] >= payoff[mask, 1] - 1e-9)
    assert np.all(payoff[mask, 0] >= payoff[mask, 2] - 1e-9)


def test_beta_sweep_total_share_increasing():
    curve = tp.sweep(clique(2), KAPPA_HALF, "beta", np.linspace(0.2, 1.4, 7))
    totals = curve.payments.sum(axis=1)
    assert np.all(np.diff(totals) > 0.0)
    for value, total in zip(curve.grid, totals):
        root = tp.total_share_root(float(value), 0.5, 2.0)
        assert total == pytest.approx(root, abs=1e-6)


def test_sweep_records_per_point_failures():
    # beta large enough that the slope-spectral condition fails at s -> 1.
    curve = tp.sweep(clique(2), tp.LinearCappedSuccess(0.9), "beta", np.array([0.5, 1.0]))
    assert curve.errors[0] is None
    assert curve.payments.shape == (2, 2)


def test_sweep_csv_format():
    curve = tp.sweep(clique(2), KAPPA_HALF, "beta", np.array([0.5, 1.0]))
    text = tp.sweep_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "beta,payment_0,payment_1,principal_payoff,agent_payoff_0,agent_payoff_1,performance,active_set"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.5
    assert int(cells[-1]) == 0b11


def test_parse_parameter_forms():
    assert tp.statics.parse_parameter("beta", 3) == ("beta", None)
    assert tp.statics.parse_parameter("G23", 3) == ("edge", (1, 2))
    assert tp.statics.parse_parameter("G1_12", 12) == ("edge", (0, 11))
    with pytest.raises(tp.StaticsError):
        tp.statics.parse_parameter("G44", 3)
