import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import teampay as tp
from teampay import cli, contract_opt

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
    h = 1e-4
    for j, k in [(0, 1), (0, 2), (1, 2)]:
        up = tp.optimize_quadratic_binary(net.with_edge(j, k, net.weights[j, k] + h), KAPPA_HALF)
        dn = tp.optimize_quadratic_binary(net.with_edge(j, k, net.weights[j, k] - h), KAPPA_HALF)
        assert up.active_set == opt.active_set == dn.active_set
        fd = (up.contract.payments[:, 1] - dn.contract.payments[:, 1]) / (2 * h)
        rel = np.max(np.abs(ds[:, j, k] - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-3


def test_share_derivative_symmetric_on_symmetric_clique():
    net = clique(2)
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    ds = tp.dshare_dlink(net, KAPPA_HALF, opt)
    assert ds[0, 0, 1] == pytest.approx(ds[1, 0, 1], abs=1e-12)
    assert ds[:, 0, 1] == pytest.approx(ds[:, 1, 0])


def _share_response_loops(p, y, rate):
    """Reference: the optimal share's derivative in the share rate, from one
    scalar evaluation of the optimizer's share and payoff per stencil point."""
    h = min(1e-4 * y, contract_opt._performance_ceiling(p) - y)
    hr = 1e-4 * rate

    def share(dy, dr):
        return contract_opt._balanced_share(y + h * dy, rate + hr * dr, p)

    def payoff(dy, dr):
        return (1.0 - share(dy, dr)) * p.value(y + h * dy)

    s_rate = (share(0.0, 1.0) - share(0.0, -1.0)) / (2.0 * hr)
    if h <= 1e-9 * y:
        return s_rate  # at the performance ceiling, y* does not move
    pi_yy = (payoff(1.0, 0.0) - 2.0 * payoff(0.0, 0.0) + payoff(-1.0, 0.0)) / h**2
    pi_yr = (payoff(1.0, 1.0) - payoff(1.0, -1.0) - payoff(-1.0, 1.0) + payoff(-1.0, -1.0)) / (4.0 * h * hr)
    s_y = (share(1.0, 0.0) - share(-1.0, 0.0)) / (2.0 * h)
    return s_rate - s_y * pi_yr / pi_yy


def _dshare_dlink_loops(network, p, opt):
    """Reference: the element-by-element loops of the link-derivative formula."""
    agents = np.asarray(opt.active_set, dtype=int)
    ginv = np.linalg.inv(network.matrix[np.ix_(agents, agents)])
    tau = opt.contract.payments[agents, 1]
    s = float(np.sum(tau))
    lam = opt.balance_constant
    t = tau / lam
    rate = lam / s
    response = _share_response_loops(p, opt.equilibrium.performance, rate)
    m = agents.size
    dlam = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            if j != k:
                dlam[j, k] = (s + rate * response) * (2.0 * rate**2 * t[j] * t[k])
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


@pytest.mark.parametrize("p", [KAPPA_HALF, tp.PowerSuccess(2.0), tp.LinearCappedSuccess(1.5)],
                         ids=["linear", "power", "linear_at_cap"])
def test_share_derivative_arrays_match_the_elementwise_loops(p):
    rng = np.random.default_rng(3)
    for net in (asym_triangle(), figure_network(0.4), clique(4),
                *(random_symmetric_network(rng, 5) for _ in range(4))):
        opt = tp.optimize_quadratic_binary(net, p)
        if len(opt.active_set) < 2:
            continue
        ds = tp.dshare_dlink(net, p, opt)
        expected = _dshare_dlink_loops(net, p, opt)
        assert np.array_equal(ds, expected)


H = 1e-3  # link step of the re-optimization references


def _reoptimized_fd(net, p, j, k, h):
    """Central difference of re-optimized payments in the (j, k) weight at
    step ``h``, with the optima at -h and +h."""
    opts = [tp.optimize_quadratic_binary(net.with_edge(j, k, net.weights[j, k] + d), p) for d in (-h, h)]
    fd = (opts[1].contract.payments[:, 1] - opts[0].contract.payments[:, 1]) / (2 * h)
    return fd, opts


def _at_ceiling(p, opt):
    return opt.equilibrium.performance >= contract_opt._performance_ceiling(p) * (1.0 - 1e-9)


@pytest.mark.parametrize("weights, p, link", [
    # Optimum at the cap: the performance search, not the share cubic, sets the share.
    ([[0, 1.5], [1.5, 0]], tp.LinearCappedSuccess(0.9), (0, 1)),
    # The share cubic's bracket fails here and the search takes over (at the cap).
    ([[0, 1, 0.8], [1, 0, 2], [0.8, 2, 0]], tp.LinearCappedSuccess(0.9999999999999999), (1, 2)),
    # No share cubic: the interior optimum of the performance search.
    ([[0, 1, 0.8], [1, 0, 0.6], [0.8, 0.6, 0]], tp.PowerSuccess(2.0), (0, 1)),
], ids=["clique_at_cap", "knife_edge", "power_triangle"])
def test_share_derivative_matches_reoptimization_off_the_share_cubic(weights, p, link):
    net = tp.Network(np.array(weights, dtype=float))
    opt = tp.optimize_quadratic_binary(net, p)
    ds = tp.dshare_dlink(net, p, opt)[:, link[0], link[1]]
    fd, opts = _reoptimized_fd(net, p, *link, H)
    assert all(o.active_set == opt.active_set for o in opts)
    assert np.max(np.abs(ds - fd)) <= 1e-4 * np.max(np.abs(fd))


@settings(max_examples=40, deadline=None)
# A nearly singular active subnetwork: the plain central difference at H is
# 2e-3 off on link (1, 2) by truncation alone (2e-5 at H / 10).
@example(n=5, seed=95, p=tp.LinearCappedSuccess(0.5))
@given(n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1), p=st.one_of(
    st.floats(0.2, 0.9).map(tp.LinearCappedSuccess),  # optimum below the cap
    st.floats(1.5, 4.0).map(tp.LinearCappedSuccess),  # optimum at the cap
    st.floats(0.5, 4.0).map(tp.PowerSuccess),
    st.builds(tp.LogisticSuccess, st.floats(0.1, 0.3), st.floats(-0.1, 0.0)),
))
def test_share_derivative_matches_reoptimization_on_random_networks(n, seed, p):
    net = random_symmetric_network(np.random.default_rng(seed), n)
    opt = tp.optimize_quadratic_binary(net, p)
    assume(len(opt.active_set) >= 2)
    ds = tp.dshare_dlink(net, p, opt)
    tau = opt.contract.payments[:, 1]
    for j, k in itertools.combinations(opt.active_set, 2):
        fd_h, opts_h = _reoptimized_fd(net, p, j, k, H)
        fd_2h, opts_2h = _reoptimized_fd(net, p, j, k, 2 * H)
        # A step across a change of active set, or across the cap kink, has
        # no derivative to match.
        assume(all(o.active_set == opt.active_set for o in opts_h + opts_2h))
        assume(all(_at_ceiling(p, o) == _at_ceiling(p, opt) for o in opts_h + opts_2h))
        # Richardson extrapolation cancels the h^2 truncation term.
        fd = (4.0 * fd_h - fd_2h) / 3.0
        # The performance search ranks payoffs equal within rounding near
        # its maximum and resolves each payment only to about sqrt(eps) of
        # its size: fd carries noise of up to ~2e-5 max(tau) (measured); on
        # links whose derivative is small next to the payments, that term
        # dominates a bound relative to fd alone.
        assert np.max(np.abs(ds[:, j, k] - fd)) <= 1e-3 * np.max(np.abs(fd)) + 1e-4 * np.max(tau)


def test_own_link_derivative_initially_negative_in_figure_setup():
    net = figure_network(0.3)
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    ds = tp.dshare_dlink(net, KAPPA_HALF, opt)
    assert ds[1, 1, 2] < 0.0  # agent 2's own new link first lowers its pay


# ---------------------------------------------------------------------------
# link derivatives of performance
# ---------------------------------------------------------------------------


def test_performance_derivative_proportional_to_payment_products():
    net = asym_triangle()
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    dperf = tp.dperformance_dlink(KAPPA_HALF, opt)
    tau = opt.contract.payments[:, 1]
    assert dperf[0, 1] / dperf[0, 2] == pytest.approx(tau[1] / tau[2], rel=1e-8)
    assert np.allclose(dperf, dperf.T)
    assert np.all(np.diag(dperf) == 0.0)


def test_performance_derivative_zero_for_inactive_endpoint():
    net = figure_network(0.0)  # pendant-ish: active set is the (0, 1) edge
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    assert opt.active_set == (0, 1)
    dperf = tp.dperformance_dlink(KAPPA_HALF, opt)
    assert dperf[1, 2] == 0.0


def test_performance_derivative_matches_fixed_contract_fd():
    net = asym_triangle()
    opt = tp.optimize_quadratic_binary(net, KAPPA_HALF)
    tau = opt.contract.payments[:, 1]
    dperf = tp.dperformance_dlink(KAPPA_HALF, opt)
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
    # A negative link weight fails its own point in the equilibrium solve; the
    # points solved in the same chunk are the single-point optima bit for bit.
    grid = np.array([-0.5, 0.3, 0.6])
    curve = tp.sweep(figure_network(), KAPPA_HALF, "G23", grid)
    message = "network matrix must be symmetric and nonnegative"
    assert curve.errors == (message, None, None)
    with pytest.raises(tp.ModelError, match=message):
        tp.optimize_quadratic_binary(figure_network(-0.5), KAPPA_HALF)
    assert curve.active_sets[0] == ()
    for cells in (curve.payments[0], curve.agent_payoffs[0], curve.principal_payoffs[:1], curve.performance[:1]):
        assert np.isnan(cells).all()
    for row in (1, 2):
        opt = tp.optimize_quadratic_binary(figure_network(grid[row]), KAPPA_HALF)
        eq = opt.equilibrium
        tau = opt.contract.payments[:, 1]
        assert _bits(curve.payments[row]) == _bits(tau)
        assert _bits(curve.principal_payoffs[row]) == _bits(opt.principal_payoff)
        assert _bits(curve.performance[row]) == _bits(eq.performance)
        assert _bits(curve.agent_payoffs[row]) == _bits(eq.probs[1] * tau - 0.5 * eq.actions**2)
        assert curve.active_sets[row] == opt.active_set


def test_figure_sweep_ranks_and_solves_its_points_in_one_batch(monkeypatch):
    sizes, stacks = [], []
    balanced = contract_opt._balanced_candidates
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(contract_opt, "_balanced_candidates",
                        lambda gs, agents: sizes.append(agents.shape[1]) or balanced(gs, agents))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a.shape) or eigvalsh(a))
    curve = tp.sweep(figure_network(), KAPPA_HALF, "G23", cli._parse_grid("0:1:0.02"))
    assert curve.grid.size == 51 and not any(curve.errors)
    # One call per subset size class (pairs and the triple), one stacked eigvalsh.
    assert sorted(sizes) == [2, 3]
    assert stacks == [(51, 3, 3)]


def test_long_sweep_memory_is_bounded_by_its_chunk():
    # 1000 points solved at once peak at about 2.6 MB above what the curve
    # keeps; chunks of 113 points at about 0.4 MB.
    grid = np.linspace(0.0, 1.0, 1000)
    tracemalloc.start()
    try:
        curve = tp.sweep(figure_network(), KAPPA_HALF, "G23", grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(curve.errors)
    assert peak - kept <= 2**20


def test_sweep_csv_format():
    curve = tp.sweep(clique(2), KAPPA_HALF, "beta", np.array([0.5, 1.0]))
    text = tp.sweep_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "beta,payment_0,payment_1,principal_payoff,agent_payoff_0,agent_payoff_1,performance,active_set"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.5
    assert int(cells[-1]) == 0b11


def test_sweep_and_statics_grid_build_no_balance_report(monkeypatch, tmp_path, capsys):
    balance_reports = []
    report = contract_opt.compute_balance_report
    monkeypatch.setattr(contract_opt, "compute_balance_report",
                        lambda *args: balance_reports.append(args) or report(*args))
    curve = tp.sweep(figure_network(), KAPPA_HALF, "G23", cli._parse_grid("0:1:0.02"))
    assert curve.grid.size == 51 and not any(curve.errors)
    path = tmp_path / "figure.json"
    path.write_text(json.dumps({
        "n": 3,
        "production": {"type": "quadratic_network", "weights": figure_network().weights.tolist()},
        "outcomes": {"type": "binary_success", "success": {"type": "linear_capped", "slope": KAPPA_HALF.slope}},
        "utilities": {"type": "linear"},
        "costs": {"type": "power"},
    }))
    assert cli.run(["statics", str(path), "--param", "G23", "--grid", "0.2:0.6:0.2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["points"]) == 3
    assert balance_reports == []
    opt = tp.optimize_quadratic_binary(figure_network(0.6), KAPPA_HALF)
    assert len(balance_reports) == 1 and opt.max_balance_residual is not None


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1),
       parameter=st.sampled_from(["beta", "G12", "G13", "G23"]),
       grid=st.lists(st.floats(0.1, 1.2), min_size=1, max_size=3, unique=True).map(sorted),
       p=st.one_of(st.floats(0.2, 0.9).map(tp.LinearCappedSuccess), st.floats(1.5, 4.0).map(tp.LinearCappedSuccess),
                   st.floats(0.5, 4.0).map(tp.PowerSuccess)))
def test_sweep_rows_are_the_certified_optima_bit_for_bit(n, seed, parameter, grid, p):
    net = random_symmetric_network(np.random.default_rng(seed), n)
    curve = tp.sweep(net, p, parameter, grid)
    network_at = tp.statics.network_along(net, parameter)
    for row, value in enumerate(curve.grid):
        at = network_at(value)
        if curve.errors[row] is not None:
            with pytest.raises(Exception) as exc:
                tp.optimize_quadratic_binary(at, p)
            assert str(exc.value) == curve.errors[row]
            continue
        opt = tp.optimize_quadratic_binary(at, p)
        tau = opt.contract.payments[:, 1]
        eq = opt.equilibrium
        assert _bits(curve.payments[row]) == _bits(tau)
        assert _bits(curve.principal_payoffs[row]) == _bits(opt.principal_payoff)
        assert _bits(curve.performance[row]) == _bits(eq.performance)
        assert _bits(curve.agent_payoffs[row]) == _bits(eq.probs[1] * tau - 0.5 * eq.actions**2)
        assert curve.active_sets[row] == opt.active_set
        problem = contract_opt.quadratic_binary_problem(at, p)
        residual = contract_opt._balance_residual_or_none(problem, opt.contract, eq)
        assert repr(opt.max_balance_residual) == repr(residual)


def test_parse_parameter_forms():
    net3, net12 = clique(3), clique(12)
    scaled = tp.statics.network_along(net3, "beta")(0.5)
    assert scaled.scale == 0.5 and np.array_equal(scaled.weights, net3.weights)

    def changed_links(net, parameter):
        moved = tp.statics.network_along(net, parameter)(0.25).weights != net.weights
        return np.argwhere(moved).tolist()

    assert changed_links(net3, "G23") == [[1, 2], [2, 1]]
    assert changed_links(net12, "G1_12") == [[0, 11], [11, 0]]
    with pytest.raises(tp.StaticsError):
        tp.statics.network_along(net3, "G44")
