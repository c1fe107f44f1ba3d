import numpy as np
import pytest
import scipy.sparse as sp
from scipy import linalg, stats

import netar as na
from netar import rng
from netar.dgp import (CopulaSpec, SimConfig, copula_poisson_draw,
                       draw_copula_uniform, simulate_count, simulate_gaussian,
                       stationary_init_linear_gaussian)
from netar.model import ModelSpec
from netar.netgraph import Network


def _self_graph(n):
    # W = I is impossible through row_normalize (self-loops); used only to
    # exercise the Lyapunov solver against the scalar AR(1) closed form
    eye = sp.identity(n, format="csr")
    return Network(n=n, edges=np.column_stack([np.arange(n), np.arange(n)]),
                   out_degree=np.ones(n, dtype=np.int64), w=eye)


# stationary initialization ------------------------------------------------------

def test_stationary_mean_closed_form(small_net):
    mu, _ = stationary_init_linear_gaussian((1.5, 0.4, 0.5), small_net, 1.0)
    assert np.allclose(mu, 15.0)


def test_stationary_cov_self_graph_matches_scalar_ar1():
    net = _self_graph(4)
    _, cov = stationary_init_linear_gaussian((1.0, 0.4, 0.5), net, 1.0)
    assert np.allclose(cov, np.eye(4) / (1 - 0.9 ** 2), atol=1e-8)
    assert cov[0, 0] == pytest.approx(5.2632, abs=1e-3)


def test_stationary_cov_solves_lyapunov_equation(small_net):
    b0, b1, b2 = 1.5, 0.4, 0.5
    _, cov = stationary_init_linear_gaussian((b0, b1, b2), small_net, 1.0)
    g = b1 * small_net.w.toarray() + b2 * np.eye(small_net.n)
    resid = cov - g @ cov @ g.T - np.eye(small_net.n)
    assert np.max(np.abs(resid)) < 1e-9


def test_stationary_rejects_unstable_coefficients(small_net):
    with pytest.raises(ValueError):
        stationary_init_linear_gaussian((1.0, 0.6, 0.5), small_net, 1.0)


def _hub_graph(n):
    # every node i >= 1 points to node 0 and to i+1, so column 0 of W sums
    # to about n/2 and G = b1*W + b2*I is far from normal
    edges = [(0, 1)] + [(i, 0) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]
    return na.row_normalize(edges, n)


@pytest.mark.parametrize("case", ["near-unit-root", "hub"])
def test_stationary_cov_matches_scipy_lyapunov(case):
    if case == "near-unit-root":
        net, (b1, b2) = na.gen_sbm(200, 5, seed=3), (0.49, 0.5)
    else:
        net, (b1, b2) = _hub_graph(60), (0.6, 0.3)
        assert net.w.sum(axis=0).max() > 20
    _, cov = stationary_init_linear_gaussian((1.0, b1, b2), net, 1.0)
    g = b1 * net.w.toarray() + b2 * np.eye(net.n)
    ref = linalg.solve_discrete_lyapunov(g, np.eye(net.n))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(cov - ref)) / scale < 1e-8
    assert np.max(np.abs(cov - g @ cov @ g.T - np.eye(net.n))) / scale < 1e-9


def test_stationary_zero_sigma_gives_zero_cov():
    net = _hub_graph(60)
    spec = ModelSpec.linear((1.0, 0.6, 0.3), "cont")
    _, cov = stationary_init_linear_gaussian(spec.beta, net, 0.0)
    assert not np.any(cov)
    panel = simulate_gaussian(spec, net, SimConfig(T=5, seed=0, sigma=0.0, init="stationary"))
    assert np.allclose(panel.values, 10.0, atol=1e-10)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_nonfinite_sigma_rejected(small_net, sigma):
    with pytest.raises(ValueError, match="sigma must be finite"):
        SimConfig(T=10, sigma=sigma)
    with pytest.raises(ValueError, match="sigma must be finite"):
        stationary_init_linear_gaussian((1.5, 0.4, 0.5), small_net, sigma)


# Y_1 and Y_2 of the seed-7 stationary-start panel, recorded with the earlier
# fixed-point Lyapunov solver: a change to the stream of stationary starts
# (the draw mu + chol @ xi) shows here
_PINNED_STATIONARY_PANEL = np.array([
    [13.291673347276204, 16.511413320983735, 14.457709495505, 13.503043392253607,
     14.653118493660978, 13.922346561581989, 13.315658927372409, 15.3540523571886,
     14.591188721136385, 15.654961117264723, 16.99259979068247, 14.152323565981476,
     12.77032030538295, 15.005767334737321, 15.067755794786905, 16.021202711000605,
     14.145368913705026, 14.941952973606258, 15.90808144831802, 16.58813010759928,
     14.275065333684228, 14.213717256698267, 13.924668224314217, 15.927992239199481,
     14.981384446285823, 14.19925580574427, 12.460389791406264, 14.72861156955034,
     13.161530331898167, 15.162556239109103],
    [13.662352462485268, 15.501812192099438, 15.353210723433667, 15.050341757661254,
     13.948562312369543, 15.287367917527067, 11.632010499390146, 14.30917542128289,
     16.09663209809799, 16.108374646849374, 14.978862564121581, 15.124291190027964,
     13.570029890921832, 14.50117578562533, 16.475034085754384, 16.858960685782435,
     14.953292808829719, 15.095949914071774, 15.941615171735046, 17.167770492565126,
     15.83513167865152, 13.89870675176183, 14.503957157936348, 14.518107238914114,
     15.588694222836745, 15.833418746849034, 13.136281199831215, 13.506962182937087,
     12.64169844342799, 13.566968595679832]]).T


def test_stationary_start_stream_is_pinned(small_net):
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    panel = simulate_gaussian(spec, small_net, SimConfig(T=200, seed=7, init="stationary"))
    np.testing.assert_allclose(panel.values[:, :2], _PINNED_STATIONARY_PANEL, rtol=1e-8)


# gaussian simulation ------------------------------------------------------------

def test_zero_noise_keeps_process_at_fixed_point(small_net):
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    cfg = SimConfig(T=20, seed=1, sigma=0.0, init=np.full(small_net.n, 15.0))
    panel = simulate_gaussian(spec, small_net, cfg)
    assert np.allclose(panel.values, 15.0, atol=1e-10)


def test_gaussian_simulation_deterministic(small_net):
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    a = simulate_gaussian(spec, small_net, SimConfig(T=50, seed=3))
    b = simulate_gaussian(spec, small_net, SimConfig(T=50, seed=3))
    c = simulate_gaussian(spec, small_net, SimConfig(T=50, seed=4))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_gaussian_grand_mean_near_stationary_level(small_net):
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    panel = simulate_gaussian(spec, small_net, SimConfig(T=4000, seed=11))
    col_means = panel.values.mean(axis=0)
    blocks = col_means.reshape(40, 100).mean(axis=1)
    se = blocks.std(ddof=1) / np.sqrt(blocks.size)
    assert abs(panel.values.mean() - 15.0) < 3 * se


def test_stationary_init_rejected_for_nonlinear(small_net):
    spec = ModelSpec.stnar((1.0, 0.3, 0.2), 0.3, 0.5, "cont")
    with pytest.raises(ValueError):
        simulate_gaussian(spec, small_net, SimConfig(T=10, seed=0, init="stationary"))
    # but the embedded-linear draw works for any family
    panel = simulate_gaussian(
        spec, small_net, SimConfig(T=10, seed=0, burn_in=0, init="linear-stationary"))
    assert panel.t == 10


def test_burn_in_discards_transient(small_net):
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    cfg = SimConfig(T=30, burn_in=200, seed=5, init="zero")
    panel = simulate_gaussian(spec, small_net, cfg)
    assert abs(panel.values[:, 0].mean() - 15.0) < 2.0


def test_distinct_seeds_give_uncorrelated_panels(small_net):
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    a = simulate_gaussian(spec, small_net, SimConfig(T=400, seed=21)).values.ravel()
    b = simulate_gaussian(spec, small_net, SimConfig(T=400, seed=22)).values.ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(a.size)


# copula draws -------------------------------------------------------------------

def test_identity_copula_uniform_marginals_and_zero_correlation():
    gen = rng.stream(8)
    u = draw_copula_uniform(CopulaSpec("identity"), 4, gen, rows=100_000)
    for j in range(4):
        assert stats.kstest(u[:, j], "uniform").pvalue > 0.001
    z = rng.ndtri(u)
    corr = np.corrcoef(z.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 3.0 / np.sqrt(100_000)


def test_ar1_copula_correlations():
    gen = rng.stream(9)
    u = draw_copula_uniform(CopulaSpec("ar1", 0.5), 3, gen, rows=100_000)
    z = rng.ndtri(u)
    corr = np.corrcoef(z.T)
    se = 3.0 / np.sqrt(100_000)
    assert abs(corr[0, 1] - 0.5) < 3 * se
    assert abs(corr[0, 2] - 0.25) < 3 * se


def test_zero_rho_equals_identity_stream():
    a = draw_copula_uniform(CopulaSpec("ar1", 0.0), 5, rng.stream(10), rows=7)
    b = draw_copula_uniform(CopulaSpec("identity"), 5, rng.stream(10), rows=7)
    assert np.array_equal(a, b)


def test_exchangeable_requires_positive_definite_rho():
    cop = CopulaSpec("exch", -0.5)
    with pytest.raises(ValueError):
        draw_copula_uniform(cop, 4, rng.stream(1), rows=2)


# copula-Poisson draws -----------------------------------------------------------

def test_zero_intensity_returns_zero_counts():
    y = copula_poisson_draw(np.zeros(5), CopulaSpec("identity"), rng.stream(2))
    assert np.array_equal(y, np.zeros(5, dtype=np.int64))


def test_marginals_are_exactly_poisson():
    gen = rng.stream(3)
    cop = CopulaSpec("identity")
    lam = np.full(4, 2.0)
    draws = np.array([copula_poisson_draw(lam, cop, gen) for _ in range(25_000)])
    flat = draws.ravel()  # marginals identical across components
    n = flat.size
    assert abs(flat.mean() - 2.0) < 3 * np.sqrt(2.0 / n)
    assert abs(flat.var() - 2.0) < 3 * np.sqrt(2 * 2.0 ** 2 / n) + 0.05
    kmax = int(flat.max())
    observed = np.bincount(flat.astype(int), minlength=kmax + 1)
    expected = n * stats.poisson(2.0).pmf(np.arange(kmax + 1))
    tail = expected < 5
    if tail.any():
        cut = np.argmax(tail)
        observed = np.concatenate([observed[:cut], [observed[cut:].sum()]])
        expected = np.concatenate([expected[:cut], [expected[cut:].sum()]])
    gof = stats.chisquare(observed, expected * observed.sum() / expected.sum())
    assert gof.pvalue > 0.01


def test_ar1_copula_induces_positive_count_correlation():
    gen = rng.stream(4)
    cop = CopulaSpec("ar1", 0.5)
    lam = np.array([3.0, 3.0])
    draws = np.array([copula_poisson_draw(lam, cop, gen) for _ in range(20_000)])
    se = np.sqrt(3.0 / draws.shape[0])
    assert abs(draws[:, 0].mean() - 3.0) < 3 * se
    assert abs(draws[:, 1].mean() - 3.0) < 3 * se
    corr = np.corrcoef(draws.T)[0, 1]
    assert corr > 3.0 / np.sqrt(draws.shape[0])
    # marginals stay exactly Poisson under a correlated copula
    flat = draws[:, 0]
    kmax = int(flat.max())
    observed = np.bincount(flat.astype(int), minlength=kmax + 1)
    expected = flat.size * stats.poisson(3.0).pmf(np.arange(kmax + 1))
    cut = np.argmax(expected < 5) or expected.size
    observed = np.concatenate([observed[:cut], [observed[cut:].sum()]])
    expected = np.concatenate([expected[:cut], [expected[cut:].sum()]])
    gof = stats.chisquare(observed, expected * observed.sum() / expected.sum())
    assert gof.pvalue > 0.01


def test_monotone_coupling_on_shared_stream():
    # raising a below-max coordinate keeps the event schedule identical,
    # so counts can only grow
    cop = CopulaSpec("ar1", 0.3)
    lam_lo = np.array([1.0, 2.0, 5.0])
    lam_hi = np.array([2.5, 4.0, 5.0])
    for s in range(30):
        y_lo = copula_poisson_draw(lam_lo, cop, rng.stream(77, s))
        y_hi = copula_poisson_draw(lam_hi, cop, rng.stream(77, s))
        assert np.all(y_hi >= y_lo)


def test_rejects_bad_intensities():
    with pytest.raises(ValueError):
        copula_poisson_draw(np.array([1.0, -0.5]), CopulaSpec("identity"), rng.stream(0))
    with pytest.raises(ValueError):
        copula_poisson_draw(np.array([np.inf]), CopulaSpec("identity"), rng.stream(0))


# count simulation ---------------------------------------------------------------

def test_count_simulation_deterministic(small_net):
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    cop = CopulaSpec("ar1", 0.5)
    a = simulate_count(spec, small_net, cop, SimConfig(T=60, seed=6))
    b = simulate_count(spec, small_net, cop, SimConfig(T=60, seed=6))
    assert np.array_equal(a.values, b.values)
    assert a.is_count()


def test_count_long_run_mean(small_net):
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    panel = simulate_count(spec, small_net, CopulaSpec("identity"),
                           SimConfig(T=4000, seed=8))
    col_means = panel.values.mean(axis=0)
    blocks = col_means.reshape(40, 100).mean(axis=1)
    se = blocks.std(ddof=1) / np.sqrt(blocks.size)
    assert abs(panel.values.mean() - 2.0) < 3 * se


def test_zero_intensity_linear_chain_stays_zero(small_net):
    # b0 = 0 test process: zero start propagates zeros exactly
    spec = ModelSpec.linear((0.0, 0.3, 0.2), "count")
    panel = simulate_count(spec, small_net, CopulaSpec("identity"),
                           SimConfig(T=1, burn_in=0, seed=1, init="zero"))
    assert np.array_equal(panel.values, np.zeros((small_net.n, 1)))


def test_unstable_count_parameters_warn(small_net):
    spec = ModelSpec.linear((1.0, 0.6, 0.5), "count")
    with pytest.warns(UserWarning, match="stability"):
        simulate_count(spec, small_net, CopulaSpec("identity"),
                       SimConfig(T=5, burn_in=0, seed=1))
