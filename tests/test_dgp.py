import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import linalg, stats
from scipy.sparse import _sparsetools
from scipy.special import ndtr, ndtri

import netar as na
from netar import rng
from netar.dgp import (_EVENT_BLOCK, CopulaSpec, SimConfig, _affine_map, _apply_copula_factor,
                       _EventRows, _neighbour_average, _warmup_steps, copula_poisson_draw,
                       draw_copula_uniform, simulate_count, simulate_gaussian,
                       stationary_init_linear_gaussian)
from netar.model import ModelSpec, cond_mean, mean_elementwise
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


def _zero_out_degree_graph():
    # 0 -> 1 -> 2 -> 0 and 0 -> 3; node 3 has no out-neighbours
    with pytest.warns(UserWarning, match="zero out-degree"):
        net = na.row_normalize(np.array([[0, 1], [1, 2], [2, 0], [0, 3]]), 4)
    b0, b1, b2 = 1.5, 0.4, 0.5
    exact = b0 * np.linalg.solve(np.eye(4) - b1 * net.w.toarray() - b2 * np.eye(4), np.ones(4))
    np.testing.assert_allclose(exact, [8.548387, 10.870968, 9.838710, 3.0], atol=1e-6)
    return net, (b0, b1, b2), exact


@pytest.mark.xfail(strict=True, reason="the mean b0/(1-b1-b2) ignores zero-out-degree "
                                       "nodes, whose X is 0, and their in-neighbours")
def test_stationary_mean_with_zero_out_degree_node():
    net, beta, exact = _zero_out_degree_graph()
    mu, _ = stationary_init_linear_gaussian(beta, net, 1.0)
    np.testing.assert_allclose(mu, exact, rtol=1e-12)


def test_sampler_stationary_mean_with_zero_out_degree_node():
    # the warm-up runs the recursion itself, so it reaches b0 (I - G)^-1 1
    # wherever its constant start b0/(1-b1-b2) is off
    net, beta, exact = _zero_out_degree_graph()
    spec = ModelSpec.linear(beta, "cont")
    panel = simulate_gaussian(spec, net, SimConfig(T=3, seed=0, sigma=0.0, init="stationary"))
    np.testing.assert_allclose(panel.values[:, 0], exact, rtol=0, atol=1e-4)


@pytest.mark.parametrize("b1, b2", [(0.4, 0.5), (0.49, 0.5), (-0.3, 0.6), (0.05, 0.0),
                                    (0.0, -0.7), (0.5, 0.4999)])
def test_warmup_steps_meet_the_tail_bound(b1, b2):
    # the terms j >= K of the stationary series sum to at most
    # rho^(2K) / (1 - rho^2) per unit noise variance
    rho = abs(b1) + abs(b2)
    k = _warmup_steps(b1, b2)
    assert rho ** (2 * k) / (1 - rho * rho) <= 1e-10 < rho ** (2 * k - 2) / (1 - rho * rho)


def test_warmup_steps_edge_cases():
    assert _warmup_steps(0.4, 0.5) == 118
    assert _warmup_steps(0.0, 0.0) == 1
    with pytest.raises(ValueError, match=r"\|b1\|\+\|b2\| < 1"):
        _warmup_steps(0.6, -0.4)


def test_stationary_start_has_the_stationary_law():
    # Y_1 of 2000 seeds on the complete 3-node graph, rho = 0.9.  Each node's
    # draws and the draws of Y_1[0] + Y_1[1] (which pins the covariance of
    # nodes 0 and 1 given their variances) are i.i.d. normal, so
    # (S-1) s^2 / var is exactly chi2(S-1).  Each of the four bands leaves
    # 2.5e-5 outside it, 1e-4 in all.  With K cut to 5 the sum's variance is
    # 26% low and the test fails with probability 1 - 1.2e-7.
    net = na.row_normalize([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)], 3)
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    reps = 2000
    first = np.array([simulate_gaussian(spec, net, SimConfig(T=1, seed=s, init="stationary"))
                      .values[:, 0] for s in range(reps)])
    _, cov = stationary_init_linear_gaussian(spec.beta, net, 1.0)
    combos = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 0]])
    lo, hi = stats.chi2.ppf([1.25e-5, 1 - 1.25e-5], reps - 1) / (reps - 1)
    for c in combos:
        ratio = np.var(first @ c, ddof=1) / (c @ cov @ c)
        assert lo <= ratio <= hi, (c, ratio, lo, hi)


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


# Y_1 and Y_2 of the seed-7 stationary-start panel, recorded when the noise
# came to be drawn by Generator.standard_normal: a change to the stream of
# stationary starts (the noise of the K + T steps) shows here
_PINNED_STATIONARY_PANEL = np.array([
    [15.456556611016591, 12.212556058687657, 16.715291226693843, 14.29126625745721,
     15.537044895890846, 15.66464558871357, 12.257625604646307, 15.593088128010521,
     16.52329812987888, 16.07564602990481, 14.631413215458924, 16.145748647717735,
     12.9636855811789, 13.68073554474873, 15.869148215369089, 17.85857392201475,
     14.219765984393758, 17.40085618888645, 14.776383037109133, 14.422309173112863,
     16.83826586206384, 14.730034890334938, 13.859487318429872, 16.5885204374732,
     14.632640040086756, 13.618895537102254, 14.28321883985782, 12.98784866390899,
     11.763877052424855, 16.922305514326098],
    [15.214166936319375, 11.83247449106277, 15.962607499454947, 14.405224231200094,
     13.612392662140381, 15.525847401663551, 13.833371144078448, 16.043968625741705,
     15.59477251866798, 16.410326825572724, 16.9133843969341, 16.875294144501204,
     13.98122531099444, 14.17336234196811, 14.181210285873593, 14.58109014746869,
     15.512551061569294, 14.703588238700801, 13.890593899145776, 14.15507729033757,
     15.896615625884804, 15.98598988194839, 13.541053215838586, 16.417670518347546,
     14.246205791691356, 14.450210216749669, 13.890761259152775, 13.659203760055103,
     13.405743190753112, 14.405218732777023]]).T


def test_stationary_start_stream_is_pinned(small_net):
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    panel = simulate_gaussian(spec, small_net, SimConfig(T=200, seed=7, init="stationary"))
    np.testing.assert_allclose(panel.values[:, :2], _PINNED_STATIONARY_PANEL, rtol=1e-8)


def test_near_unit_root_start_draws_noise_in_blocks():
    # rho = 0.999 needs about 14 600 warm-up steps: one (K+T) x N noise
    # matrix would hold 11.8 MB, a block of 1024 steps 0.8 MB
    net = na.gen_sbm(100, 5, seed=3)
    spec = ModelSpec.linear((1.0, 0.5, 0.499), "cont")
    tracemalloc.start()
    try:
        panel = simulate_gaussian(spec, net, SimConfig(T=100, seed=7, init="stationary"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    # reference: the noise of all steps as one matrix draw.  The steps sum
    # b0 + noise + G y, the reference b0 + b1 W y + b2 y + noise; after
    # 14 714 steps the last differs by 7.7e-16 relative, while a block of
    # noise read out of order moves cells by O(1)
    warm = _warmup_steps(0.5, 0.499)
    noise = rng.stream(7, 0x51).standard_normal((warm + 100, net.n))
    y = np.full(net.n, 1.0 / (1.0 - 0.5 - 0.499))
    for t in range(warm + 100):
        y = na.cond_mean(spec, net, y) + noise[t]
    np.testing.assert_allclose(panel.values[:, -1], y, rtol=1e-13)


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


def test_linear_stationary_start_then_burn_in_follows_the_reference_recursion(small_net):
    # K warm-up steps of the embedded linear mean, then burn-in and sample
    # steps of the stnar mean, all on one noise stream
    spec = ModelSpec.stnar((1.0, 0.3, 0.2), 0.3, 0.5, "cont")
    linear = ModelSpec.linear(spec.beta, "cont")
    warm, burn, t = _warmup_steps(0.3, 0.2), 15, 20
    noise = rng.stream(9, 0x51).standard_normal((warm + burn + t, small_net.n))
    y = np.full(small_net.n, 1.0 / (1.0 - 0.3 - 0.2))
    steps = []
    for k, xi in enumerate(noise):
        y = na.cond_mean(linear if k < warm else spec, small_net, y) + xi
        steps.append(y)
    panel = simulate_gaussian(spec, small_net, SimConfig(
        T=t, burn_in=burn, seed=9, init="linear-stationary"))
    assert np.array_equal(panel.values, np.array(steps[warm + burn:]).T)


@pytest.mark.parametrize("vector, match", [
    (False, "init scalar is not finite: nan"),
    (True, "init vector at node 3 is not finite: inf"),
])
@pytest.mark.parametrize("domain", ["cont", "count"])
def test_non_finite_fixed_start_rejected(small_net, vector, match, domain):
    init = np.where(np.arange(small_net.n) == 3, np.inf, 1.0) if vector else np.nan
    cfg = SimConfig(T=5, burn_in=0, seed=0, init=init)
    with pytest.raises(ValueError, match=match):
        if domain == "cont":
            simulate_gaussian(ModelSpec.linear((1.0, 0.3, 0.2), "cont"), small_net, cfg)
        else:
            simulate_count(ModelSpec.linear((1.0, 0.3, 0.2)), small_net,
                           CopulaSpec("identity"), cfg)


def test_burn_in_discards_transient(small_net):
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    cfg = SimConfig(T=30, burn_in=200, seed=5, init=0.0)
    panel = simulate_gaussian(spec, small_net, cfg)
    assert abs(panel.values[:, 0].mean() - 15.0) < 2.0


def test_distinct_seeds_give_uncorrelated_panels(small_net):
    # the levels are autocorrelated in time and across nodes, but the
    # innovations y_t - (b0 + b1 W y_{t-1} + b2 y_{t-1}) are i.i.d. N(0, 1)
    # cells; for two independent streams their correlation is then about
    # N(0, 1/n), so the 3/sqrt(n) bound fails with probability 0.27%
    def innovations(seed):
        y = simulate_gaussian(spec, small_net, SimConfig(T=400, seed=seed)).values
        return (y[:, 1:] - (1.5 + 0.4 * (small_net.w @ y[:, :-1]) + 0.5 * y[:, :-1])).ravel()

    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    a, b = innovations(21), innovations(22)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(a.size)


# copula draws -------------------------------------------------------------------

def test_identity_copula_uniform_marginals_and_zero_correlation():
    gen = rng.stream(8)
    u = draw_copula_uniform(CopulaSpec("identity"), 4, gen, rows=100_000)
    for j in range(4):
        assert stats.kstest(u[:, j], "uniform").pvalue > 0.001
    # under independence sqrt(n) times the six pairwise correlations are
    # asymptotically independent N(0, 1), so n * sum corr^2 is chi-square with
    # 6 degrees of freedom.  Its 0.5% bound (18.55) and the four KS tests at
    # 0.1% each fail a correct sampler with probability at most 0.9% in all.
    # An exchangeable copula with rho = 0.02 puts the statistic near
    # 6 n rho^2 = 240
    corr = np.corrcoef(ndtri(u).T)[np.triu_indices(4, 1)]
    assert 100_000 * np.sum(corr ** 2) < stats.chi2.isf(0.005, 6)


def test_ar1_copula_correlations():
    gen = rng.stream(9)
    u = draw_copula_uniform(CopulaSpec("ar1", 0.5), 3, gen, rows=100_000)
    z = ndtri(u)
    corr = np.corrcoef(z.T)
    se = 3.0 / np.sqrt(100_000)
    assert abs(corr[0, 1] - 0.5) < 3 * se
    assert abs(corr[0, 2] - 0.25) < 3 * se


def test_zero_rho_equals_identity_stream():
    a = draw_copula_uniform(CopulaSpec("ar1", 0.0), 5, rng.stream(10), rows=7)
    b = draw_copula_uniform(CopulaSpec("identity"), 5, rng.stream(10), rows=7)
    assert np.array_equal(a, b)


def test_exchangeable_requires_positive_definite_rho():
    # rho = -1/(n-1) makes R singular; at n = 1 every rho in (-1, 1) is valid
    for rho in (-0.5, -1.0 / 3.0):
        with pytest.raises(ValueError, match=re.escape(
                f"exchangeable rho={rho} is not positive definite for n=4")):
            draw_copula_uniform(CopulaSpec("exch", rho), 4, rng.stream(1), rows=2)
    u = draw_copula_uniform(CopulaSpec("exch", -0.5), 1, rng.stream(1), rows=2)
    assert u.shape == (2, 1) and np.all((u > 0) & (u < 1))


def _dense_copula_factor(structure, rho, n):
    idx = np.arange(n)
    lag = np.abs(idx[:, None] - idx[None, :])
    r = rho ** lag if structure == "ar1" else np.where(lag == 0, 1.0, rho)
    return np.linalg.cholesky(r)


def _copula_cases():
    for n in (1, 2, 3, 200, 2000):
        yield n, "identity", 0.0
        for rho in (0.5, -0.3, 0.95, -0.95):
            yield n, "ar1", rho
        for rho in (0.3, 0.9) + ((-0.8 / (n - 1),) if n > 1 else ()):
            yield n, "exch", rho


@pytest.mark.parametrize("n, structure, rho", list(_copula_cases()))
def test_copula_factor_matches_the_dense_cholesky_factor(n, structure, rho):
    cop = CopulaSpec(structure, rho)
    chol = _dense_copula_factor(structure, rho, n)
    for rows in (None, 16):
        shape = n if rows is None else (rows, n)
        e = rng.stream(12, n).standard_normal(shape)
        if not cop.is_independent:
            assert np.max(np.abs(_apply_copula_factor(cop, e.copy()) - e @ chol.T)) <= 1e-13
        u = draw_copula_uniform(cop, n, rng.stream(12, n), rows=rows)
        assert u.shape == e.shape
        assert np.max(np.abs(u - ndtr(e @ chol.T))) <= 1e-13


def test_ar1_copula_factor_near_unit_rho_matches_long_double_recurrence():
    # at rho = 0.999 the dense factor itself is about 1.5e-12 off, so the
    # reference is the recurrence z_i = rho z_{i-1} + sqrt(1-rho^2) e_i
    rho, n = 0.999, 2000
    e = rng.stream(13).standard_normal((4, n))
    r = np.longdouble(rho)
    s = np.sqrt(1 - r * r)
    ref = np.empty(e.shape, dtype=np.longdouble)
    ref[:, 0] = e[:, 0]
    for i in range(1, n):
        ref[:, i] = r * ref[:, i - 1] + s * e[:, i]
    z = _apply_copula_factor(CopulaSpec("ar1", rho), e.copy())
    assert np.max(np.abs(z - ref)) <= 1e-13


# copula-Poisson draws -----------------------------------------------------------

def _poisson_gof_pvalue(draws, lam):
    """Chi-square p-value of i.i.d. draws against Poisson(lam), the cells below
    and above those with expected count >= 5 pooled into the two end cells."""
    draws = np.asarray(draws).astype(np.int64)
    law = stats.poisson(lam)
    k = np.arange(int(draws.max()) + 1)
    inner = np.flatnonzero(draws.size * law.pmf(k) >= 5)
    lo, hi = inner[0], inner[-1]
    counts = np.bincount(draws, minlength=k.size)
    observed = np.concatenate([[counts[:lo + 1].sum()], counts[lo + 1:hi],
                               [counts[hi:].sum()]])
    prob = np.concatenate([[law.cdf(lo)], law.pmf(k[lo + 1:hi]), [law.sf(hi - 1)]])
    return stats.chisquare(observed, draws.size * prob).pvalue


def test_zero_intensity_returns_zero_counts():
    for cop in (CopulaSpec("identity"), CopulaSpec("ar1", 0.5)):
        y = copula_poisson_draw(np.zeros(5), cop, rng.stream(2))
        assert y.dtype == np.int64 and np.array_equal(y, np.zeros(5))


def test_marginals_are_exactly_poisson():
    # the waiting-time construction under a dependent copula.  The nodes of one
    # draw are dependent, so the grand mean's se comes from the row sums (false
    # alarm 0.27%) and each node's GOF is tested alone at p > 0.01/4 (false
    # alarm at most 1% over the 4 nodes)
    gen = rng.stream(3)
    cop = CopulaSpec("exch", 0.3)
    lam = np.full(4, 2.0)
    draws = np.array([copula_poisson_draw(lam, cop, gen) for _ in range(25_000)])
    se = draws.sum(axis=1).std(ddof=1) / (4 * np.sqrt(draws.shape[0]))
    assert abs(draws.mean() - 2.0) < 3 * se
    assert abs(draws.var() - 2.0) < 3 * np.sqrt(2 * 2.0 ** 2 / draws.size) + 0.05
    for node in draws.T:
        assert _poisson_gof_pvalue(node, 2.0) > 0.01 / 4


@pytest.mark.parametrize("lam", [2.0, 15.0])
def test_independent_copula_draw_is_exactly_poisson(lam):
    # one direct draw of 1e5 independent nodes; lam = 15 takes numpy's sampler
    # for lam >= 10.  False alarm 1% at p > 0.01
    y = copula_poisson_draw(np.full(100_000, lam), CopulaSpec("identity"), rng.stream(5))
    assert y.dtype == np.int64
    assert _poisson_gof_pvalue(y, lam) > 0.01


def _refuse_copula_uniforms(*args, **kwargs):
    raise AssertionError("draw_copula_uniform was called")


def test_intensity_beyond_the_poisson_sampler_limit_is_explosive(monkeypatch):
    # numpy's Poisson sampler takes lam up to about 9.2e18.  The waiting-time
    # path would double its event chunks until memory runs out, so it must not run
    monkeypatch.setattr("netar.dgp.draw_copula_uniform", _refuse_copula_uniforms)
    with pytest.raises(RuntimeError, match="intensities look explosive"):
        copula_poisson_draw(np.array([1.0, 1e19]), CopulaSpec("identity"), rng.stream(0))


def test_explosive_or_oversized_dependent_draw_fails_before_drawing(monkeypatch):
    # at lam = 1e19 the lam-sized first chunk alone passes the event-row cap; lam =
    # 1e5 at 1000 nodes needs about 1e8 event cells, over the element budget
    monkeypatch.setattr("netar.dgp.draw_copula_uniform", _refuse_copula_uniforms)
    for lam in (np.array([1.0, 1e19]), np.full(1000, 1e5)):
        for cop in (CopulaSpec("ar1", 0.5), CopulaSpec("exch", 0.3)):
            with pytest.raises(RuntimeError, match="intensities look explosive"):
                copula_poisson_draw(lam, cop, rng.stream(0))


def _long_draw_counts(lam, cop, gen, rows):
    """Counts from one draw of ``rows`` event rows, which must cover every node."""
    s = np.cumsum(-np.log(draw_copula_uniform(cop, lam.size, gen, rows=rows)), axis=0)
    assert np.all(s[-1] > lam)
    return (s <= lam).sum(axis=0)


@pytest.mark.parametrize("structure, rho", [("ar1", 0.5), ("ar1", -0.7),
                                            ("exch", 0.3), ("exch", -0.0004)])
def test_dependent_draw_equals_one_long_draw(structure, rho, monkeypatch):
    # the chunked draw with its per-node stopping rule counts the same events
    # as one long draw from the same stream state.  2000 nodes at lam = 40
    # outrun the 61-row first chunk with probability 0.91, so second chunks run too
    cop = CopulaSpec(structure, rho)
    chunks = []

    def recorded(cop, n, gen, rows=None):
        chunks.append(rows)
        return draw_copula_uniform(cop, n, gen, rows)

    monkeypatch.setattr("netar.dgp.draw_copula_uniform", recorded)
    for n in (1, 2, 5, 200, 2000):
        for s in range(6):
            lam = rng.stream(31, n, s).gamma(2.0, 1.5, n)
            lam[0] = (0.0, 0.3, 40.0)[s % 3]
            if s >= 4:
                lam[:] = 40.0
            y = copula_poisson_draw(lam, cop, rng.stream(32, n, s))
            ref = _long_draw_counts(lam, cop, rng.stream(32, n, s), rows=int(lam.max()) + 200)
            assert np.array_equal(y, ref)
    assert 122 in chunks  # a second chunk after the first 61 rows


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
    assert _poisson_gof_pvalue(draws[:, 0], 3.0) > 0.01


def test_monotone_coupling_on_shared_stream():
    # two draws from one stream state read the same event rows, whatever
    # chunks each takes, so raising any coordinate, the maximum too, can
    # only raise counts
    lam_lo = np.array([1.0, 2.0, 5.0])
    for cop in (CopulaSpec("ar1", 0.3), CopulaSpec("exch", 0.3)):
        for lam_hi in (np.array([2.5, 4.0, 5.0]), np.array([1.0, 2.0, 30.0]),
                       np.array([3.0, 2.5, 12.0])):
            for s in range(30):
                y_lo = copula_poisson_draw(lam_lo, cop, rng.stream(77, s))
                y_hi = copula_poisson_draw(lam_hi, cop, rng.stream(77, s))
                assert np.all(y_hi >= y_lo)


def test_rejects_bad_intensities():
    # -inf and negative values pass a check of the maximum alone; each bad
    # value is tried at every node
    for cop in (CopulaSpec("identity"), CopulaSpec("ar1", 0.5)):
        for bad in (np.nan, np.inf, -np.inf, -1.0, -0.5):
            for node in range(3):
                lam = np.array([1.0, 2.0, 3.0])
                lam[node] = bad
                with pytest.raises(ValueError,
                                   match=r"^intensities must be finite and nonnegative$"):
                    copula_poisson_draw(lam, cop, rng.stream(0))


def test_public_draw_reads_exactly_its_chunks():
    # a draw from a Generator takes chunks of c, 2c, 4c ... rows (c the first
    # chunk's size) until every node has passed its lam_i, that is until
    # max(Y) + 1 rows are in, and reads nothing more off the stream.  2000
    # nearly independent nodes at lam = 40 take a second chunk with probability
    # about 0.9 per draw
    took_two = False
    for cop in (CopulaSpec("ar1", -0.7), CopulaSpec("exch", 0.9)):
        for n, lam_value in ((1, 3.0), (5, 0.4), (200, 6.0), (2000, 40.0)):
            first = int(lam_value + 3.0 * np.sqrt(lam_value)) + 3
            for s in range(3):
                gen = rng.stream(41, n, s)
                y = copula_poisson_draw(np.full(n, lam_value), cop, gen)
                chunk, rows = first, 0
                while rows < y.max() + 1:
                    rows, chunk = rows + chunk, 2 * chunk
                took_two |= rows > first
                fresh = rng.stream(41, n, s)
                fresh.standard_normal((rows, n))
                assert np.array_equal(gen.standard_normal(8), fresh.standard_normal(8))
    assert took_two


def _circulant(n):
    """Network with edges i -> i+1 and i -> i+2 (mod n); a lone node has none."""
    i = np.arange(n)
    edges = np.column_stack([np.r_[i, i], np.r_[(i + 1) % n, (i + 2) % n]])
    edges = np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the lone node's zero out-degree
        return na.row_normalize(edges, n)


def _long_draw_panel(spec, net, cop, cfg, rows):
    """simulate_count's panel read off one long draw of ``rows`` event rows.

    Each step sums log U in row order from its first row and reads rows until
    every node has passed its lam_i; its counts are the rows before that, and
    the next step starts right after it, max(Y) + 1 rows on.
    """
    log_u = np.log(draw_copula_uniform(cop, net.n, rng.stream(cfg.seed, 0xC0), rows=rows))
    lam, start, steps = np.ones(net.n), 0, []
    for _ in range(1 + cfg.burn_in + cfg.T):  # the start's draw, then the panel's steps
        s = np.cumsum(log_u[start:], axis=0)
        tau = np.flatnonzero((s < -lam).all(axis=1))[0] + 1
        y = (s[:tau] >= -lam).sum(axis=0)
        assert tau == y.max() + 1
        steps.append(y)
        start += tau
        lam = cond_mean(spec, net, y.astype(float))
    return np.array(steps[1:]).T[:, cfg.burn_in:]


@pytest.mark.parametrize("structure, rho", [("ar1", 0.5), ("ar1", -0.7),
                                            ("exch", 0.3), ("exch", 0.9)])
def test_count_panel_equals_the_long_draw_reference(structure, rho, monkeypatch):
    # simulate_count reads its event rows off the stream in blocks of about
    # _EVENT_BLOCK cells and each step hands back the rows of its last chunk
    # that it did not read, so the panel equals one long draw of the panel's
    # whole row budget read max(Y) + 1 rows per step.  At n = 3000 a block holds
    # 21 rows, fewer than a first chunk at lam_max >= 8, so chunks straddle
    # blocks, some need more rows than a block and hand-backs cross a refill
    spec = ModelSpec.linear((8.0, 0.3, 0.2), "count")
    cop = CopulaSpec(structure, rho)
    drawn, straddled, take = [], [], _EventRows.take

    def recorded(cop, n, gen, rows=None):
        drawn.append(rows)
        return draw_copula_uniform(cop, n, gen, rows)

    def recorded_take(source, k):
        straddled.append(0 < source.buf.shape[0] - source.pos < k)
        return take(source, k)

    monkeypatch.setattr("netar.dgp.draw_copula_uniform", recorded)
    monkeypatch.setattr(_EventRows, "take", recorded_take)
    for n, T in ((1, 60), (7, 60), (200, 40), (3000, 5)):
        net = _circulant(n)
        block = max(1, _EVENT_BLOCK // n)
        for burn in (0, 50):
            cfg = SimConfig(T=T, burn_in=burn, seed=n + burn)
            drawn.clear()
            straddled.clear()
            panel = simulate_count(spec, net, cop, cfg).values
            assert np.array_equal(panel, _long_draw_panel(spec, net, cop, cfg, sum(drawn)))
            assert min(drawn) >= block
            if n == 3000:
                assert any(straddled)
        if n == 3000:
            assert max(drawn) > block  # at burn-in 50, lam_max is near 16


@pytest.mark.parametrize("n", [1, 40])
def test_count_panel_steps_are_poisson_given_the_past(n):
    # given the past, Y_it is exactly Poisson(lam_it), so the randomized PIT
    # U_it = F(Y_it - 1) + V (F(Y_it) - F(Y_it - 1)), V uniform, makes one node's
    # series i.i.d. U(0, 1); a step that re-read a row an earlier step had used
    # would break that.  The nodes of one step are dependent, so the KS test
    # reads node 0 alone (false alarm 0.25% at p > 0.0025).  The lag-1 products
    # (U_t - 1/2)(U_t+1 - 1/2) are uncorrelated with variance 1/144, so each
    # node's z = 12 sum / sqrt(m) is asymptotically standard normal; the mean
    # over nodes has variance at most 1, and |z| < 3.03 fails with at most
    # 0.245%.  Over both n, at most 0.99%
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    cop = CopulaSpec("ar1", 0.6)
    net = _circulant(n)
    pit, z = [], []
    for r in range(10):
        y = simulate_count(spec, net, cop, SimConfig(T=1000 if n == 1 else 300, burn_in=50,
                                                     seed=900 + r)).values
        lam = np.column_stack([cond_mean(spec, net, col) for col in y[:, :-1].T])
        y = y[:, 1:]
        v = rng.stream(901, n, r).random(y.shape)
        u = stats.poisson.cdf(y - 1, lam) + v * stats.poisson.pmf(y, lam)
        pit.append(u[0])
        z.append(((u[:, :-1] - 0.5) * (u[:, 1:] - 0.5)).sum(axis=1))
    pit = np.concatenate(pit)
    assert stats.kstest(pit, "uniform").pvalue > 0.0025
    lag1 = 12.0 * np.sum(z, axis=0) / np.sqrt(10 * (y.shape[1] - 1))
    assert abs(lag1.mean()) < 3.03


def _average_graphs(tmp_path):
    """Graphs with zero-out-degree rows, the one-node empty graph, an SBM and an ER graph."""
    path = tmp_path / "net.txt"
    path.write_text("# nodes 6\n0 1\n1 2\n2 0\n0 3\n4 0\n4 1\n4 2\n")
    with pytest.warns(UserWarning, match="zero out-degree"):
        loaded = na.load_edges(path)                      # nodes 3 and 5 have zero rows
    with pytest.warns(UserWarning, match="zero out-degree"):
        single = na.row_normalize([], 1)
    return loaded, single, na.gen_sbm(200, 5, seed=3), na.gen_er(40, seed=2)


def test_neighbour_average_equals_the_sparse_product(tmp_path):
    # the steps of a nonlinear family form W y with the compiled CSR product
    # that w @ y ends in; it adds into its output, so a buffer holding an
    # earlier step's sums (garbage here) must be zero-filled first
    rs = np.random.default_rng(8)
    for net in _average_graphs(tmp_path):
        wide = rs.standard_normal((net.n, 3))
        for y in (wide[:, 1], np.ascontiguousarray(wide[:, 2])):   # strided and contiguous
            out = rs.standard_normal(net.n) * 1e3
            assert _neighbour_average(net.w, y, out) is out
            assert np.array_equal(out, net.w @ y)


@pytest.mark.parametrize("beta", [(1.5, 0.4, 0.5), (-0.3, -0.7, 0.2), (2.0, 0.3, 0.0)])
def test_affine_map_step_equals_the_linear_mean(tmp_path, beta):
    # a linear step adds G y, G = b1 W + b2 I, into a row prefilled with b0.
    # It sums the same terms as b0 + b1 (W y) + b2 y in another order; each
    # sum of node i is within about (deg_i + 3) u of the exact value, relative
    # to the sum s_i of its terms' magnitudes, so the two differ by at most
    # (deg_i + 4) eps s_i (eps = 2u).  A wrong, missing or misplaced entry of
    # G moves a node by a multiple of its terms
    b0, b1, b2 = beta
    linear = ModelSpec.linear(beta, "cont")
    rs = np.random.default_rng(12)
    for net in _average_graphs(tmp_path):
        g = _affine_map(net.w, b1, b2)
        indptr, indices, data = g[2:]
        assert np.array_equal(indices[indptr[1:] - 1], np.arange(net.n))  # diagonal last
        assert np.array_equal(sp.csr_matrix((data, indices, indptr), shape=g[:2]).toarray(),
                              (b1 * net.w + b2 * sp.identity(net.n)).toarray())
        bound = (np.diff(net.w.indptr) + 4) * np.finfo(float).eps
        for y in (rs.standard_normal(net.n) * 10, rs.poisson(3.0, net.n).astype(float)):
            row = np.full(net.n, b0)
            _sparsetools.csr_matvec(*g, y, row)
            scale = abs(b0) + abs(b1) * (net.w @ np.abs(y)) + abs(b2) * np.abs(y)
            assert np.all(np.abs(row - mean_elementwise(linear, net.w @ y, y)) <= bound * scale)


def _refuse_mean(*args):
    raise AssertionError("mean_elementwise was called")


def test_linear_steps_are_one_csr_product_each(small_net, monkeypatch):
    # every warm-up step and every step of a linear panel is one csr_matvec of
    # G (W's entries plus a diagonal) into a prefilled row, with no call of
    # mean_elementwise; a nonlinear family's steps multiply by W itself
    products = []

    def counted(*args):
        products.append(len(args[4]))
        return _sparsetools.csr_matvec(*args)

    monkeypatch.setattr("netar.dgp._sparsetools", types.SimpleNamespace(csr_matvec=counted))
    monkeypatch.setattr("netar.dgp.mean_elementwise", _refuse_mean)
    nnz, k = small_net.w.nnz, _warmup_steps(0.4, 0.5)
    cont = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    for init, burn in (("stationary", 0), ("linear-stationary", 20), (1.0, 20)):
        products.clear()
        simulate_gaussian(cont, small_net, SimConfig(T=30, burn_in=burn, seed=1, init=init))
        assert products == [nnz + small_net.n] * ((k if isinstance(init, str) else 0) + burn + 30)
    for cop in (CopulaSpec("identity"), CopulaSpec("ar1", 0.5)):
        products.clear()
        simulate_count(ModelSpec.linear((1.0, 0.3, 0.2)), small_net, cop,
                       SimConfig(T=30, burn_in=20, seed=1))
        assert products == [nnz + small_net.n] * 50
    monkeypatch.setattr("netar.dgp.mean_elementwise", mean_elementwise)
    products.clear()
    simulate_gaussian(ModelSpec.stnar((1.5, 0.4, 0.5), 0.3, 0.5, "cont"), small_net,
                      SimConfig(T=30, burn_in=20, seed=1, init="linear-stationary"))
    assert products == [nnz + small_net.n] * k + [nnz] * 50


@pytest.mark.parametrize("burn_in", [0, 50])
def test_simulators_return_c_contiguous_panels(small_net, burn_in):
    panels = (simulate_gaussian(ModelSpec.linear((1.5, 0.4, 0.5), "cont"), small_net,
                                SimConfig(T=40, burn_in=burn_in, seed=2, init=1.0)),
              simulate_count(ModelSpec.linear((1.0, 0.3, 0.2), "count"), small_net,
                             CopulaSpec("ar1", 0.5), SimConfig(T=40, burn_in=burn_in, seed=2)))
    for panel in panels:
        assert panel.values.shape == (small_net.n, 40)
        assert panel.values.flags.c_contiguous


# count simulation ---------------------------------------------------------------

def test_count_simulation_deterministic(small_net):
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    cop = CopulaSpec("ar1", 0.5)
    a = simulate_count(spec, small_net, cop, SimConfig(T=60, seed=6))
    b = simulate_count(spec, small_net, cop, SimConfig(T=60, seed=6))
    assert np.array_equal(a.values, b.values)
    assert a.is_count()


@pytest.mark.parametrize("structure, rho", [("ar1", 0.5), ("ar1", -0.95),
                                            ("exch", 0.3), ("exch", -0.03)])
def test_count_panel_equals_the_dense_factor_panel(small_net, structure, rho, monkeypatch):
    spec = ModelSpec.linear((2.0, 0.3, 0.2), "count")
    cop = CopulaSpec(structure, rho)
    cfg = SimConfig(T=60, burn_in=60, seed=14)
    panel = simulate_count(spec, small_net, cop, cfg).values
    chol = _dense_copula_factor(structure, rho, small_net.n)
    monkeypatch.setattr("netar.dgp._apply_copula_factor", lambda cop, e: e @ chol.T)
    assert np.array_equal(simulate_count(spec, small_net, cop, cfg).values, panel)


def test_independent_copula_panel_draws_no_copula_uniforms(small_net, monkeypatch):
    # identity and rho = 0 panels take the direct Poisson draw, so they agree
    monkeypatch.setattr("netar.dgp.draw_copula_uniform", _refuse_copula_uniforms)
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    cfg = SimConfig(T=40, burn_in=40, seed=15)
    panel = simulate_count(spec, small_net, CopulaSpec("identity"), cfg).values
    assert np.array_equal(simulate_count(spec, small_net, CopulaSpec("ar1", 0.0), cfg).values,
                          panel)


@pytest.mark.parametrize("spec", [
    ModelSpec.linear((1.0, 0.3, 0.2), "count"),
    ModelSpec.drift((1.0, 0.3, 0.2), 0.5, "count"),
    ModelSpec.stnar((0.5, 0.3, 0.2), 0.4, 1.0, "count"),
    ModelSpec.tnar((0.5, 0.3, 0.2), (0.5, 0.1, 0.0), 1.2, "count"),
], ids=lambda spec: spec.family)
def test_independent_copula_panel_equals_the_direct_draw_reference(spec):
    # an independent copula draws each step with one Generator.poisson call
    # on the count stream, at the mean of the last step's counts
    for n in (1, 7, 200):
        net = _circulant(n)
        for burn in (0, 50):
            cfg = SimConfig(T=40, burn_in=burn, seed=3 * n + burn)
            gen = rng.stream(cfg.seed, 0xC0)
            y, steps = gen.poisson(np.ones(n)).astype(float), []
            for _ in range(burn + cfg.T):
                y = gen.poisson(cond_mean(spec, net, y)).astype(float)
                steps.append(y)
            reference = np.array(steps).T[:, burn:]
            for cop in (CopulaSpec("identity"), CopulaSpec("ar1", 0.0)):
                assert np.array_equal(simulate_count(spec, net, cop, cfg).values, reference)


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
                           SimConfig(T=1, burn_in=0, seed=1, init=0.0))
    assert np.array_equal(panel.values, np.zeros((small_net.n, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_count_simulation_rejects_a_non_finite_intensity(small_net, bad, monkeypatch):
    # a linear step's intensity is the row its one CSR product adds G y into;
    # it turns bad at one node of the fourth step (step 3 after the start
    # draw), under the direct and the waiting-time draw alike
    calls = []

    def spoiled(*args):
        _sparsetools.csr_matvec(*args)
        calls.append(None)
        if len(calls) == 4:
            args[-1][4] = bad

    monkeypatch.setattr("netar.dgp._sparsetools", types.SimpleNamespace(csr_matvec=spoiled))
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    for cop in (CopulaSpec("identity"), CopulaSpec("exch", 0.3)):
        calls.clear()
        with pytest.raises(RuntimeError,
                           match=r"^non-finite intensity at step 3; parameters look explosive$"):
            simulate_count(spec, small_net, cop, SimConfig(T=10, burn_in=0, seed=2))


def test_explosive_continuous_panel_fails_as_counts_do():
    # b1 + b2 = 1.8: the panel overflows to inf and then nan, a non-finite cell
    # stays non-finite at its node, and the stored buffer is checked once after
    # the loop, with numpy's overflow warnings silenced in it
    net = na.gen_sbm(50, 2, seed=1)
    spec = ModelSpec.linear((1.0, 0.9, 0.9), "cont")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeError,
                           match=r"^non-finite value at step 1207; parameters look explosive$"):
            na.simulate_gaussian(spec, net, SimConfig(T=3000, burn_in=0, seed=1, init=0.0))


def test_count_simulation_rejects_a_singular_copula_before_any_step(small_net):
    # from a zero start the start draw reads no copula rows, so the dimension
    # check must not wait for the first step's draw, whose ValueError the step
    # loop reports as a bad intensity
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    cop = CopulaSpec("exch", -2.0 / small_net.n)
    with pytest.raises(ValueError, match="not positive definite"):
        simulate_count(spec, small_net, cop, SimConfig(T=5, burn_in=0, seed=1, init=0.0))


def test_unstable_count_parameters_warn(small_net):
    spec = ModelSpec.linear((1.0, 0.6, 0.5), "count")
    with pytest.warns(UserWarning, match="stability"):
        simulate_count(spec, small_net, CopulaSpec("identity"),
                       SimConfig(T=5, burn_in=0, seed=1))
