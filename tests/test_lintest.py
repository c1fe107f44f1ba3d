import warnings

import numpy as np
import pytest

import netar as na
from netar.dgp import Panel, SimConfig
from netar import model, qmle
from netar.lintest import _null_design, _whiten, chi2_sf, lm_test
from netar.model import ModelSpec, mean_elementwise
from netar.nuisance import GammaGrid, _tnar_blocks, default_grid, lm_profile
from netar.qmle import lagged_design
import reference
from reference import four_term_sigma


# chi-square tail ----------------------------------------------------------------

def test_chi2_sf_at_zero_is_one():
    for df in (1, 2, 5):
        assert chi2_sf(0.0, df) == pytest.approx(1.0)


def test_chi2_sf_known_quantile():
    assert chi2_sf(3.8415, 1) == pytest.approx(0.05, abs=1e-4)


def test_chi2_sf_against_quadrature():
    from scipy.integrate import quad
    from scipy.stats import chi2
    for x, df in [(1.3, 1), (4.2, 3), (0.7, 2)]:
        val, _ = quad(chi2(df).pdf, x, np.inf)
        assert chi2_sf(x, df) == pytest.approx(val, abs=1e-10)


def test_chi2_sf_monotone_decreasing():
    grid = np.linspace(0, 20, 100)
    vals = [chi2_sf(x, 1) for x in grid]
    assert np.all(np.diff(vals) <= 0)


def test_chi2_sf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 1)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


# whitening ----------------------------------------------------------------------

def test_whiten_rank_rule_handles_rank_deficiency():
    # an eigenvalue s^2 of E'E counts when above 1e-12 times the largest; E
    # as its own unprojected scores leaves that rule alone, since no column
    # norm exceeds s_max
    effective = np.column_stack([np.arange(1.0, 6.0), np.zeros(5)])
    u, s, vt, rank = _whiten(effective, effective)
    assert rank == 1
    assert s[0] == pytest.approx(np.sqrt(55.0)) and s[1] < 1e-12
    assert np.allclose(u[:, 0] * s[0] * vt[0, 0], np.arange(1.0, 6.0))
    stack = np.stack([np.diag([1.0, 1.01e-6]), np.diag([1.0, 0.99e-6])])
    assert list(_whiten(stack, stack)[3]) == [2, 1]


def test_whiten_rank_is_relative_to_the_unprojected_scores():
    # an effective score at 1e-12 of its scores' column norm or below is what
    # projecting a column in the span of the linear block leaves: rounding
    scores = np.ones((4, 1))                        # squared column norm 4
    assert _whiten(np.array([[1e-12], [0.0], [0.0], [0.0]]), scores)[3] == 0
    assert _whiten(np.array([[1e-11], [0.0], [0.0], [0.0]]), scores)[3] == 1
    stack = np.stack([np.diag([1e-11, 1e-13]), np.diag([1e-11, 1e-11])])
    assert list(_whiten(stack, np.ones((2, 2, 2)))[3]) == [1, 2]


def test_whiten_treats_subnormal_squares_as_zero():
    # alone, a singular value whose square is subnormal passes any relative
    # cutoff; the whitening S^-1 would then overflow the statistic
    tiny = np.array([[1e-155]])
    assert _whiten(tiny, tiny)[3] == 0
    pair = np.diag([1e-150, 1e-155])
    _, s, _, rank = _whiten(pair, pair)
    assert rank == 1 and s[0] == pytest.approx(1e-150)


# the quasi-score test -----------------------------------------------------------

def test_lm_test_requires_drift_alternative(small_net, cont_panel):
    with pytest.raises(ValueError):
        lm_test(cont_panel, small_net, ModelSpec.linear((1.0, 0.3, 0.2), "cont"))


def test_lm_test_basic_output_contract(small_net, cont_panel, count_panel):
    for panel, dom, beta in ((cont_panel, "cont", (1.5, 0.4, 0.5)),
                             (count_panel, "count", (1.0, 0.3, 0.2))):
        res = lm_test(panel, small_net, ModelSpec.drift(beta, 0.0, dom))
        assert res.statistic >= 0.0
        assert 0.0 <= res.p_value <= 1.0
        assert res.df == 1
        assert res.method == "chi2"
        assert res.null_fit.converged


@pytest.mark.parametrize("domain", ["count", "cont"])
def test_lm_test_builds_the_design_once(small_net, request, count_calls, domain):
    # the null fit, one qmle_fit call in either domain, builds the design and
    # hands it, with its weights and its linear block, to the test: outside
    # the fit the test builds no design and calls neither the weights, the
    # score kernel nor the derivative stack
    panel = request.getfixturevalue(f"{domain}_panel")
    fit = qmle.qmle_fit
    calls = {f: count_calls(f) for f in (lagged_design, qmle._weights, qmle._score_parts,
                                         model.jac_elementwise, fit)}
    _null_design(panel, small_net, domain)
    in_fit = {f: len(c) for f, c in calls.items()}
    lm_test(panel, small_net, ModelSpec.drift((1.0, 0.2, 0.2), 0.0, domain))
    assert in_fit[lagged_design] == in_fit[fit] == 1
    assert {f: len(c) - in_fit[f] for f, c in calls.items()} == in_fit


@pytest.mark.parametrize("domain", ["count", "cont"])
@pytest.mark.parametrize("case", ["all-zero panel", "edgeless graph"])
def test_degenerate_input_fails_with_the_rank_message(domain, case):
    # both null fits apply least squares' rank rule to (1, X, Y): an all-zero
    # panel leaves X = Y = 0 and an edgeless graph X = 0
    net = na.gen_sbm(50, 2, seed=1)
    gen = np.random.default_rng(1)
    values = (gen.poisson(2.0, (50, 100)).astype(float) if domain == "count"
              else gen.standard_normal((50, 100)))
    if case == "all-zero panel":
        values[:] = 0.0
    else:
        with pytest.warns(UserWarning, match="zero out-degree"):
            net = na.gen_er(50, 0.0)
    panel = Panel(values)
    with pytest.raises(ValueError, match="design matrix is rank deficient"):
        lm_test(panel, net, ModelSpec.drift((1.0, 0.2, 0.2), 0.0, domain))
    for family, grid in (("stnar", default_grid("stnar")), ("tnar", GammaGrid([0.5, 1.0]))):
        with pytest.raises(ValueError, match="design matrix is rank deficient"):
            lm_profile(panel, net, family, grid, domain)


@pytest.mark.filterwarnings("ignore:.*zero out-degree")
def test_short_least_squares_drift_test_fails_with_its_message():
    # B11 = s1's1 has rank at most T-1 and s1 sums to 0 at the fit, so with
    # T-1 <= 4 the effective score is 0 or a multiple of 1: at T = 3 numpy's
    # solve raised a bare "Singular matrix", and T = 4 and 5 read exactly T-1
    net = na.gen_sbm(20, 2, 1)
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "cont")
    drift = ModelSpec.drift((1.0, 0.2, 0.2), 0.0, "cont")
    for t in (3, 4, 5):
        panel = na.simulate_gaussian(spec, net, SimConfig(T=t, burn_in=50, seed=1))
        with pytest.raises(ValueError, match=rf"^the least-squares drift test needs "
                                             rf"T >= 6, got T = {t}$"):
            lm_test(panel, net, drift)
    panel = na.simulate_gaussian(spec, net, SimConfig(T=6, burn_in=50, seed=1))
    assert 0.0 <= lm_test(panel, net, drift).statistic < 5.0 - 1e-6


@pytest.mark.parametrize("domain", ["count", "cont"])
@pytest.mark.parametrize("family, k2, grid", [("stnar", 1, default_grid("stnar")),
                                              ("tnar", 3, GammaGrid([0.8, 1.0, 1.2]))])
def test_short_profile_fails_with_its_message(domain, family, k2, grid):
    # with T - 1 <= k2 tested coordinates E is square or wide, so U'1 is the
    # whole of 1 and ||U'1||^2 = T - 1 at every kept point (a count stnar
    # profile at T = 2 read 1.0 everywhere, tnar at T = 4 read 3.0), or no
    # point survives ("all grid points were degenerate")
    net = na.gen_sbm(50, 2, seed=1)
    spec = ModelSpec.linear((1.0, 0.3, 0.2), domain)

    def panel(t):
        cfg = SimConfig(T=t, burn_in=50, seed=1)
        if domain == "count":
            return na.simulate_count(spec, net, na.CopulaSpec("identity"), cfg)
        return na.simulate_gaussian(spec, net, cfg)

    for t in range(2, k2 + 2):
        with pytest.raises(ValueError, match=rf"^the {family} profile needs "
                                             rf"T >= {k2 + 2}, got T = {t}$"):
            lm_profile(panel(t), net, family, grid, domain)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # grid points dropped at so short a panel
        prof = lm_profile(panel(k2 + 2), net, family, grid, domain)
    assert np.all(np.isfinite(prof.lm)) and not np.allclose(prof.lm, k2 + 1)


@pytest.mark.parametrize("family, domain, grid", [
    ("drift", "cont", None),
    ("drift", "count", None),
    ("stnar", "cont", "default"),
    # off the lattice k/deg of count neighbour averages, so no cell ties a threshold
    ("tnar", "count", np.linspace(0.5, 4.5, 7) + np.sqrt(2) / 100),
    # the default grid moves points tied with an attained k/deg off the tie
    ("tnar", "count", "default"),
], ids=["drift-cont", "drift-count", "stnar-cont", "tnar-count", "tnar-count-default-grid"])
def test_lm_statistic_invariant_under_node_permutation(small_net, cont_panel, count_panel,
                                                       rs, family, domain, grid):
    def statistic(panel, net):
        if family == "drift":
            alt = ModelSpec.drift((1.0, 0.3, 0.2), 0.0, domain)
            return lm_test(panel, net, alt).statistic
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = (default_grid(family, panel=panel, net=net) if isinstance(grid, str)
                 else GammaGrid(grid))
            return lm_profile(panel, net, family, g, domain).lm

    panel = cont_panel if domain == "cont" else count_panel
    perm = rs.permutation(small_net.n)
    net_p = na.row_normalize(
        np.column_stack([perm[small_net.edges[:, 0]], perm[small_net.edges[:, 1]]]),
        small_net.n)
    vals_p = np.empty_like(panel.values)
    vals_p[perm] = panel.values
    np.testing.assert_allclose(statistic(Panel(vals_p), net_p),
                               statistic(panel, small_net), rtol=0, atol=1e-8)


def test_count_hessian_cross_term_present(small_net, count_panel):
    # the b0/g cross curvature -log(1+X) enters the count-path hessian;
    # verify through the covariance: removing it changes Sigma
    res = lm_test(count_panel, small_net, ModelSpec.drift((1.0, 0.3, 0.2), 0.0, "count"))
    beta = res.null_fit.theta_hat
    y_now, y_lag, x_lag = lagged_design(count_panel, small_net)
    lam = beta[0] + beta[1] * x_lag + beta[2] * y_lag
    jac = np.stack([np.ones_like(x_lag), x_lag, y_lag, -beta[0] * np.log1p(x_lag)])
    hess_first = np.einsum("ant,nt,bnt->ab", jac, y_now / lam ** 2, jac)
    s_t = np.einsum("ant,nt->ta", jac, y_now / lam - 1.0)
    sigma_no_curv = four_term_sigma(hess_first, s_t.T @ s_t, 3)
    assert res.sigma_used[0, 0] != pytest.approx(sigma_no_curv[0, 0], rel=1e-12)


@pytest.mark.parametrize("n", [30, 200])
def test_count_null_fit_does_not_depend_on_its_start(n, monkeypatch):
    # the default start (least squares) and the truth are different points on
    # the way to one optimum: each fit ends there, so the estimates agree to
    # rounding and so does the drift statistic, which reads the unprojected
    # partial score at the fit
    net = na.gen_sbm(n, 2, seed=31)
    truth = (1.0, 0.3, 0.2)
    panel = na.simulate_count(ModelSpec.linear(truth, "count"), net, na.CopulaSpec("ar1", 0.5),
                              SimConfig(T=200, burn_in=100, seed=33))
    alt = ModelSpec.drift(truth, 0.0, "count")
    default = lm_test(panel, net, alt)
    fit = qmle.qmle_fit
    monkeypatch.setattr("netar.lintest.qmle_fit",
                        lambda *args: fit(*args, theta0=np.array(truth)))
    from_truth = lm_test(panel, net, alt)
    assert np.max(np.abs(default.null_fit.theta_hat - from_truth.null_fit.theta_hat)) < 1e-10
    assert default.statistic == pytest.approx(from_truth.statistic, rel=1e-8)


def test_count_drift_statistic_does_not_depend_on_where_newton_stops():
    # paper scale, N=500 and T=400: the statistic uses the unprojected partial
    # score, exact only where the linear-block score is zero.  A fit stopped
    # as soon as max|score| < 1e-6 per cell read 1.518213 here, the converged
    # fit 1.479534 (2.6% lower); the full step qmle_fit takes from inside the
    # tolerance lands at the optimum up to rounding
    net = na.gen_sbm(500, 5, seed=9)
    panel = na.simulate_count(ModelSpec.linear((1.0, 0.3, 0.2), "count"), net,
                              na.CopulaSpec("identity", 0.0),
                              SimConfig(T=400, burn_in=300, seed=9))
    res = lm_test(panel, net, ModelSpec.drift((1.0, 0.3, 0.2), 0.0, "count"))
    theta, _ = reference.count_linear_fit(panel.values, net.w)
    assert res.statistic == pytest.approx(
        reference.drift_statistic(panel.values, net.w, theta), rel=1e-4)


def test_lm_h0_calibration_continuous():
    net = na.gen_sbm(40, 2, seed=51)
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    # under an exact chi2_1 null the mean and variance bands fail together
    # with probability about 0.2% at 1000 replications (16% at 150)
    stats = []
    for r in range(1000):
        panel = na.simulate_gaussian(spec, net, SimConfig(T=200, seed=5500 + r))
        stats.append(lm_test(panel, net,
                             ModelSpec.drift((1.0, 0.3, 0.2), 0.0, "cont")).statistic)
    stats = np.array(stats)
    assert abs(stats.mean() - 1.0) < 0.25
    assert abs(stats.var() - 2.0) < 0.8


def test_forcing_b_equal_h_recovers_classical_score_test(small_net, count_panel):
    # classical statistic computed independently from the Schur complement
    res = lm_test(count_panel, small_net, ModelSpec.drift((1.0, 0.3, 0.2), 0.0, "count"))
    beta = res.null_fit.theta_hat
    y_now, y_lag, x_lag = lagged_design(count_panel, small_net)
    lam = beta[0] + beta[1] * x_lag + beta[2] * y_lag
    jac = np.stack([np.ones_like(x_lag), x_lag, y_lag, -beta[0] * np.log1p(x_lag)])
    resid = y_now / lam - 1.0
    hess = np.einsum("ant,nt,bnt->ab", jac, y_now / lam ** 2, jac)
    curv_b0g = -np.log1p(x_lag)
    curv_gg = beta[0] * np.log1p(x_lag) ** 2
    hess[0, 3] -= float(np.sum(resid * curv_b0g))
    hess[3, 0] = hess[0, 3]
    hess[3, 3] -= float(np.sum(resid * curv_gg))
    s2 = float(np.einsum("nt,nt->", jac[3], resid))
    schur = hess[3:, 3:] - hess[3:, :3] @ np.linalg.solve(hess[:3, :3], hess[:3, 3:])
    classical = s2 ** 2 / schur[0, 0]
    forced = s2 ** 2 / four_term_sigma(hess, hess, 3)[0, 0]
    assert forced == pytest.approx(classical, abs=1e-10)


# the covariance as the outer product of effective scores -----------------------

def _drift_parts(panel, net, domain):
    """lm_test's result and the reference per-time scores and curvature of the
    drift alternative at the null fit: the stack (1, X, Y, -b0 log(1 + X)),
    |X| in place of X on continuous panels, with the b0/g and g/g second
    derivatives."""
    res = lm_test(panel, net, ModelSpec.drift((1.0, 0.3, 0.2), 0.0, domain))
    b0, b1, b2 = res.null_fit.theta_hat
    y_now, x, y = reference.lagged(panel.values, net.w)
    lam = b0 + b1 * x + b2 * y
    log1x = np.log1p(x if domain == "count" else np.abs(x))
    cols = np.stack([np.ones_like(x), x, y, -b0 * log1x])
    weight, curv = (y_now / lam - 1.0, y_now / lam ** 2) if domain == "count" else (y_now - lam, None)
    s_t, hess = reference.score_parts(cols, weight, curv,
                                      ((0, 3, -log1x), (3, 3, b0 * log1x ** 2)))
    return res, s_t, hess


def test_lm_test_sigma_is_the_four_term_correction(small_net, count_panel, cont_panel):
    res, s_t, hess = _drift_parts(count_panel, small_net, "count")
    four_term = four_term_sigma(hess, s_t.T @ s_t, 3)
    assert res.sigma_used == pytest.approx(four_term, rel=1e-10)
    assert res.statistic == pytest.approx(s_t[:, 3].sum() ** 2 / four_term[0, 0], rel=1e-10)
    # least squares projects through B itself: Sigma is B's Schur complement.  The
    # drift column -b0 log(1 + |X|) is nearly the intercept here, so the four-term
    # form cancels to about 3e-9 of a 60-digit evaluation; the long-double test
    # below checks this Sigma tightly
    res, s_t, _ = _drift_parts(cont_panel, small_net, "cont")
    opg = s_t.T @ s_t
    four_term = four_term_sigma(opg, opg, 3)
    assert res.sigma_used == pytest.approx(four_term, rel=1e-8)
    assert res.statistic == pytest.approx(s_t[:, 3].sum() ** 2 / four_term[0, 0], rel=1e-8)


def _solve_ld(a, b):
    """a^-1 b in long double by Gauss-Jordan elimination (a is positive definite)."""
    m = np.concatenate([a, b], axis=1).astype(np.longdouble)
    for i in range(a.shape[0]):
        m[i] /= m[i, i]
        for j in range(a.shape[0]):
            if j != i:
                m[j] -= m[j, i] * m[i]
    return m[:, a.shape[0]:]


def _long_double_sigma(s1, m11, s2, m12):
    """Sigma = sum_t e_t e_t' and the total of the e_t, in long double, from the
    double-precision kernel outputs."""
    effective = s2.astype(np.longdouble) - s1.astype(np.longdouble) @ _solve_ld(m11, m12)
    return effective.T @ effective, effective.sum(axis=0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
def test_sigma_matches_long_double_outer_product(small_net, count_panel, cont_panel):
    # continuous drift test: B22 - B21 B11^-1 B12 formed directly cancels to about
    # 3e-9 here
    res, s_t, _ = _drift_parts(cont_panel, small_net, "cont")
    opg = s_t.T @ s_t
    sigma, _ = _long_double_sigma(s_t[:, :3], opg[:3, :3], s_t[:, 3:], opg[:3, 3:])
    assert abs(res.sigma_used[0, 0] - sigma[0, 0]) <= 1e-12 * sigma[0, 0]

    # tnar point with all but 4 cells counted (the top 3 share one X, which makes
    # the point degenerate at 3): the four-term form cancels to about 6e-6 in lm here
    y_now, y_lag, x_lag = lagged_design(count_panel, small_net)
    cells = np.sort(x_lag, axis=None)
    assert cells[-5] < cells[-4]
    grid = np.array([0.5 * (cells[-5] + cells[-4])])
    prof = lm_profile(count_panel, small_net, "tnar", GammaGrid(grid), "count")
    lam = mean_elementwise(ModelSpec.linear(prof.null_fit.theta_hat, "count"), x_lag, y_lag)
    _, s2, h12 = _tnar_blocks(grid, x_lag, y_lag, *qmle._weights("count", y_now, lam))
    sigma, total = _long_double_sigma(prof.null_fit.scores, prof.null_fit.hessian, s2[0], h12[0])
    lm = total @ _solve_ld(sigma, total[:, None])[:, 0]
    assert abs(prof.lm[0] - lm) <= 1e-11 * lm
