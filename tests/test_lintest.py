import warnings

import numpy as np
import pytest

import netar as na
from netar.dgp import Panel, SimConfig
from netar.lintest import (chi2_sf, lm_test, psd_pinv, schur_complement,
                           sigma_correction)
from netar.model import ModelSpec
from netar.nuisance import GammaGrid, default_grid, lm_profile
from netar.qmle import lagged_design


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


# covariance correction ----------------------------------------------------------

def test_sigma_correction_two_by_two_example():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = sigma_correction(m, m, 1)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.5)


def test_sigma_correction_identity_blocks():
    eye = np.eye(5)
    out = sigma_correction(eye, eye, 3)
    assert np.allclose(out, np.eye(2))


def test_sigma_correction_matches_naive_formula(rs):
    for _ in range(10):
        a = rs.normal(size=(5, 5))
        h = a @ a.T + 5 * np.eye(5)
        b_ = rs.normal(size=(5, 5))
        b = b_ @ b_.T + 5 * np.eye(5)
        m1 = 3
        h11, h12, h21 = h[:m1, :m1], h[:m1, m1:], h[m1:, :m1]
        b11, b12, b21, b22 = b[:m1, :m1], b[:m1, m1:], b[m1:, :m1], b[m1:, m1:]
        hinv = np.linalg.inv(h11)
        naive = (b22 - h21 @ hinv @ b12 - b21 @ hinv @ h12
                 + h21 @ hinv @ b11 @ hinv @ h12)
        assert np.allclose(sigma_correction(h, b, m1), naive, atol=1e-12)


def test_sigma_correction_with_b_equal_h_is_schur_complement(rs):
    a = rs.normal(size=(6, 6))
    h = a @ a.T + 6 * np.eye(6)
    assert np.allclose(sigma_correction(h, h, 3), schur_complement(h, 3),
                       atol=1e-10)


def test_psd_pinv_handles_rank_deficiency():
    mat = np.array([[2.0, 0.0], [0.0, 0.0]])
    pinv, rank = psd_pinv(mat)
    assert rank == 1
    assert pinv[0, 0] == pytest.approx(0.5)
    assert pinv[1, 1] == 0.0


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
    sigma_no_curv = sigma_correction(hess_first, s_t.T @ s_t, 3)
    assert res.sigma_used[0, 0] != pytest.approx(sigma_no_curv[0, 0], rel=1e-12)


def test_lm_h0_calibration_continuous():
    net = na.gen_sbm(40, 2, seed=51)
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    stats = []
    for r in range(150):
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
    classical = s2 ** 2 / schur_complement(hess, 3)[0, 0]
    forced = s2 ** 2 / sigma_correction(hess, hess, 3)[0, 0]
    assert forced == pytest.approx(classical, abs=1e-10)
