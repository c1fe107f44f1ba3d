import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

import netar as na
import reference
from netar import qmle
from netar.dgp import Panel, SimConfig
from netar.model import ModelSpec, hess_elementwise, jac_elementwise, mean_elementwise
from netar.qmle import (_poisson_loglik, _score_parts, _weights, lagged_design,
                        ols_fit_linear, qmle_fit, sandwich_cov)


def _two_node_net():
    return na.row_normalize([(0, 1), (1, 0)], 2)


def _kernel_at(panel, net, spec, theta=None):
    """The program's per-time scores and curvature at theta, composed from the
    shared kernel as qmle_fit composes them."""
    sp = spec if theta is None else spec.with_active(theta)
    y_now, y_lag, x_lag = lagged_design(panel, net)
    return _score_parts(jac_elementwise(sp, x_lag, y_lag),
                        *_weights(sp.domain, y_now, mean_elementwise(sp, x_lag, y_lag)),
                        hess_elementwise(sp, x_lag, y_lag))


# quasi-log-likelihood -----------------------------------------------------------

def test_single_cell_contributions():
    # one usable transition on one live node; the other node is silenced by
    # comparing against the model that predicts it exactly
    net = _two_node_net()
    panel = np.array([[1.0, 0.0], [1.0, 0.0]])
    # Y=0, lam=2 per node: contribution -2 each
    assert _poisson_loglik(panel[:, 1:], np.full((2, 1), 2.0)) == pytest.approx(-4.0)
    assert reference.poisson_loglik(panel, net.w, (2.0, 0.0, 0.0)) == pytest.approx(-4.0)
    panel3 = np.array([[1.0, 3.0], [1.0, 3.0]])
    # Y=3, lam=1: contribution 3*log(1) - 1 = -1 each
    assert _poisson_loglik(panel3[:, 1:], np.ones((2, 1))) == pytest.approx(-2.0)
    assert reference.poisson_loglik(panel3, net.w, (1.0, 0.0, 0.0)) == pytest.approx(-2.0)


def test_loglik_matches_naive_double_loop():
    net = na.gen_er(5, 0.5, seed=1)
    spec = ModelSpec.linear((0.8, 0.25, 0.3), "count")
    panel = na.simulate_count(spec, net, na.CopulaSpec("identity"),
                              SimConfig(T=40, burn_in=50, seed=1))
    fit = qmle_fit(panel, net, spec)
    assert fit.converged
    b0, b1, b2 = fit.theta_hat
    w = net.w.toarray()
    slow = 0.0
    for t in range(1, panel.t):
        for i in range(net.n):
            x = w[i] @ panel.values[:, t - 1]
            lam = b0 + b1 * x + b2 * panel.values[i, t - 1]
            y = panel.values[i, t]
            slow += (y * np.log(lam) if y > 0 else 0.0) - lam
    assert fit.loglik == pytest.approx(slow, abs=1e-12)
    assert reference.poisson_loglik(panel.values, w, fit.theta_hat) == pytest.approx(
        slow, abs=1e-12)


def test_score_matches_finite_differences(small_net, count_panel):
    # the program's score against central differences of the reference likelihood
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    rs = np.random.default_rng(3)
    for _ in range(20):
        theta = rs.uniform(0.05, 0.45, 3)
        theta[0] = rs.uniform(0.5, 2.0)
        s = _kernel_at(count_panel, small_net, spec, theta)[0].sum(axis=0)
        h = 1e-6
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (reference.poisson_loglik(count_panel.values, small_net.w, tp)
                  - reference.poisson_loglik(count_panel.values, small_net.w, tm)) / (2 * h)
            assert abs(s[j] - fd) / (abs(fd) + 1e-8) < 1e-6


def test_hessian_matches_score_differences(small_net, count_panel):
    # includes the drift family, whose mean has curvature; the differenced
    # score is the reference likelihood's central difference
    rs = np.random.default_rng(4)

    def loglik(theta):
        return reference.poisson_loglik(count_panel.values, small_net.w, theta)

    for spec in (ModelSpec.linear((1.0, 0.3, 0.2), "count"),
                 ModelSpec.drift((1.0, 0.3, 0.2), 0.4, "count")):
        theta = spec.active_theta() * rs.uniform(0.9, 1.1, spec.n_active)
        hess = _kernel_at(count_panel, small_net, spec, theta)[1]
        assert np.allclose(hess, hess.T, atol=1e-12)
        fd = reference.second_differences(loglik, theta, 1e-4)
        # H is minus the loglik curvature
        assert np.max(np.abs(hess + fd) / (np.abs(fd) + 1.0)) < 1e-5


def test_hessian_linear_family_is_psd(small_net, count_panel):
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    hess = _kernel_at(count_panel, small_net, spec)[1]
    assert np.linalg.eigvalsh(hess).min() >= -1e-10


# least squares ------------------------------------------------------------------

def test_ols_recovers_noise_free_panel_exactly(small_net):
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    # short horizon: the noiseless recursion contracts toward the fixed
    # point, so long samples lose regressor variation
    cfg = SimConfig(T=8, burn_in=0, seed=2, sigma=0.0,
                    init=np.linspace(5, 25, small_net.n))
    panel = na.simulate_gaussian(spec, small_net, cfg)
    fit = ols_fit_linear(panel, small_net)
    assert np.allclose(fit.theta_hat, [1.5, 0.4, 0.5], atol=1e-10)
    assert fit.sigma2_hat == pytest.approx(0.0, abs=1e-18)


def test_ols_equals_numerical_minimizer(small_net, cont_panel):
    fit = ols_fit_linear(cont_panel, small_net)

    def neg(theta):
        return -reference.lsq_loglik(cont_panel.values, small_net.w, theta)

    # forward differences leave a gradient error near 1e-5 on this sum of
    # squares, which stops BFGS about 1e-6 short of the minimum; central
    # differences are exact on a quadratic up to rounding
    opt = minimize(neg, x0=np.array([1.0, 0.3, 0.3]), method="BFGS", jac="3-point",
                   options={"gtol": 1e-10})
    assert np.max(np.abs(opt.x - fit.theta_hat)) < 1e-6


def test_ols_normal_equations(small_net, cont_panel):
    fit = ols_fit_linear(cont_panel, small_net)
    scale = np.abs(cont_panel.values).sum()
    assert np.max(np.abs(fit.score_at_opt)) / scale < 1e-8


def test_ols_sigma2_is_mean_squared_residual(small_net, cont_panel):
    fit = ols_fit_linear(cont_panel, small_net)
    y_now, y_lag, x_lag = lagged_design(cont_panel, small_net)
    lam = fit.theta_hat[0] + fit.theta_hat[1] * x_lag + fit.theta_hat[2] * y_lag
    assert fit.sigma2_hat == pytest.approx(np.mean((y_now - lam) ** 2))


def test_least_squares_certifies_its_start_at_any_data_scale(small_net, cont_panel):
    # least squares' score is in the data's squared units: in units a million
    # times larger the corrected semi-normal solution leaves a score far above
    # 1e-6 per cell, so the score check scales its tolerance by RSS/n, the
    # start is inside it and the null fit the linearity tests need takes one
    # Newton step, the full one taken from inside the tolerance
    base = ols_fit_linear(cont_panel, small_net)
    for scale in (1e-6, 1e6, 1e12):
        fit = ols_fit_linear(Panel(cont_panel.values * scale), small_net)
        assert fit.iterations == 1 and fit.converged
        assert np.allclose(fit.theta_hat, base.theta_hat * [scale, 1.0, 1.0], rtol=1e-9)
        assert fit.sigma2_hat == pytest.approx(base.sigma2_hat * scale**2, rel=1e-9)


def test_least_squares_takes_theta0_as_its_start(small_net, cont_panel):
    # theta0 overrides the start in both domains: on the quadratic -RSS/2 one
    # full Newton step reaches the optimum, and the step from inside the
    # tolerance ends the fit
    base = ols_fit_linear(cont_panel, small_net)
    fit = qmle_fit(cont_panel, small_net, ModelSpec.linear((0.0, 0.0, 0.0), "cont"),
                   theta0=np.array([10.0, -0.5, 0.9]))
    assert fit.converged and fit.iterations == 2
    np.testing.assert_allclose(fit.theta_hat, base.theta_hat, rtol=1e-10)


def _null_fits():
    """Least squares and the linear count QMLE, which share one rank rule."""
    return (ols_fit_linear,
            lambda panel, net: qmle_fit(panel, net, ModelSpec.linear((1.0, 0.2, 0.2))))


def test_ols_rejects_rank_deficiency():
    net = _two_node_net()
    # constant series: X, Y columns collinear with the intercept; zero: X = Y = 0
    for values in (np.ones((2, 10)), np.zeros((2, 10))):
        for fit in _null_fits():
            with pytest.raises(ValueError, match="rank deficient"):
                fit(Panel(values), net)


def test_ols_rejects_an_edgeless_graph():
    with pytest.warns(UserWarning, match="zero out-degree"):
        net = na.row_normalize([], 5)
    gen = np.random.default_rng(3)
    panels = Panel(gen.standard_normal((5, 20))), Panel(gen.poisson(2.0, (5, 20)).astype(float))
    for fit, panel in zip(_null_fits(), panels):
        with pytest.raises(ValueError, match="rank deficient"):     # X = 0
            fit(panel, net)


@pytest.mark.parametrize("n", [30, 200])
@pytest.mark.parametrize("b1, b2", [(0.2, 0.3), (0.4, 0.5), (0.4, 0.59), (0.0, 0.999)],
                         ids=["sum-0.5", "sum-0.9", "sum-0.99", "b2-0.999"])
def test_ols_matches_the_least_squares_oracle(n, b1, b2):
    # lstsq on the stacked design is the oracle.  The normal equations alone
    # are off by up to about 1e-6 (relative) near the unit root, where the
    # column-scaled Gram matrix reaches a condition number near 1e7; the
    # corrected step must bring theta within 1e-10 and keep b2 = 0.999 inside
    # the rank rule
    net = na.gen_sbm(n, 2, seed=61)
    spec = ModelSpec.linear((1.0, b1, b2), "cont")
    for seed in range(3):
        panel = na.simulate_gaussian(spec, net, SimConfig(T=200, burn_in=0, seed=seed,
                                                          init="stationary"))
        fit = ols_fit_linear(panel, net)
        theta, design, response = reference.least_squares(panel.values, net.w)
        assert np.max(np.abs(fit.theta_hat - theta)) <= 1e-10 * np.max(np.abs(theta))
        gram = design.T @ design
        assert np.max(np.abs(fit.hessian - gram)) <= 1e-12 * np.max(np.abs(gram))
        rss = np.sum((response - design @ fit.theta_hat) ** 2)
        assert fit.loglik == pytest.approx(-0.5 * rss, rel=1e-12)
        assert fit.sigma2_hat == pytest.approx(rss / response.size, rel=1e-12)
        assert fit.n_obs == response.size


# the shared score kernel ------------------------------------------------------

@pytest.mark.parametrize("m", [3, 4, 6])
@pytest.mark.parametrize("shape", [(7, 100), (64, 128), (80, 256)],
                         ids=["under-one-block", "one-block", "2.5-blocks"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
def test_score_parts_equals_dense_reference(m, shape, weighted, rs):
    # the curvature is summed over blocks of qmle._CURV_BLOCK cells; N(T-1) of
    # 700, 8192 and 20480 cells is less than one block, one block and 2.5 blocks
    assert qmle._CURV_BLOCK == 8192
    cols = rs.uniform(0.5, 2.0, (m,) + shape)
    weight = rs.uniform(-1.0, 3.0, shape)
    curv = rs.uniform(0.1, 2.0, shape) if weighted else None
    # drift-like second derivatives in the upper triangle, one off the diagonal
    second = (((0, 3, rs.uniform(-1.0, 0.0, shape)), (3, 3, rs.uniform(0.0, 1.0, shape)))
              if m > 3 else None)
    s_t, hess = qmle._score_parts(cols, weight, curv, second)
    ref_s, ref_h = reference.score_parts(cols, weight, curv, second or ())
    assert np.abs(s_t - ref_s).max() <= 1e-12 * np.abs(ref_s).max()
    assert np.abs(hess - ref_h).max() <= 1e-12 * np.abs(ref_h).max()
    assert np.array_equal(hess, hess.T)


# outer-product and sandwich -----------------------------------------------------

def test_opg_matches_naive_per_time_loop(small_net, count_panel):
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    theta = np.array([0.9, 0.25, 0.25])
    s_t = _kernel_at(count_panel, small_net, spec, theta)[0]
    naive = np.zeros((3, 3))
    w = small_net.w.toarray()
    for t in range(1, count_panel.t):
        s = np.zeros(3)
        for i in range(small_net.n):
            x = w[i] @ count_panel.values[:, t - 1]
            y_prev = count_panel.values[i, t - 1]
            lam = theta[0] + theta[1] * x + theta[2] * y_prev
            r = count_panel.values[i, t] / lam - 1.0
            s += r * np.array([1.0, x, y_prev])
        naive += np.outer(s, s)
    assert np.allclose(s_t.T @ s_t, naive, rtol=1e-12)


def test_sandwich_scalar_case():
    cov, se, jitter = sandwich_cov(np.array([[4.0]]), np.array([[2.0]]))
    assert cov[0, 0] == pytest.approx(0.125)
    assert se[0] == pytest.approx(np.sqrt(0.125))
    assert jitter == 0


def test_sandwich_reduces_to_inverse_when_b_equals_h(rs):
    a = rs.normal(size=(4, 4))
    h = a @ a.T + 4 * np.eye(4)
    cov, _, _ = sandwich_cov(h, h)
    assert np.allclose(cov, np.linalg.inv(h), atol=1e-10)


def test_sandwich_psd_across_fit_batch(small_net):
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    cop = na.CopulaSpec("ar1", 0.5)
    for r in range(40):
        panel = na.simulate_count(spec, small_net, cop,
                                  SimConfig(T=80, burn_in=100, seed=300 + r))
        fit = qmle_fit(panel, small_net, spec)
        assert np.linalg.eigvalsh(fit.cov).min() >= -1e-10


# Newton QMLE --------------------------------------------------------------------

def test_qmle_converges_and_scores_vanish(small_net, count_panel):
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    fit = qmle_fit(panel=count_panel, net=small_net, spec=spec)
    assert fit.converged
    assert np.max(np.abs(fit.score_at_opt)) < 1e-6 * fit.n_obs
    assert fit.method == "QMLE"


def test_qmle_from_truth_on_tiny_panel_converges(small_net):
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    panel = na.simulate_count(spec, small_net, na.CopulaSpec("identity"),
                              SimConfig(T=12, burn_in=50, seed=9))
    fit = qmle_fit(panel, small_net, spec, theta0=np.array([1.0, 0.3, 0.2]))
    assert fit.converged
    assert np.max(np.abs(fit.score_at_opt)) < 1e-6 * fit.n_obs


_FIT_SPECS = {
    "linear": ModelSpec.linear((1.0, 0.3, 0.2), "count"),
    "drift": ModelSpec.drift((1.0, 0.3, 0.2), 0.5, "count"),
    "stnar": ModelSpec.stnar((1.0, 0.3, 0.2), 0.3, 1.0, "count"),
    "tnar": ModelSpec.tnar((1.0, 0.3, 0.2), (0.5, 0.1, 0.0), 1.2, "count"),
}


@pytest.mark.parametrize("n", [30, 200])
@pytest.mark.parametrize("structure, rho, family", [
    pytest.param(structure, rho, family,
                 id=f"{structure}-{rho}" + ("" if family == "linear" else f"-{family}"))
    for family in _FIT_SPECS for structure, rho in (("identity", 0.0), ("ar1", 0.5),
                                                    ("exch", 0.3))])
def test_qmle_parts_equal_the_shared_kernel_at_theta_hat(n, structure, rho, family,
                                                          monkeypatch):
    # the fit writes its weights into reused buffers and keeps the derivative
    # stack of a mean linear in theta; its curvature, score and likelihood
    # must be exactly the shared kernel's at theta_hat however the Newton loop
    # ends: by the score criterion, by a collapsed step (no score criterion),
    # by a failed line search (four of the drift and tnar fits here do not
    # converge) or by the iteration cap (one iteration)
    net = na.gen_sbm(n, 2, seed=31)
    spec = _FIT_SPECS[family]
    panel = na.simulate_count(spec, net, na.CopulaSpec(structure, rho),
                              SimConfig(T=120, burn_in=100, seed=32))
    y_now, y_lag, x_lag = lagged_design(panel, net)
    for knob, value in ((None, None), ("_SCORE_TOL", 0.0), ("_MAX_ITER", 1)):
        with monkeypatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")     # "QMLE did not converge"
            if knob:
                mp.setattr(qmle, knob, value)
            fit = qmle_fit(panel, net, spec)
        s_t, hess = _kernel_at(panel, net, spec, fit.theta_hat)
        assert np.array_equal(fit.hessian, hess)
        assert np.array_equal(fit.score_at_opt, s_t.sum(axis=0))
        assert np.array_equal(fit.opg, s_t.T @ s_t)
        sp = spec.with_active(fit.theta_hat)
        assert fit.loglik == _poisson_loglik(y_now, mean_elementwise(sp, x_lag, y_lag))
        if family in ("linear", "drift"):
            assert fit.loglik == pytest.approx(
                reference.poisson_loglik(panel.values, net.w, fit.theta_hat), rel=1e-14)
        assert knob != "_MAX_ITER" or fit.iterations == 1
        # converged means the score is below tolerance once the entries of
        # coordinates on the bound that point out of the box are dropped
        free = np.where((fit.theta_hat <= qmle._LOWER) & (fit.score_at_opt < 0), 0.0,
                        fit.score_at_opt)
        assert not fit.converged or np.max(np.abs(free)) < 1e-6 * fit.n_obs


@pytest.mark.filterwarnings("ignore:QMLE did not converge")
def test_fits_hand_over_their_design_and_fitted_mean(small_net, count_panel, cont_panel):
    # what the linearity tests read instead of building it again, bit for bit
    specs = (ModelSpec.linear((1.0, 0.2, 0.2), "count"),
             ModelSpec.tnar((0.5, 0.2, 0.2), (0.3, 0.1, 0.0), 1.5, "count"))
    fits = [(count_panel, sp, qmle_fit(count_panel, small_net, sp)) for sp in specs]
    fits.append((cont_panel, ModelSpec.linear((0.0, 0.0, 0.0), "cont"),
                 ols_fit_linear(cont_panel, small_net)))
    for panel, spec, fit in fits:
        y_now, y_lag, x_lag = lagged_design(panel, small_net)
        # the stack's first three rows are (1, X, Y): the fit holds X and Y there only
        assert np.array_equal(fit.stack[1], x_lag) and np.array_equal(fit.stack[2], y_lag)
        assert not hasattr(fit, "design")
        lam = mean_elementwise(spec.with_active(fit.theta_hat), x_lag, y_lag)
        want = _weights(spec.domain, y_now, lam)
        assert np.array_equal(fit.weights[0], want[0])
        assert fit.weights[1] is want[1] is None or np.array_equal(fit.weights[1], want[1])
        assert not {"stack", "weights"} & fit.to_dict().keys()


def test_null_fits_hand_over_their_linear_block(small_net, count_panel, cont_panel):
    # every linearity test reads the (1, X, Y) stack, its per-time scores at the
    # fitted mean and their curvature from the null fit, so each must be the
    # shared kernel's on the lagged design with the fit's weights, bit for bit
    fits = (qmle_fit(count_panel, small_net, ModelSpec.linear((1.0, 0.2, 0.2), "count")),
            ols_fit_linear(cont_panel, small_net))
    for panel, fit in zip((count_panel, cont_panel), fits):
        _, y_lag, x_lag = lagged_design(panel, small_net)
        assert np.array_equal(fit.stack, np.stack([np.ones_like(x_lag), x_lag, y_lag]))
        s_t, hess = _score_parts(fit.stack, *fit.weights)
        assert np.array_equal(fit.scores, s_t)
        assert np.array_equal(fit.hessian, hess)
        assert not {"stack", "scores"} & fit.to_dict().keys()


def test_qmle_collapsed_step_on_the_bound_is_not_converged():
    # the Newton steps of this stnar fit collapse with the rate g pinned at the
    # 1e-8 bound while the scores of the free coordinates are thousands of
    # times the tolerance
    net = na.gen_sbm(30, 2, seed=31)
    panel = na.simulate_count(_FIT_SPECS["linear"], net, na.CopulaSpec("identity"),
                              SimConfig(T=150, burn_in=100, seed=700))
    with pytest.warns(UserWarning, match="did not converge"):
        fit = qmle_fit(panel, net, _FIT_SPECS["stnar"])
    assert not fit.converged and fit.iterations < qmle._MAX_ITER
    assert fit.theta_hat[3] == qmle._LOWER
    assert np.max(np.abs(fit.score_at_opt[:3])) > 1000 * 1e-6 * fit.n_obs


def test_qmle_permutation_invariance(small_net, count_panel, rs):
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    fit = qmle_fit(count_panel, small_net, spec)
    perm = rs.permutation(small_net.n)
    net_p = na.row_normalize(
        np.column_stack([perm[small_net.edges[:, 0]], perm[small_net.edges[:, 1]]]),
        small_net.n)
    vals_p = np.empty_like(count_panel.values)
    vals_p[perm] = count_panel.values
    fit_p = qmle_fit(Panel(vals_p), net_p, spec)
    assert np.max(np.abs(fit.theta_hat - fit_p.theta_hat)) < 1e-8


def test_qmle_coverage_of_sandwich_intervals():
    net = na.gen_sbm(60, 2, seed=41)
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    cop = na.CopulaSpec("ar1", 0.5)
    truth = np.array([1.0, 0.3, 0.2])
    hits = total = 0
    for r in range(120):
        panel = na.simulate_count(spec, net, cop,
                                  SimConfig(T=200, burn_in=300, seed=7000 + r))
        fit = qmle_fit(panel, net, spec)
        if not fit.converged:
            continue
        hits += int(np.sum(np.abs(fit.theta_hat - truth) <= 3 * fit.se))
        total += 3
    assert hits / total >= 0.95


def test_qmle_rejects_continuous_spec(small_net, cont_panel):
    # least squares is the linear continuous case; non-linear continuous fits
    # are not offered
    for family in ("drift", "stnar", "tnar"):
        spec = replace(_FIT_SPECS[family], domain="cont")
        with pytest.raises(ValueError,
                           match=f"^a continuous fit takes the linear family only, not {family}$"):
            qmle_fit(cont_panel, small_net, spec)
