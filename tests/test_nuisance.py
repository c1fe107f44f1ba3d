import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import netar as na
from netar.dgp import Panel, SimConfig
from netar import model, qmle
from netar.lintest import _null_design, chi2_sf
from netar.model import ModelSpec, _h_columns, mean_elementwise
from netar.nuisance import (GammaGrid, LMProfile, _node_quantiles, _tnar_bins, _tnar_blocks,
                            aggregate, davies_pvalue, default_grid, lm_profile,
                            run_profile_test, score_bootstrap)
from netar.qmle import _CURV_BLOCK, _score_parts, _weights, lagged_design
from reference import four_term_sigma, tnar_sums


def _profile_from(lm_values, family="stnar"):
    lm_values = np.asarray(lm_values, dtype=float)
    grid = np.linspace(0.1, 2.0, lm_values.size)
    return LMProfile(grid=grid, lm=lm_values, whitened=None, family=family, null_fit=None)


# grids --------------------------------------------------------------------------

def test_stnar_default_grid_spacing():
    grid = default_grid("stnar")
    assert grid.values[0] == pytest.approx(0.05)
    assert grid.values[-1] == pytest.approx(2.0)
    assert np.allclose(np.diff(grid.values), (2.0 - 0.05) / 9)
    assert len(grid) == 10


def test_tnar_grid_quantile_rule(small_net):
    # neighbour averages approximately uniform on {0..10}: extremes near 1, 9
    rs = np.random.default_rng(0)
    t = 2000
    vals = np.empty((small_net.n, t))
    deg = small_net.out_degree.astype(float)
    target = rs.integers(0, 11, size=t).astype(float)  # common integer level
    for s in range(t):
        vals[:, s] = target[s]
    panel = Panel(vals)
    grid = default_grid("tnar", panel=panel, net=small_net)
    assert len(grid) == 10
    assert grid.values[0] == pytest.approx(1.0, abs=0.5)
    assert grid.values[-1] == pytest.approx(9.0, abs=0.5)
    x = small_net.w @ vals[:, :-1]
    assert grid.values[0] > x.min()
    assert grid.values[-1] < x.max()


def test_tnar_grid_rejects_constant_x(small_net):
    panel = Panel(np.full((small_net.n, 50), 3.0))
    with pytest.raises(ValueError):
        default_grid("tnar", panel=panel, net=small_net)


def test_explicit_grid_passthrough():
    g = GammaGrid(np.array([0.2, 0.7, 1.1]))
    assert np.array_equal(g.values, [0.2, 0.7, 1.1])
    with pytest.raises(ValueError):
        GammaGrid(np.array([0.5, 0.5]))


def test_tnar_grid_never_exits_observed_range(small_net):
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    for seed in range(5):
        panel = na.simulate_count(spec, small_net, na.CopulaSpec("identity"),
                                  SimConfig(T=120, seed=seed))
        grid = default_grid("tnar", panel=panel, net=small_net)
        x = small_net.w @ panel.values[:, :-1]
        assert np.all(grid.values > x.min())
        assert np.all(grid.values < x.max())


def _lagged_panel(net, row, domain):
    """A panel with row + 1 columns and its neighbour averages: a count panel's
    take the lattice values k/out-degree, so many cells tie."""
    cfg = SimConfig(T=row + 1, seed=row)
    if domain == "count":
        panel = na.simulate_count(ModelSpec.linear((1.0, 0.3, 0.2), "count"), net,
                                  na.CopulaSpec("identity"), cfg)
    else:
        panel = na.simulate_gaussian(ModelSpec.linear((1.5, 0.4, 0.5), "cont"), net, cfg)
    return panel, lagged_design(panel, net)[2]


# rows of 11, 12 and 399 cells put the interpolation fraction gamma of the 10 and
# 90 percent quantiles at (0, 0), (0.1, 0.9) and (0.8, 0.2)
@pytest.mark.parametrize("row", [11, 12, 399])
@pytest.mark.parametrize("domain", ["count", "cont"])
def test_one_sort_quantiles_equal_numpy(small_net, row, domain):
    _, x = _lagged_panel(small_net, row, domain)
    assert np.array_equal(np.stack(_node_quantiles(x)), np.quantile(x, (0.10, 0.90), axis=1))


@pytest.mark.filterwarnings("ignore:dropped .* threshold grid point")
@pytest.mark.parametrize("row", [11, 12, 399])
@pytest.mark.parametrize("domain", ["count", "cont"])
def test_comparison_bins_equal_searchsorted(small_net, row, domain):
    # grid points on attained values, where a tied cell is not below the point,
    # and the default grid's points between them
    panel, x = _lagged_panel(small_net, row, domain)
    grid = np.unique(np.concatenate([np.unique(x)[::7],
                                     default_grid("tnar", panel, small_net).values]))
    assert np.array_equal(_tnar_bins(grid, x), np.searchsorted(grid, x, side="left"))


# row blocks of the tnar pass ------------------------------------------------------

def _tnar_case(case, domain, small_net, request):
    """(x_lag, y_lag, y_now) of a case; y_lag and y_now are the panel's
    non-contiguous column views."""
    if case == "fixture":
        return lagged_design(request.getfixturevalue(f"{domain}_panel"), small_net)[::-1]
    n, t = case
    if n == 3:          # complete graph: X is the average of the other two nodes
        rs = np.random.default_rng(t)
        v = rs.poisson(3.0, (n, t)).astype(float) if domain == "count" else rs.normal(size=(n, t))
        y_now, y_lag = v[:, 1:], v[:, :-1]
        return 0.5 * (y_lag[[1, 2, 0]] + y_lag[[2, 0, 1]]), y_lag, y_now
    net = na.gen_sbm(n, 5, seed=n)
    panel, _ = _lagged_panel(net, t - 1, domain)
    return lagged_design(panel, net)[::-1]


# (N, T) and the number of row blocks of up to _CURV_BLOCK cells: the fixtures
# fit in one block, N=500 fills 25 blocks of 20 rows, N=507 leaves a last block
# of 7 rows, and a row of 8300 cells is longer than a block, so each is one
@pytest.mark.parametrize("domain", ["count", "cont"])
@pytest.mark.parametrize("case, blocks", [("fixture", 1), ((500, 400), 25), ((507, 400), 26),
                                          ((3, 8301), 3)])
def test_row_blocks_equal_the_one_pass_oracle(small_net, request, case, blocks, domain):
    x, y, y_now = _tnar_case(case, domain, small_net, request)
    assert -(-x.shape[0] // max(1, _CURV_BLOCK // x.shape[1])) == blocks
    lam = 0.5 + 0.3 * x + 0.2 * y
    # grid points below and above the observed X (degenerate), on attained
    # values and between them
    xs = np.unique(x)
    grid = np.unique(np.concatenate([[xs[0] - 1.0, xs[-1] + 1.0], xs[::max(1, xs.size // 6)],
                                     np.quantile(x, [0.3, 0.7])]))
    if domain == "count":
        resid, curf = y_now / lam - 1.0, y_now / (lam * lam)
    else:
        resid, curf = y_now - lam, None
    got = _tnar_blocks(grid, x, y, resid, curf)
    s1, h11, *want = tnar_sums(grid, x, y, resid, curf)
    assert len(got) == 3 and all(np.array_equal(a, b) for a, b in zip(got, want))
    ok = got[0]
    assert not ok[0] and not ok[-1] and ok.any()
    # the profile reads the linear block from the null fit instead: the shared
    # kernel's on the (1, X, Y) stack, which the last bin's sums equal to rounding
    s_t, hess = _score_parts(np.stack([np.ones_like(x), x, y]), resid, curf)
    assert np.allclose(s1, s_t, rtol=0, atol=1e-12 * np.abs(s_t).max())
    assert np.allclose(h11, hess, rtol=0, atol=1e-12 * np.abs(hess).max())


def test_tnar_pass_forms_no_panel_sized_array():
    # N=500, T=400: a block holds 20 rows of 399 cells (7980 <= 2^13), 64 KB per
    # float or index array.  About six such arrays live at once (the bins and
    # their per-time cell index, two curvature products, one product and
    # np.add.at's buffers; the two weights are views of the handed-over
    # ones), 0.4 MB, beside the (3, 399 x 11) per-time sums, 105 KB, and at
    # the end their cumulative sums and the stacked scores, 2 x 105 KB: under
    # 0.9 MB (0.58 MB measured with numpy 2.4).  One float array of all
    # 199 500 cells alone holds 1.6 MB.
    net = na.gen_sbm(500, 5, seed=500)
    panel, _ = _lagged_panel(net, 399, "count")
    y_now, y_lag, x_lag = lagged_design(panel, net)
    resid, curf = _weights("count", y_now, 0.5 + 0.3 * x_lag + 0.2 * y_lag)
    grid = default_grid("tnar", panel, net).values
    tracemalloc.start()
    try:
        _tnar_blocks(grid, x_lag, y_lag, resid, curf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_tnar_profile_holds_x_and_y_once():
    # N=500, T=400: one float array of the 199 500 cells is 1.596 MB.  The peak
    # falls inside a Newton step of the null fit, where these stay live: the
    # (1, X, Y) stack (3 arrays), the two weight buffers (2), the mean at the
    # iterate (1), and the candidate's mean with one temporary of its product or
    # its log (2).  That is 8 arrays, 12.8 MB (12.86 MB measured with numpy
    # 2.4); the tnar pass after the fit adds under 0.9 MB to the 5 the fit
    # hands over.  A lagged X held beside the stack's copy makes 9 (14.46 MB),
    # so the bound is 8.5 arrays.
    net = na.gen_sbm(500, 5, seed=500)
    panel, _ = _lagged_panel(net, 399, "count")
    grid = default_grid("tnar", panel, net)
    tracemalloc.start()
    try:
        lm_profile(panel, net, "tnar", grid, "count")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 500 * 399 * 8


@pytest.mark.filterwarnings("ignore:dropped .* threshold grid point")
@pytest.mark.parametrize("family", ["stnar", "tnar"])
@pytest.mark.parametrize("domain", ["count", "cont"])
def test_profile_test_builds_the_design_once(small_net, request, count_calls, family, domain):
    # the null fit builds the design and forms the weights, the scores and the
    # derivative stack, and hands them to the profile: with an explicit grid
    # the profile forms none of them again
    panel = request.getfixturevalue(f"{domain}_panel")
    grid = default_grid(family, panel, small_net)
    fit = qmle.qmle_fit
    calls = {f: count_calls(f) for f in (lagged_design, _weights, _score_parts,
                                         model.jac_elementwise, fit)}
    _null_design(panel, small_net, domain)
    in_fit = {f: len(c) for f, c in calls.items()}
    run_profile_test(panel, small_net, family, domain, grid=grid, method="bootstrap", reps=9)
    assert in_fit[lagged_design] == in_fit[fit] == 1
    assert {f: len(c) - in_fit[f] for f, c in calls.items()} == in_fit


# profile ------------------------------------------------------------------------

@pytest.mark.parametrize("family, fixture", [("stnar", "cont_panel"),
                                             ("tnar", "count_panel")])
def test_single_point_profile_equals_fixed_gamma_statistic(small_net, family, fixture,
                                                           request):
    panel = request.getfixturevalue(fixture)
    domain = "cont" if fixture == "cont_panel" else "count"
    values = (np.array([0.3, 0.7, 1.2]) if family == "stnar"
              else default_grid("tnar", panel=panel, net=small_net).values)
    k = values.size // 2
    prof = lm_profile(panel, small_net, family, GammaGrid(values[k:k + 1]), domain)
    full = lm_profile(panel, small_net, family, GammaGrid(values), domain)
    assert full.grid[k] == values[k]
    assert prof.lm[0] == pytest.approx(full.lm[k], rel=1e-12)


def _per_point_profile(panel, net, family, grid, domain, null_fit):
    """The profile one grid point at a time on the explicit (1, X, Y, h(g))
    stack: {g: (lm, effective scores)} and the dropped points."""
    y_now, y_lag, x_lag = lagged_design(panel, net)
    lam = mean_elementwise(ModelSpec.linear(null_fit.theta_hat, domain), x_lag, y_lag)
    resid, curf = _weights(domain, y_now, lam)
    kept, dropped = {}, []
    for g in grid:
        cols = _h_columns(family, g, x_lag, y_lag)
        if (any(np.max(np.abs(c)) == 0.0 for c in cols)
                or (family == "tnar" and cols[0].mean() in (0.0, 1.0))):
            dropped.append((float(g), "degenerate nonlinear regressors"))
            continue
        s_t, hess = _score_parts(np.stack([np.ones_like(x_lag), x_lag, y_lag, *cols]),
                                 resid, curf)
        sigma = four_term_sigma(hess, s_t.T @ s_t, 3)
        vals = np.linalg.eigvalsh(sigma)
        if np.sum(vals > max(1e-12 * vals.max(), np.finfo(float).tiny)) < len(cols):
            dropped.append((float(g), "singular score covariance"))
            continue
        effective = s_t[:, 3:] - s_t[:, :3] @ np.linalg.solve(hess[:3, :3], hess[:3, 3:])
        total = effective.sum(axis=0)
        kept[float(g)] = (float(total @ np.linalg.solve(sigma, total)), effective)
    return kept, dropped


def _lattice_grid(panel, net):
    """Attained neighbour averages (multiples of 1/out-degree) across the
    default grid's range, plus points below, at and above the extremes."""
    x = net.w @ panel.values[:, :-1]
    inner = default_grid("tnar", panel=panel, net=net).values
    attained = np.unique(x)
    attained = attained[(attained >= inner[0]) & (attained <= inner[-1])][::4]
    return np.unique(np.concatenate([attained, [x.min() - 1.0, x.min(), x.max(),
                                                x.max() + 1.0]]))


@pytest.mark.parametrize("family, fixture, grid_kind", [
    ("stnar", "count_panel", "default"), ("stnar", "cont_panel", "default"),
    ("tnar", "count_panel", "default"), ("tnar", "cont_panel", "default"),
    ("tnar", "count_panel", "lattice"), ("tnar", "cont_panel", "extremes")])
def test_profile_matches_per_point_reference(small_net, family, fixture, grid_kind,
                                             request):
    panel = request.getfixturevalue(fixture)
    domain = "cont" if fixture == "cont_panel" else "count"
    if grid_kind == "default":
        grid = default_grid(family, panel=panel, net=small_net)
    elif grid_kind == "lattice":
        grid = GammaGrid(_lattice_grid(panel, small_net))
    else:
        x = small_net.w @ panel.values[:, :-1]
        inner = default_grid("tnar", panel=panel, net=small_net).values
        grid = GammaGrid(np.concatenate([[x.min() - 1.0, x.min()], inner,
                                         [x.max(), x.max() + 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prof = lm_profile(panel, small_net, family, grid, domain)
    kept, dropped = _per_point_profile(panel, small_net, family, grid.values, domain,
                                       prof.null_fit)
    assert list(prof.grid) == list(kept)
    assert prof.dropped == dropped
    if grid_kind != "default":
        assert [g for g, _ in dropped][-2:] == list(grid.values[-2:])

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    for k, (lm, effective) in enumerate(kept.values()):
        assert prof.lm[k] == pytest.approx(lm, rel=1e-10)
        # U has orthonormal columns spanning the reference effective scores
        u = prof.whitened[k]
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), rtol=0, atol=1e-12)
        assert rel(u @ (u.T @ effective), effective) <= 1e-10


def test_huge_gamma_point_dropped_with_warning(small_net, cont_panel):
    grid = GammaGrid(np.array([0.5, 1e6]))
    with pytest.warns(UserWarning, match="dropped"):
        prof = lm_profile(cont_panel, small_net, "stnar", grid, "cont")
    assert prof.lm.size == 1
    assert prof.dropped and prof.dropped[0][0] == pytest.approx(1e6)


@pytest.mark.parametrize("domain", ["count", "cont"])
def test_collinear_grid_point_dropped(small_net, request, domain):
    # at g = 0 the stnar column exp(-g X^2) X is X itself, in the span of the
    # linear block, so its effective score is rounding: weighed against its
    # own size only, it looks full rank and reads lm 0.013 (count) and 3.8e-5
    # (cont) here
    panel = request.getfixturevalue(f"{domain}_panel")
    with pytest.warns(UserWarning, match="dropped 1 grid point"):
        prof = lm_profile(panel, small_net, "stnar", GammaGrid([0.0, 1e-9, 0.05, 0.5]), domain)
    assert prof.dropped == [(0.0, "singular score covariance")]
    assert list(prof.grid) == [1e-9, 0.05, 0.5]


def _assert_whitens(u, effective, sigma, rs):
    """||U'w||^2 = w' E Sigma^-1 E' w for w = 1 and three N(0, 1) draws.  Solving
    with the four-term Sigma at condition number 1.5e6 (the top default tnar
    point on cont_panel) is itself up to 2e-10 from the exact rational value."""
    w = np.column_stack([np.ones(u.shape[0]), rs.normal(size=(u.shape[0], 3))])
    ew = effective.T @ w
    np.testing.assert_allclose(np.sum((u.T @ w) ** 2, axis=0),
                               np.sum(ew * np.linalg.solve(sigma, ew), axis=0), rtol=1e-9)


@pytest.mark.parametrize("family, fixture", [
    ("stnar", "count_panel"), ("stnar", "cont_panel"),
    ("tnar", "count_panel"), ("tnar", "cont_panel")])
def test_profile_sigma_is_the_four_term_correction(small_net, family, fixture, request, rs):
    # lm_profile whitens by the outer product of the effective scores
    panel = request.getfixturevalue(fixture)
    domain = "cont" if fixture == "cont_panel" else "count"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = default_grid(family, panel=panel, net=small_net)
        prof = lm_profile(panel, small_net, family, grid, domain)
    y_now, y_lag, x_lag = lagged_design(panel, small_net)
    lam = mean_elementwise(ModelSpec.linear(prof.null_fit.theta_hat, domain), x_lag, y_lag)
    resid, curf = _weights(domain, y_now, lam)
    for g, u in zip(prof.grid, prof.whitened):
        cols = _h_columns(family, g, x_lag, y_lag)
        s_t, hess = _score_parts(np.stack([np.ones_like(x_lag), x_lag, y_lag, *cols]),
                                 resid, curf)
        effective = s_t[:, 3:] - s_t[:, :3] @ np.linalg.solve(hess[:3, :3], hess[:3, 3:])
        _assert_whitens(u, effective, four_term_sigma(hess, s_t.T @ s_t, 3), rs)


def test_subnormal_score_covariance_dropped(small_net, cont_panel):
    # X lies in [10.8, 17.7], so h(g) = exp(-g X^2) X is below 1e-150 from g = 3.1
    # on and Sigma(3.12875) is subnormal: dropped, not an infinite statistic
    grid = GammaGrid(np.linspace(0.01, 5, 17))
    with pytest.warns(UserWarning, match="dropped"):
        res = run_profile_test(cont_panel, small_net, "stnar", "cont", grid=grid,
                               method="davies")
    assert (3.12875, "singular score covariance") in res.profile.dropped
    assert np.all(np.isfinite(res.profile.lm))
    assert res.davies_p < 1.0


def test_profile_h0_calibration_count():
    # the mean of S statistics at each of the 10 grid points must lie within 0.3
    # of 1.  2700 draws (S = 900 from seeds 6200, 7100 and 8000) read pooled
    # point means 0.97-1.03 and variances 1.80-2.05, and one range of 450 or 900
    # draws variances up to 2.6 (heavy tails), so each point's mean is taken,
    # with room, as a gamma law of mean 1.05 and variance 2.5 / S.  At S = 450
    # it leaves (0.7, 1.3) with probability 0.084%, and by the union bound over
    # the 10 points the test fails a correct program with at most 0.84%
    net = na.gen_sbm(30, 2, seed=61)
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    grid = default_grid("stnar")
    draws = []
    for r in range(450):
        panel = na.simulate_count(spec, net, na.CopulaSpec("ar1", 0.5),
                                  SimConfig(T=300, seed=6200 + r))
        prof = lm_profile(panel, net, "stnar", grid, "count")
        draws.append(prof.lm)
    by_gamma = np.array(draws)
    means = by_gamma.mean(axis=0)
    assert np.all(np.abs(means - 1.0) < 0.3)


def test_effective_score_outer_product_matches_sigma(small_net, cont_panel, rs):
    # the retained bootstrap scores must reproduce the corrected covariance
    full = default_grid("tnar", panel=cont_panel, net=small_net)
    grid = GammaGrid(full.values[[2, 6]])
    prof = lm_profile(cont_panel, small_net, "tnar", grid, "cont")
    y_now, y_lag, x_lag = lagged_design(cont_panel, small_net)
    for k, gamma in enumerate(prof.grid):
        beta = prof.null_fit.theta_hat
        lam = beta[0] + beta[1] * x_lag + beta[2] * y_lag
        resid = y_now - lam
        ind = (x_lag <= gamma).astype(float)
        z = np.stack([np.ones_like(x_lag), x_lag, y_lag, ind, x_lag * ind,
                      y_lag * ind])
        s_t = np.einsum("ant,nt->ta", z, resid)
        hess = np.einsum("ant,bnt->ab", z, z)
        effective = s_t[:, 3:] - s_t[:, :3] @ np.linalg.solve(hess[:3, :3], hess[:3, 3:])
        _assert_whitens(prof.whitened[k], effective,
                        four_term_sigma(hess, s_t.T @ s_t, 3), rs)


def _exact_lm(effective):
    """1' E (E'E)^-1 E' 1 in exact rational arithmetic from the float E."""
    rows = [[Fraction(v) for v in row] for row in effective.tolist()]
    k = len(rows[0])
    total = [sum(r[a] for r in rows) for a in range(k)]
    aug = [[sum(r[a] * r[b] for r in rows) for b in range(k)] + [total[a]] for a in range(k)]
    for i in range(k):                              # Gauss-Jordan; E'E is positive definite
        aug[i] = [v / aug[i][i] for v in aug[i]]
        for j in range(k):
            if j != i:
                aug[j] = [v - aug[j][i] * p for v, p in zip(aug[j], aug[i])]
    return float(sum(total[i] * aug[i][k] for i in range(k)))


def test_ill_conditioned_tnar_point_matches_exact_lm(small_net, cont_panel):
    # the top point counts all but 3 of 5970 cells and cond(Sigma) = 1.9e10
    # there: inverting Sigma = E'E instead of whitening E left lm 2.8e-6 off
    x = small_net.w @ cont_panel.values[:, :-1]
    grid = GammaGrid(np.quantile(x, np.linspace(0.001, 0.9995, 40)))
    prof = lm_profile(cont_panel, small_net, "tnar", grid, "cont")
    assert np.array_equal(prof.grid, grid.values)
    y_now, y_lag, x_lag = lagged_design(cont_panel, small_net)
    lam = mean_elementwise(ModelSpec.linear(prof.null_fit.theta_hat, "cont"), x_lag, y_lag)
    _, s2, h12 = _tnar_blocks(grid.values, x_lag, y_lag, y_now - lam, None)
    s1, h11 = prof.null_fit.scores, prof.null_fit.hessian
    effective = s2 - s1 @ np.linalg.solve(h11, h12)
    assert np.linalg.cond(effective[-1]) ** 2 > 1e10
    lm = _exact_lm(effective[-1])
    assert abs(prof.lm[-1] - lm) <= 1e-9 * lm


# aggregation and Davies ---------------------------------------------------------

def test_aggregate_examples():
    prof = _profile_from([1.0, 3.0, 2.0])
    assert aggregate(prof, "sup") == 3.0
    assert aggregate(prof, "ave") == 2.0
    single = _profile_from([4.2, 4.2])
    assert aggregate(single, "sup") == aggregate(single, "ave")


def test_sup_dominates_ave_on_random_profiles(rs):
    for _ in range(50):
        prof = _profile_from(rs.uniform(0, 8, rs.integers(2, 12)))
        assert aggregate(prof, "sup") >= aggregate(prof, "ave")


def test_davies_constant_profile_reduces_to_chi2_tail():
    prof = _profile_from([2.5, 2.5, 2.5, 2.5])
    assert davies_pvalue(prof) == pytest.approx(chi2_sf(2.5, 1))


def test_davies_worked_example():
    # sup 4 with total variation of sqrt(LM) equal to 2
    prof = _profile_from([0.0, 4.0])
    expected = chi2_sf(4.0, 1) + 2.0 * math.exp(-2.0) / math.sqrt(2 * math.pi)
    assert expected == pytest.approx(0.1535, abs=2e-3)
    assert davies_pvalue(prof) == pytest.approx(expected, abs=1e-12)


def test_davies_capped_at_one():
    prof = _profile_from([0.0, 0.0])
    assert davies_pvalue(prof) == 1.0


def test_davies_dominates_pointwise_tail(rs):
    for _ in range(100):
        prof = _profile_from(rs.uniform(0, 10, rs.integers(2, 10)))
        assert davies_pvalue(prof) >= chi2_sf(prof.lm.max(), 1) - 1e-15


def test_davies_rejects_threshold_family():
    prof = _profile_from([1.0, 2.0], family="tnar")
    with pytest.raises(ValueError):
        davies_pvalue(prof)


def test_davies_needs_two_grid_points():
    prof = _profile_from([2.0])
    with pytest.raises(ValueError):
        davies_pvalue(prof)


# bootstrap ----------------------------------------------------------------------

def test_bootstrap_counting_bounds(small_net, cont_panel):
    prof = lm_profile(cont_panel, small_net, "stnar",
                      GammaGrid(np.array([0.3, 0.9])), "cont")
    # artificially shift the observed statistic to the extremes
    lo = dataclasses.replace(prof, lm=np.full_like(prof.lm, -1.0))
    p_lo, _ = score_bootstrap(lo, reps=50, seed=3)
    assert p_lo == 1.0
    hi = dataclasses.replace(prof, lm=np.full_like(prof.lm, 1e9))
    p_hi, _ = score_bootstrap(hi, reps=50, seed=3)
    assert p_hi == 0.0


def test_bootstrap_default_reps_matches_convention():
    import inspect
    assert inspect.signature(score_bootstrap).parameters["reps"].default == 499
    assert inspect.signature(run_profile_test).parameters["reps"].default == 499


def test_unit_weights_reproduce_observed_profile(small_net, count_panel, cont_panel):
    for panel, dom in ((cont_panel, "cont"), (count_panel, "count")):
        prof = lm_profile(panel, small_net, "stnar",
                          GammaGrid(np.array([0.2, 0.8, 1.5])), dom)
        ones = np.ones(prof.whitened.shape[1])
        for k in range(prof.lm.size):
            lm_unit = float(np.sum((prof.whitened[k].T @ ones) ** 2))
            assert lm_unit == pytest.approx(prof.lm[k], rel=1e-6, abs=1e-8)


def test_bootstrap_deterministic_given_seed(small_net, cont_panel):
    prof = lm_profile(cont_panel, small_net, "stnar",
                      GammaGrid(np.array([0.3, 0.9])), "cont")
    p1, d1 = score_bootstrap(prof, reps=99, seed=11)
    p2, d2 = score_bootstrap(prof, reps=99, seed=11)
    p3, _ = score_bootstrap(prof, reps=99, seed=12)
    assert p1 == p2 and np.array_equal(d1, d2)
    assert not np.isclose(p1, p3) or not np.array_equal(d1, _)
    # the first replications do not depend on how many follow
    _, d4 = score_bootstrap(prof, reps=50, seed=11)
    np.testing.assert_allclose(d4, d1[:50], rtol=1e-12, atol=0)


def test_bootstrap_p_nonincreasing_in_observed_statistic(small_net, cont_panel):
    prof = lm_profile(cont_panel, small_net, "stnar",
                      GammaGrid(np.array([0.3, 0.9])), "cont")
    _, draws = score_bootstrap(prof, reps=200, seed=5)
    grid_stats = np.linspace(0, np.quantile(draws, 0.99), 20)
    pvals = [np.mean(draws >= g) for g in grid_stats]
    assert np.all(np.diff(pvals) <= 0)


def test_run_profile_test_shapes(small_net, cont_panel):
    res = run_profile_test(cont_panel, small_net, "stnar", "cont",
                           method="both", reps=59, seed=2)
    assert res.g_sup >= res.g_ave >= 0.0
    assert 0.0 <= res.davies_p <= 1.0
    assert 0.0 <= res.boot_p <= 1.0
    assert res.boot_reps == 59
    d = res.to_dict()
    assert len(d["profile"]) == len(d["grid"])

    res_t = run_profile_test(cont_panel, small_net, "tnar", "cont",
                             method="bootstrap", reps=59, seed=2)
    assert res_t.davies_p is None
    with pytest.raises(ValueError):
        run_profile_test(cont_panel, small_net, "tnar", "cont", method="davies")


@pytest.mark.parametrize("method", ["Davies", "boot", ""])
def test_run_profile_test_rejects_an_unknown_method(small_net, cont_panel, monkeypatch,
                                                    method):
    # checked before the profile is computed, which would otherwise return
    # neither p-value
    monkeypatch.setattr("netar.nuisance.lm_profile",
                        lambda *args: pytest.fail("the profile was computed"))
    with pytest.raises(ValueError, match="'davies', 'bootstrap' or 'both'"):
        run_profile_test(cont_panel, small_net, "stnar", "cont", method=method)
