"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
numbers (run with ``pytest tests/test_acceptance.py -v -s``).  The oracle
and property checks run first; the Monte Carlo criteria follow, every one
driven through the deterministic study harness, so a rerun reproduces the
same numbers bit for bit.  The real-data criterion runs only when the
datasets are present under data/.
"""

import math
import os

import numpy as np
import pytest
from scipy import stats

import netar as na
import reference
from netar import rng
from netar.dgp import CopulaSpec, Panel, SimConfig
from netar.lintest import chi2_sf
from netar.model import (ModelSpec, cond_mean, hess_elementwise, jac_elementwise,
                         mean_elementwise)
from netar.nuisance import GammaGrid, davies_pvalue, lm_profile
from netar.qmle import _score_parts, _weights, lagged_design, ols_fit_linear, qmle_fit
from netar.studio import Scenario, StudyConfig, load_panel_csv, run_mc_study
from netar.netgraph import load_edges

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
# the studies run on every core: draws do not depend on the worker count
WORKERS = len(os.sched_getaffinity(0))


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _rates(rows):
    return {round(r.level, 2): r.rejection_rate for r in rows}


# ---------------------------------------------------------------------------
# Criterion 8 first: the oracle and property suite gates the MC criteria.
# ---------------------------------------------------------------------------

def test_criterion_08_oracle_suite():
    checks = []
    net = na.gen_sbm(25, 2, seed=801)
    spec = ModelSpec.linear((1.0, 0.3, 0.2), "count")
    panel = na.simulate_count(spec, net, CopulaSpec("ar1", 0.5),
                              SimConfig(T=120, burn_in=150, seed=802))

    # the shared kernel's score and hessian against central and mixed second
    # differences of the reference likelihood, 20 points
    y_now, y_lag, x_lag = lagged_design(panel, net)

    def kernel_at(sp):
        return _score_parts(jac_elementwise(sp, x_lag, y_lag),
                            *_weights(sp.domain, y_now, mean_elementwise(sp, x_lag, y_lag)),
                            hess_elementwise(sp, x_lag, y_lag))

    def loglik(theta):
        return reference.poisson_loglik(panel.values, net.w, theta)

    rs = np.random.default_rng(803)
    worst_s = worst_h = 0.0
    for _ in range(20):
        theta = np.array([rs.uniform(0.5, 2.0), rs.uniform(0.05, 0.45),
                          rs.uniform(0.05, 0.45)])
        s_t, hess = kernel_at(spec.with_active(theta))
        s = s_t.sum(axis=0)
        h = 1e-6
        for j in range(3):
            step = h * np.eye(3)[j]
            fd_s = (loglik(theta + step) - loglik(theta - step)) / (2 * h)
            worst_s = max(worst_s, abs(s[j] - fd_s) / (abs(fd_s) + 1e-8))
        fd_h = reference.second_differences(loglik, theta, 1e-4)
        worst_h = max(worst_h, float(np.max(np.abs(hess + fd_h) / (np.abs(fd_h) + 1.0))))
    checks.append(("score FD", worst_s < 1e-6, f"{worst_s:.2e}"))
    checks.append(("hessian FD", worst_h < 1e-5, f"{worst_h:.2e}"))

    # OLS closed form against a numerical optimizer (gradient-driven BFGS,
    # an iterative route independent of the normal equations)
    from scipy.optimize import minimize
    netc = na.gen_sbm(30, 2, seed=804)
    cpanel = na.simulate_gaussian(ModelSpec.linear((1.5, 0.4, 0.5), "cont"),
                                  netc, SimConfig(T=150, seed=805))
    fit = ols_fit_linear(cpanel, netc)
    cy_now, cy_lag, cx_lag = lagged_design(cpanel, netc)
    design = np.stack([np.ones_like(cx_lag), cx_lag, cy_lag])

    def neg_grad(th):
        resid = cy_now - (th[0] + th[1] * cx_lag + th[2] * cy_lag)
        return -np.einsum("ant,nt->a", design, resid)

    opt = minimize(lambda th: -reference.lsq_loglik(cpanel.values, netc.w, th),
                   x0=np.array([1.0, 0.3, 0.3]), jac=neg_grad, method="BFGS",
                   options={"gtol": 1e-12})
    gap = float(np.max(np.abs(opt.x - fit.theta_hat)))
    checks.append(("OLS vs optimizer", gap < 1e-6, f"{gap:.2e}"))

    # copula-Poisson marginal goodness of fit of the waiting-time construction,
    # 25,000 draws of 4 dependent nodes; each node at p > 0.01/4, so the false
    # alarm is at most 1%
    gen = rng.stream(806)
    draws = np.array([na.copula_poisson_draw(np.full(4, 2.0), CopulaSpec("exch", 0.3), gen)
                      for _ in range(25_000)])
    pvalues = []
    for node in draws.T:
        kmax = int(node.max())
        observed = np.bincount(node, minlength=kmax + 1)
        expected = node.size * stats.poisson(2.0).pmf(np.arange(kmax + 1))
        cut = np.argmax(expected < 5) or expected.size
        observed = np.concatenate([observed[:cut], [observed[cut:].sum()]])
        expected = np.concatenate([expected[:cut], [expected[cut:].sum()]])
        pvalues.append(stats.chisquare(observed, expected * observed.sum()
                                       / expected.sum()).pvalue)
    checks.append(("Poisson(2) GOF at 1%", min(pvalues) > 0.01 / 4,
                   f"min p={min(pvalues):.3f}"))

    # row stochasticity
    worst_row = 0.0
    for s in range(5):
        g = na.gen_sbm(150, 3, seed=810 + s)
        rows = np.asarray(g.w.sum(axis=1)).ravel()
        worst_row = max(worst_row, float(np.max(np.abs(rows[g.out_degree > 0] - 1.0))))
    checks.append(("W row sums", worst_row < 1e-12, f"{worst_row:.2e}"))

    # reduction identities, exact
    y = np.random.default_rng(811).uniform(0, 5, net.n)
    lin = cond_mean(ModelSpec.linear((1.0, 0.3, 0.2), "count"), net, y)
    red_ok = (
        np.array_equal(cond_mean(ModelSpec.drift((1.0, 0.3, 0.2), 0.0, "count"), net, y), lin)
        and np.array_equal(cond_mean(ModelSpec.stnar((1.0, 0.3, 0.2), 0.0, 0.7, "count"), net, y), lin)
        and np.array_equal(cond_mean(ModelSpec.tnar((1.0, 0.3, 0.2), (0, 0, 0), 0.7, "count"), net, y), lin))
    checks.append(("reduction identities", red_ok, "exact"))

    # the drift test's score covariance against the reference four-term formula
    # of the kernel's per-time scores and curvature at the null fit
    res = na.lm_test(panel, net, ModelSpec.drift((1.0, 0.3, 0.2), 0.0, "count"))
    s_t, hess = kernel_at(ModelSpec.drift(res.null_fit.theta_hat, 0.0, "count"))
    four_term = reference.four_term_sigma(hess, s_t.T @ s_t, 3)
    gap_sig = float(np.max(np.abs(res.sigma_used - four_term)) / np.max(np.abs(four_term)))
    checks.append(("sigma four-term", gap_sig < 1e-12, f"{gap_sig:.2e}"))

    # Davies bound dominates the pointwise tail on 100 random profiles
    rs3 = np.random.default_rng(813)
    dominated = True
    for _ in range(100):
        lm = rs3.uniform(0, 10, rs3.integers(2, 12))
        grid = np.linspace(0.1, 2.0, lm.size)
        prof = na.LMProfile(grid=grid, lm=lm, whitened=None, family="stnar", null_fit=None)
        if davies_pvalue(prof) < chi2_sf(float(lm.max()), 1) - 1e-15:
            dominated = False
    checks.append(("Davies dominates pointwise", dominated, "100 profiles"))

    # unit bootstrap weights reproduce the observed profile
    prof = lm_profile(panel, net, "stnar", GammaGrid(np.array([0.2, 0.8, 1.5])),
                      "count")
    ones = np.ones(prof.whitened.shape[1])
    ident = max(abs(float(np.sum((u.T @ ones) ** 2)) - prof.lm[k])
                for k, u in enumerate(prof.whitened))
    checks.append(("bootstrap unit-weight identity", ident < 1e-6, f"{ident:.2e}"))

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name} {'ok' if good else 'FAIL'} ({info})"
                       for name, good, info in checks)
    _report(8, ok, detail)


# ---------------------------------------------------------------------------
# Monte Carlo criteria.
# ---------------------------------------------------------------------------

def test_criterion_01_continuous_chi2_size():
    cfg = StudyConfig(scenarios=[Scenario.from_dict({
        "name": "cont-size", "network": {"model": "sbm", "k": 2},
        "n": 200, "t": 300, "domain": "cont", "theta": (1.5, 0.4, 0.5),
        "reps": 2000, "test": {"kind": "chi2"}, "burn_in": 0,
    })], base_seed=20240601)
    rows, _ = run_mc_study(cfg, threads=WORKERS)
    rates = _rates(rows)
    paper = {0.10: 0.110, 0.05: 0.044, 0.01: 0.006}
    tol = {0.10: 0.030, 0.05: 0.020, 0.01: 0.010}
    ok = (all(abs(rates[lv] - paper[lv]) <= tol[lv] for lv in paper)
          and rows[0].elapsed <= 600.0)
    _report(1, ok, f"size {rates} vs {paper} within {tol}; "
                   f"elapsed {rows[0].elapsed:.0f}s <= 600s")


def test_criterion_02_continuous_chi2_power():
    cfg = StudyConfig(scenarios=[Scenario.from_dict({
        "name": "cont-power", "network": {"model": "sbm", "k": 2},
        "n": 200, "t": 300, "domain": "cont", "theta": (1.5, 0.4, 0.5),
        "dgp_family": "drift", "theta2": (1.0,), "init": "linear-stationary",
        "burn_in": 0, "reps": 500, "test": {"kind": "chi2"},
    })], base_seed=20240602)
    rows, _ = run_mc_study(cfg, threads=WORKERS)
    rate = _rates(rows)[0.10]
    _report(2, rate >= 0.95, f"power at 10% = {rate:.3f} (need >= 0.95, paper 0.994)")


def test_criterion_03_count_chi2_size():
    cfg = StudyConfig(scenarios=[Scenario.from_dict({
        "name": "count-size", "network": {"model": "sbm", "k": 5},
        "n": 200, "t": 300, "domain": "count", "theta": (1.0, 0.3, 0.2),
        "copula": {"structure": "ar1", "rho": 0.5}, "burn_in": 300,
        "reps": 2000, "test": {"kind": "chi2"},
    })], base_seed=20240603)
    rows, _ = run_mc_study(cfg, threads=WORKERS)
    rates = _rates(rows)
    paper = {0.10: 0.108, 0.05: 0.042, 0.01: 0.008}
    tol = {0.10: 0.030, 0.05: 0.020, 0.01: 0.012}
    ok = all(abs(rates[lv] - paper[lv]) <= tol[lv] for lv in paper)
    _report(3, ok, f"size {rates} vs {paper} within {tol}")


def test_criterion_04_null_lm_distribution():
    cfg = StudyConfig(scenarios=[Scenario.from_dict({
        "name": "lm-null", "network": {"model": "sbm", "k": 2},
        "n": 100, "t": 200, "domain": "cont", "theta": (1.5, 0.4, 0.5),
        "burn_in": 0, "reps": 2000, "test": {"kind": "chi2"},
    })], base_seed=20240604)
    _, raw = run_mc_study(cfg, threads=WORKERS)
    lm = raw["lm-null"]
    ks = stats.kstest(lm, stats.chi2(1).cdf).statistic
    mean, var = float(lm.mean()), float(lm.var())
    ok = ks < 0.06 and 0.85 <= mean <= 1.15 and 1.5 <= var <= 2.5
    _report(4, ok, f"KS {ks:.4f} (<0.06), mean {mean:.3f} in [0.85,1.15], "
                   f"var {var:.3f} in [1.5,2.5]")


def test_criterion_05_davies_stnar_size():
    cfg = StudyConfig(scenarios=[Scenario.from_dict({
        "name": "davies-size", "network": {"model": "sbm", "k": 2},
        "n": 200, "t": 200, "domain": "cont", "theta": (1.0, 0.3, 0.2),
        "burn_in": 0, "reps": 2000,
        "test": {"kind": "davies", "alt": "stnar"},
    })], base_seed=20240605)
    rows, _ = run_mc_study(cfg, threads=WORKERS)
    rates = _rates(rows)
    ok = all(rates[lv] <= lv + 0.02 and rates[lv] >= lv - 0.06
             for lv in (0.10, 0.05, 0.01))
    _report(5, ok, f"size {rates}; conservative bound nominal+0.02, "
                   "floor nominal-0.06 (paper 0.078/0.045/0.012)")


def test_criterion_06_davies_stnar_power():
    cfg = StudyConfig(scenarios=[Scenario.from_dict({
        "name": "davies-power", "network": {"model": "sbm", "k": 2},
        "n": 200, "t": 200, "domain": "cont", "theta": (1.0, 0.3, 0.2),
        "dgp_family": "stnar", "theta2": (0.5, 0.05), "init": 0.0,
        "burn_in": 0, "reps": 200,
        "test": {"kind": "davies", "alt": "stnar"},
    })], base_seed=20240606)
    rows, _ = run_mc_study(cfg, threads=WORKERS)
    rate = _rates(rows)[0.10]
    _report(6, rate >= 0.85, f"power at 10% = {rate:.3f} (need >= 0.85, paper 0.921)")


def test_criterion_07_bootstrap_tnar():
    size_cfg = StudyConfig(scenarios=[Scenario.from_dict({
        "name": "boot-size", "network": {"model": "sbm", "k": 2},
        "n": 8, "t": 1000, "domain": "cont", "theta": (1.0, 0.3, 0.2),
        "burn_in": 0, "init": "linear-stationary", "reps": 1000,
        "test": {"kind": "bootstrap", "alt": "tnar", "J": 299, "agg": "sup"},
    })], base_seed=20240607)
    rows, _ = run_mc_study(size_cfg, threads=WORKERS)
    size5 = _rates(rows)[0.05]

    power_cfg = StudyConfig(scenarios=[Scenario.from_dict({
        "name": "boot-power", "network": {"model": "sbm", "k": 2},
        "n": 8, "t": 1000, "domain": "cont", "theta": (1.0, 0.3, 0.2),
        "dgp_family": "tnar", "theta2": (0.5, 0.2, 0.1, 1.0),
        "burn_in": 0, "init": "linear-stationary", "reps": 100,
        "test": {"kind": "bootstrap", "alt": "tnar", "J": 299, "agg": "sup"},
    })], base_seed=20240608)
    rows_p, _ = run_mc_study(power_cfg, threads=WORKERS)
    power10 = _rates(rows_p)[0.10]
    elapsed = rows[0].elapsed + rows_p[0].elapsed
    ok = size5 <= 0.07 and power10 >= 0.99 and elapsed <= 1200.0
    _report(7, ok, f"size at 5% = {size5:.3f} (<= 0.07, paper 0.002); "
                   f"power at 10% = {power10:.3f} (>= 0.99, paper 1.000); "
                   f"elapsed {elapsed:.0f}s <= 1200s")


def test_criterion_09_stationary_means():
    net = na.gen_sbm(200, 2, seed=901)

    panel_c = na.simulate_gaussian(ModelSpec.linear((1.5, 0.4, 0.5), "cont"), net,
                                   SimConfig(T=5000, seed=902))
    blocks = panel_c.values.mean(axis=0).reshape(50, 100).mean(axis=1)
    se_c = blocks.std(ddof=1) / math.sqrt(blocks.size)
    gap_c = abs(panel_c.values.mean() - 15.0)

    panel_p = na.simulate_count(ModelSpec.linear((1.0, 0.3, 0.2), "count"), net,
                                CopulaSpec("ar1", 0.5),
                                SimConfig(T=5000, burn_in=300, seed=903))
    blocks_p = panel_p.values.mean(axis=0).reshape(50, 100).mean(axis=1)
    se_p = blocks_p.std(ddof=1) / math.sqrt(blocks_p.size)
    gap_p = abs(panel_p.values.mean() - 2.0)

    ok = gap_c < 3 * se_c and gap_p < 3 * se_p
    _report(9, ok, f"continuous |mean-15| = {gap_c:.4f} < {3 * se_c:.4f}; "
                   f"count |mean-2| = {gap_p:.4f} < {3 * se_p:.4f}")


# ---------------------------------------------------------------------------
# Full-scale cells (opt-in via --full): the N=500, T=400, S=1000 rows.
# ---------------------------------------------------------------------------

@pytest.mark.full_scale
def test_full_scale_continuous_chi2():
    cfg = StudyConfig(scenarios=[
        Scenario.from_dict({
            "name": "full-cont-size", "network": {"model": "sbm", "k": 2},
            "n": 500, "t": 400, "domain": "cont", "theta": (1.5, 0.4, 0.5),
            "reps": 1000, "test": {"kind": "chi2"}, "burn_in": 0,
        }),
        Scenario.from_dict({
            "name": "full-cont-power", "network": {"model": "sbm", "k": 2},
            "n": 500, "t": 400, "domain": "cont", "theta": (1.5, 0.4, 0.5),
            "dgp_family": "drift", "theta2": (1.0,),
            "init": "linear-stationary", "burn_in": 0,
            "reps": 1000, "test": {"kind": "chi2"},
        }),
    ], base_seed=20240610)
    rows, _ = run_mc_study(cfg, threads=WORKERS)
    size = {round(r.level, 2): r.rejection_rate for r in rows
            if r.scenario == "full-cont-size"}
    power = {round(r.level, 2): r.rejection_rate for r in rows
             if r.scenario == "full-cont-power"}
    paper = {0.10: 0.105, 0.05: 0.050, 0.01: 0.006}
    ok = (all(abs(size[lv] - paper[lv]) <= tol
              for lv, tol in [(0.10, 0.03), (0.05, 0.02), (0.01, 0.01)])
          and power[0.10] >= 0.99)
    _report("full-cont", ok, f"size {size} vs {paper}; power {power[0.10]:.3f} "
                             "(paper 1.000)")


@pytest.mark.full_scale
def test_full_scale_count_chi2():
    cfg = StudyConfig(scenarios=[Scenario.from_dict({
        "name": "full-count-size", "network": {"model": "sbm", "k": 5},
        "n": 500, "t": 400, "domain": "count", "theta": (1.0, 0.3, 0.2),
        "copula": {"structure": "ar1", "rho": 0.5}, "burn_in": 300,
        "reps": 1000, "test": {"kind": "chi2"},
    })], base_seed=20240611)
    rows, _ = run_mc_study(cfg, threads=WORKERS)
    rates = _rates(rows)
    paper = {0.10: 0.108, 0.05: 0.059, 0.01: 0.011}
    ok = all(abs(rates[lv] - paper[lv]) <= tol
             for lv, tol in [(0.10, 0.03), (0.05, 0.02), (0.01, 0.012)])
    _report("full-count", ok, f"size {rates} vs {paper}")


# ---------------------------------------------------------------------------
# Criterion 10 is conditional on the real datasets being present.
# ---------------------------------------------------------------------------

def _have(*names):
    return all(os.path.exists(os.path.join(DATA_DIR, n)) for n in names)


@pytest.mark.skipif(not _have("chicago_panel.csv", "chicago_edges.txt"),
                    reason="Chicago burglary dataset not present under data/")
def test_criterion_10a_chicago_qmle_and_test():
    net = load_edges(os.path.join(DATA_DIR, "chicago_edges.txt"))
    panel = load_panel_csv(os.path.join(DATA_DIR, "chicago_panel.csv"),
                           domain="count")
    assert panel.n == 552 and panel.t == 72
    assert panel.values.max() == 17
    summary = na.network_summary(net)
    assert summary["density"] == pytest.approx(0.0174, abs=0.0005)
    assert summary["median_out_degree"] == pytest.approx(5.0, abs=0.5)
    fit = qmle_fit(panel, net, ModelSpec.linear((1.0, 0.2, 0.2), "count"))
    target = np.array([0.455, 0.322, 0.284])
    res = na.lm_test(panel, net, ModelSpec.drift((1.0, 0.2, 0.2), 0.0, "count"))
    ok = (np.max(np.abs(fit.theta_hat - target)) <= 0.005
          and abs(res.statistic - 8.999) <= 0.05)
    _report("10a", ok, f"theta {fit.theta_hat.round(4)} vs {target}; "
                       f"LM {res.statistic:.3f} vs 8.999")


@pytest.mark.skipif(not _have("wind_panel.csv", "wind_edges.txt"),
                    reason="wind speed dataset not present under data/")
def test_criterion_10b_wind_ols_and_test():
    net = load_edges(os.path.join(DATA_DIR, "wind_edges.txt"))
    panel = load_panel_csv(os.path.join(DATA_DIR, "wind_panel.csv"), domain="cont")
    assert panel.n == 102 and panel.t == 721
    fit = ols_fit_linear(panel, net)
    target = np.array([0.154, 0.157, 0.768])
    res = na.lm_test(panel, net, ModelSpec.drift((0.0, 0.0, 0.0), 0.0, "cont"))
    ok = (np.max(np.abs(fit.theta_hat - target)) <= 0.002
          and abs(fit.sigma2_hat - 0.156) <= 0.003
          and abs(res.statistic - 131.052) <= 0.5)
    _report("10b", ok, f"theta {fit.theta_hat.round(4)} vs {target}; "
                       f"sigma2 {fit.sigma2_hat:.4f} vs 0.156; "
                       f"LM {res.statistic:.2f} vs 131.052")
