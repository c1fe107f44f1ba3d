"""Output checks computed apart from the program.

The checks rebuild a few of the cell's replications from the public
generators with the study's seed derivation, require the program's test
on them to reproduce the cell's statistic exactly, and then recompute the
statistics with numpy/scipy code written from the paper's formulas.  The
cell's rejection rates are recomputed from its raw statistics.
"""

from __future__ import annotations

import traceback
import warnings

import numpy as np
from scipy import linalg, optimize, stats

from netar import rng
from netar.dgp import CopulaSpec, SimConfig, simulate_count, simulate_gaussian
from netar.dgp import stationary_init_linear_gaussian
from netar.lintest import lm_test
from netar.model import ModelSpec
from netar.netgraph import gen_sbm
from netar.nuisance import default_grid, run_profile_test
from netar.studio import run_mc_study

import cells

# Tail probability on each side of the exact binomial band.  A two-sided
# band check then raises a false alarm with probability at most 1e-4, and
# the at most 92 runs x 3 levels of a full acceptance run with about 3%.
BAND_TAIL = 5e-5
REL_TOL = 1e-8        # statistic recomputed at the program's estimate
# the program stops at max|score| < 1e-6 per cell, which leaves about 1e-6
# relative error in the estimate
QMLE_TOL = 1e-4


class Report:
    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.items.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return bool(self.items) and all(ok for _, ok, _ in self.items)


def _rel(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


# rebuilding replications ------------------------------------------------------

def _rebuild(w: cells.Workload, base_seed: int, rep: int):
    """Network and panel of replication ``rep`` of a single-scenario study."""
    sc = w.scenario
    tag = rep if sc.get("redraw_network") else 0
    net = gen_sbm(sc["n"], sc["network"]["k"], rng.mix_seed(base_seed, 0, 0xAE, tag))
    seed = rng.mix_seed(base_seed, 0, rep)
    if sc["domain"] == "count":
        cop = CopulaSpec(sc["copula"]["structure"], sc["copula"]["rho"])
        cfg = SimConfig(T=sc["t"], burn_in=sc["burn_in"], seed=seed)
        return net, simulate_count(ModelSpec.linear(sc["theta"], "count"), net, cop, cfg)
    cfg = SimConfig(T=sc["t"], burn_in=sc["burn_in"], seed=seed, init=sc["init"])
    return net, simulate_gaussian(ModelSpec.linear(sc["theta"], "cont"), net, cfg)


def _lags(panel, net):
    v = panel.values
    y_lag = v[:, :-1]
    return v[:, 1:], y_lag, np.asarray(net.w @ y_lag)


# the quasi-score statistic from the paper's formulas --------------------------

def _score_stat(cols, weight, curv, second=(), project=False) -> float:
    """Quasi-score statistic for the columns after the first three.

    cols: derivatives of the mean, shape (m, N, T-1), linear block first;
    weight: score weight per cell (Y/lam - 1 or Y - lam); curv: curvature
    weight per cell (Y/lam^2 or 1); second: (a, b, d2 lam/da db) terms of
    the mean's second derivative.  Sigma is the four-term correction
    B22 - A B12 - B21 A' + A B11 A' with A = H21 H11^-1.  The tested score
    is S2, or S2 - A S1 (the score with the linear block projected out)
    when ``project`` is set.
    """
    m = cols.shape[0]
    flat = cols.reshape(m, -1)
    s_t = np.stack([(c * weight).sum(axis=0) for c in cols], axis=1)   # (T-1) x m
    h = (flat * curv.reshape(-1)) @ flat.T
    for a, b, d2 in second:
        h[a, b] -= float((weight * d2).sum())
        if a != b:
            h[b, a] -= float((weight * d2).sum())
    opg = s_t.T @ s_t
    a_mat = linalg.solve(h[:3, :3], h[:3, 3:], assume_a="sym").T
    sigma = (opg[3:, 3:] - a_mat @ opg[:3, 3:] - opg[3:, :3] @ a_mat.T
             + a_mat @ opg[:3, :3] @ a_mat.T)
    total = s_t.sum(axis=0)
    score = total[3:] - a_mat @ total[:3] if project else total[3:]
    return float(score @ linalg.solve(sigma, score, assume_a="sym"))


def _drift_stat(panel, net, beta) -> float:
    """Count drift test at g = 0: extra column -b0 log(1+X)."""
    y, y_lag, x_lag = _lags(panel, net)
    b0, b1, b2 = beta
    lam = b0 + b1 * x_lag + b2 * y_lag
    log1x = np.log1p(x_lag)
    cols = np.stack([np.ones_like(x_lag), x_lag, y_lag, -b0 * log1x])
    second = ((0, 3, -log1x), (3, 3, b0 * log1x ** 2))
    return _score_stat(cols, y / lam - 1.0, y / lam ** 2, second)


def _profile_stats(panel, net, family, domain, beta, grid) -> np.ndarray:
    y, y_lag, x_lag = _lags(panel, net)
    lam = beta[0] + beta[1] * x_lag + beta[2] * y_lag
    if domain == "count":
        weight, curv = y / lam - 1.0, y / lam ** 2
    else:
        weight, curv = y - lam, np.ones_like(y)
    out = []
    for g in grid:
        if family == "stnar":
            extra = [np.exp(-g * x_lag ** 2) * x_lag]
        else:
            ind = (x_lag <= g).astype(float)
            extra = [ind, x_lag * ind, y_lag * ind]
        cols = np.stack([np.ones_like(x_lag), x_lag, y_lag, *extra])
        out.append(_score_stat(cols, weight, curv, project=True))
    return np.array(out)


def _scipy_qmle(panel, net, start) -> np.ndarray:
    """Poisson quasi-likelihood maximised by L-BFGS-B on [1e-8, inf)^3."""
    y, y_lag, x_lag = _lags(panel, net)
    design = np.stack([np.ones_like(x_lag), x_lag, y_lag]).reshape(3, -1)
    yv = y.reshape(-1)

    def negll(theta):
        lam = theta @ design
        return float(lam.sum() - yv @ np.log(lam)), design @ (1.0 - yv / lam)

    res = optimize.minimize(negll, start, jac=True, method="L-BFGS-B",
                            bounds=[(1e-8, None)] * 3,
                            options={"ftol": 1e-15, "gtol": 1e-8, "maxiter": 2000})
    return res.x


# checks on the cell's outputs -------------------------------------------------

def _level_counts(r: cells.Round):
    """(level, rejections, replications used) from the program's rows."""
    return [(row.level, round(row.rejection_rate * row.reps_used), row.reps_used)
            for row in r.rows]


def _check_chi2_rates(rep: Report, rounds) -> None:
    bad = []
    for r in rounds:
        if not r.rows:
            continue
        pvals = stats.chi2.sf(r.stats, 1)
        for level, k, _ in _level_counts(r):
            if k != int(np.sum(pvals <= level)):
                bad.append((r.base_seed, level))
    rep.add("rejection rates recomputed with scipy.stats.chi2.sf", not bad,
            f"{len(bad)} mismatching (round, level) pairs")


def _check_band(rep: Report, rounds, two_sided: bool) -> None:
    """Pooled rejection counts inside the exact Binomial(n, level) band.

    Davies and bootstrap p-values are conservative, so their band is
    one-sided."""
    pooled = {}
    for r in rounds:
        for level, k, n in _level_counts(r):
            hits, total = pooled.get(level, (0, 0))
            pooled[level] = (hits + k, total + n)
    ok, parts = bool(pooled), []
    for level, (hits, total) in sorted(pooled.items()):
        lo = stats.binom.ppf(BAND_TAIL, total, level) if two_sided else 0
        hi = stats.binom.isf(BAND_TAIL, total, level)
        ok &= lo <= hits <= hi
        parts.append(f"{level:g}: {hits}/{total} in [{lo:.0f}, {hi:.0f}]")
    rep.add(f"null rejections in the {'two' if two_sided else 'one'}-sided binomial "
            f"band of tail {BAND_TAIL:g}", ok, "; ".join(parts))


def _check_chi2(rep: Report, w, seed, rounds, n_rebuild=3) -> None:
    first = rounds[0]
    stat_err, qmle_err, same = 0.0, 0.0, True
    for r in range(n_rebuild):
        net, panel = _rebuild(w, first.base_seed, r)
        res = lm_test(panel, net, ModelSpec.drift(w.scenario["theta"], 0.0, "count"))
        same &= res.statistic == first.stats[r]
        beta = res.null_fit.theta_hat
        stat_err = max(stat_err, _rel(_drift_stat(panel, net, beta), res.statistic))
        qmle_err = max(qmle_err, _rel(beta, _scipy_qmle(panel, net, (1.0, 0.1, 0.1))))
    rep.add("rebuilt replications reproduce the cell's statistics", same,
            f"{n_rebuild} replications of round 0")
    rep.add("drift statistic recomputed at the null estimate", stat_err <= REL_TOL,
            f"max rel err {stat_err:.2e} (tol {REL_TOL:g})")
    rep.add("null estimate against scipy L-BFGS-B", qmle_err <= QMLE_TOL,
            f"max rel err {qmle_err:.2e} (tol {QMLE_TOL:g})")
    _check_chi2_rates(rep, rounds)
    _check_band(rep, rounds, two_sided=True)


def _check_tnar_boot(rep: Report, w, seed, rounds, n_rebuild=1) -> None:
    first, test = rounds[0], w.scenario["test"]
    prof_err, same, pvals = 0.0, True, []
    for r in range(n_rebuild):
        net, panel = _rebuild(w, first.base_seed, r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = default_grid("tnar", panel=panel, net=net)
            res = run_profile_test(panel, net, "tnar", "count", grid=grid,
                                   method="bootstrap", agg=test["agg"], reps=test["J"],
                                   seed=rng.mix_seed(first.base_seed, 0, r, 0xB0))
        same &= res.g_sup == first.stats[r]
        pvals.append(res.boot_p)
        prof = res.profile
        mine = _profile_stats(panel, net, "tnar", "count", prof.null_fit.theta_hat,
                              prof.grid)
        prof_err = max(prof_err, _rel(mine, prof.lm))
    rep.add("rebuilt replications reproduce the cell's statistics", same,
            f"{n_rebuild} replication(s) of round 0")
    rep.add("tnar profile recomputed at every kept grid point", prof_err <= REL_TOL,
            f"max rel err {prof_err:.2e} (tol {REL_TOL:g})")
    rep.add("bootstrap p-values in [0, 1]", all(0.0 <= p <= 1.0 for p in pvals),
            ", ".join(f"{p:.3f}" for p in pvals))
    _check_band(rep, rounds, two_sided=False)


def _check_stnar_redraw(rep: Report, w, seed, rounds, n_rebuild=2) -> None:
    first = rounds[0]
    prof_err, same = 0.0, True
    for r in range(n_rebuild):
        net, panel = _rebuild(w, first.base_seed, r)
        grid = default_grid("stnar", panel=panel, net=net)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_profile_test(panel, net, "stnar", "cont", grid=grid, method="davies")
        same &= res.g_sup == first.stats[r]
        prof = res.profile
        mine = _profile_stats(panel, net, "stnar", "cont", prof.null_fit.theta_hat,
                              prof.grid)
        prof_err = max(prof_err, _rel(mine, prof.lm))
    rep.add("rebuilt replications reproduce the cell's statistics", same,
            f"{n_rebuild} replications of round 0")
    rep.add("stnar profile recomputed", prof_err <= REL_TOL,
            f"max rel err {prof_err:.2e} (tol {REL_TOL:g})")

    b0, b1, b2 = w.scenario["theta"]
    small = gen_sbm(30, 3, seed)
    mu, cov = stationary_init_linear_gaussian((b0, b1, b2), small, 1.0)
    g = b1 * small.w.toarray() + b2 * np.eye(small.n)
    ref = linalg.solve_discrete_lyapunov(g, np.eye(small.n))
    cov_err = float(np.max(np.abs(cov - ref)) / np.max(np.abs(ref)))
    mu_err = _rel(mu, np.full(small.n, b0 / (1.0 - b1 - b2)))
    rep.add("stationary start against solve_discrete_lyapunov (N=30)",
            cov_err <= 1e-8 and mu_err <= 1e-12,
            f"cov rel err {cov_err:.2e} (tol 1e-8), mean rel err {mu_err:.2e}")

    worse = 0
    for r in rounds:
        if not r.rows:
            continue
        tail = stats.chi2.sf(r.stats, 1)
        worse += sum(k > int(np.sum(tail <= level)) for level, k, _ in _level_counts(r))
    rep.add("Davies rejections never outnumber pointwise chi2(1) tail rejections",
            worse == 0, f"{worse} (round, level) pairs violate it")


def _check_pool(rep: Report, w, seed, rounds, prefix=4) -> None:
    first = rounds[0]
    _, raw = run_mc_study(cells.study(w, first.base_seed, prefix), threads=1)
    serial = raw[w.name]
    same = first.rows and np.array_equal(serial, first.stats[:prefix])
    rep.add("pool statistics equal a serial run bit for bit", same,
            f"first {prefix} replications of round 0")
    _check_chi2_rates(rep, rounds)
    _check_band(rep, rounds, two_sided=True)


_CHECKS = {
    "pnar-ar1-chi2": _check_chi2,
    "pnar-tnar-boot": _check_tnar_boot,
    "nar-stnar-redraw": _check_stnar_redraw,
    "pnar-ar1-pool2": _check_pool,
}


def run(w: cells.Workload, seed: int, rounds: list) -> Report:
    rep = Report()
    try:
        if not rounds[0].rows:
            raise RuntimeError("round 0 failed, so no replication can be rebuilt")
        _CHECKS[w.name](rep, w, seed, rounds)
    except Exception:   # noqa: BLE001 - a crashing check is a failed check
        rep.add("checks ran to the end", False, traceback.format_exc().strip())
    return rep
