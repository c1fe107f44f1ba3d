"""Linearity tests when the smoothing or threshold rate is not identifiable.

Under the linear null the rate g of the smooth-transition and threshold
families disappears, so the quasi-score statistic is profiled over a grid
of g values.  For each grid point the model is linear in the identifiable
parameters with regressor matrix Z_t(g) = (1, X_{t-1}, Y_{t-1}, h_t(g)),
where h is the family's nonlinear regressor block:

    stnar  h_it(g) = exp(-g * X^2) * X                       (one column)
    tnar   h_it(g) = (1, X, Y) * 1{X <= g}                   (three columns)

The linear block (scores of 1, X, Y and curvature H11) does not depend on
g: both families read it, the (1, X, Y) stack and the weights from the
null fit and form only their own columns.  stnar forms h(g) at each point;
tnar reads every s_t^(2)(g) and H12(g) from cumulative sums over one
binning of the cells, in blocks of node rows of the stack.  The curvature
projects the linear block out of every per-time score; the outer product
of these effective scores E(g) is the score covariance Sigma(g).
lintest._whiten factors E = U S V', so the statistic is ||U'1||^2 and
Sigma(g) is never inverted.

The supremum or average of the profile is calibrated either by the Davies
upper bound (scalar smooth nuisance only) or by Hansen's multiplier
bootstrap, which perturbs the per-time scores with a single shared N(0,1)
weight w_t per time index: each draw is ||U'w||^2, the statistic's own
formula at w in place of 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng
from .dgp import Panel
from .lintest import _column_blocks, _null_design, _whiten, chi2_sf
from .model import _h_columns
from .netgraph import Network
from .qmle import _CURV_BLOCK, FitResult, lagged_design
from .qmle import ols_fit_linear, qmle_fit  # noqa: F401  (names perfbench traces)

__all__ = [
    "GammaGrid",
    "LMProfile",
    "ProfileTestResult",
    "default_grid",
    "lm_profile",
    "aggregate",
    "davies_pvalue",
    "score_bootstrap",
    "run_profile_test",
]

@dataclass(frozen=True)
class GammaGrid:
    """Strictly increasing evaluation points for the nuisance rate."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("grid needs at least one point")
        if np.any(np.diff(vals) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


def _node_quantiles(x_lag):
    """np.quantile(x_lag, (0.10, 0.90), axis=1) from one sort of the rows
    (the rule is in default_grid's docstring)."""
    srt = np.sort(x_lag, axis=1)
    last = srt.shape[1] - 1
    out = []
    for q in (0.10, 0.90):
        lo = math.floor(last * q)
        gamma = last * q - lo
        a, b = srt[:, lo], srt[:, min(lo + 1, last)]
        d = b - a
        out.append(a + d * gamma if gamma < 0.5 else b - d * (1.0 - gamma))
    return tuple(out)


def default_grid(family: str, panel: Optional[Panel] = None,
                 net: Optional[Network] = None) -> GammaGrid:
    """Family-specific default grid of 10 points; pass others as a GammaGrid.

    stnar: equidistant points on [0.05, 2].
    tnar: equidistant points from the minimum of the per-node 10 percent
    quantiles of the neighbour averages to the maximum of the 90 percent
    ones, trimmed to the open range of the observed X so the indicator
    never degenerates.  The quantiles are numpy's linear rule read from one
    sort of each node's row of n values: with v = (n-1) q, a and b the
    sorted values at floor(v) and floor(v)+1, gamma = v - floor(v) and
    d = b - a, a + d gamma if gamma < 0.5, else b - d (1 - gamma).  A
    tnar point within 1e-12*max(1, |g|) of an observed X moves up to the
    midpoint with the next larger observed X: on count panels X takes
    values k/out-degree, and whether 1{X <= g} holds for a cell tied with
    g would depend on how the neighbour average rounded, which changes
    with the node labelling.
    """
    if family == "stnar":
        return GammaGrid(np.linspace(0.05, 2.0, 10))
    if family != "tnar":
        raise ValueError("default grids exist for stnar and tnar only")
    if panel is None or net is None:
        raise ValueError("the tnar quantile rule needs the panel and network")
    _, _, x_lag = lagged_design(panel, net)
    q10, q90 = _node_quantiles(x_lag)
    xs = np.sort(x_lag, axis=None)
    if xs[-1] - xs[0] <= 1e-12 * max(1.0, -xs[0], xs[-1]):
        raise ValueError("neighbour averages are constant; no usable threshold range")
    pts = np.linspace(float(q10.min()), float(q90.max()), 10)
    tol = 1e-12 * np.maximum(1.0, np.abs(pts))
    tied_from = np.searchsorted(xs, pts - tol)
    above = np.searchsorted(xs, pts + tol, side="right")    # first X past the tie band
    inside = (pts > xs[0]) & (above < xs.size)
    nxt = xs[np.minimum(above, xs.size - 1)]
    kept = np.unique(np.where(above > tied_from, 0.5 * (pts + nxt), pts)[inside])
    if kept.size < 1:
        raise ValueError("quantile rule produced no interior threshold values")
    if inside.sum() < pts.size:
        warnings.warn(f"dropped {pts.size - inside.sum()} threshold grid point(s) "
                      "outside the observed X range")
    return GammaGrid(kept)


@dataclass
class LMProfile:
    """Profile of the quasi-score statistic over the nuisance grid.

    whitened[k] is the (T-1) x k2 left singular factor U of the effective
    scores E at kept grid point k, E = U S V', with k2 the number of
    tested coordinates (1 for stnar, 3 for tnar): the rows of E are the
    nonlinear-block scores with the linear block projected out through
    the curvature, e_t = s_t^(2) - H21 H11^-1 s_t^(1), and E'E is the
    score covariance Sigma.  Their total is the partial score at the
    constrained fit (where the linear-block score sums to zero), so the
    statistic is lm[k] = ||U'1||^2, and a multiplier draw w gives
    ||U'w||^2 with the same Sigma.
    """

    grid: np.ndarray
    lm: np.ndarray
    whitened: np.ndarray
    family: str
    null_fit: FitResult
    dropped: list = field(default_factory=list)


def _whitened_stat(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """||U'w||^2 at every grid point (rows) for every column of w."""
    return np.square(np.swapaxes(u, 1, 2) @ w).sum(axis=1)


def _tnar_bins(grid, x):
    """np.searchsorted(grid, x, side="left"), the number of grid points
    strictly below each cell, from one comparison per grid point."""
    bins = np.zeros(x.shape, dtype=np.intp)
    for g in grid:
        bins += x > g
    return bins


def _tnar_blocks(grid, x, y, resid, curf):
    """As _column_blocks for (1, X, Y) * 1{X <= g}, with the null fit's weights
    resid and curf (None: unit curvature).  A cell is in bin b <= j exactly
    when X <= g_j, so cumulative sums over the bins give every masked sum
    (the last bin's are the fit's linear block).  The cells are read in
    blocks of whole node rows, about _CURV_BLOCK cells each, so no array of
    the panel's size is formed; np.add.at adds a block's weights into the
    sums cell after cell, which rounds as one np.bincount over all cells.
    The point is degenerate if every cell counts (the indicator is the
    intercept) or no counted cell has X != 0 or Y != 0."""
    num, (n, tm1) = grid.size, x.shape
    by_time, by_bin = np.zeros((3, tm1 * (num + 1))), np.zeros((6, num + 1))
    lo, top, rows = np.array([num, num]), 0, max(1, _CURV_BLOCK // tm1)
    for i in range(0, n, rows):
        xb, yb, rb = x[i:i + rows], y[i:i + rows], resid[i:i + rows]
        cb = None if curf is None else curf[i:i + rows]
        bins = _tnar_bins(grid, xb)
        cells = (bins + (num + 1) * np.arange(tm1)).ravel()
        for acc, v in zip(by_time, (None, xb, yb)):       # acc[cells] += w in cell order
            np.add.at(acc, cells, (rb if v is None else rb * v).ravel())
        cx, cy = (xb, yb) if cb is None else (cb * xb, cb * yb)
        pairs = [(cb, None), (cx, None), (cy, None), (cx, xb), (cx, yb), (cy, yb)]
        for acc, (a, b) in zip(by_bin, pairs):            # cb None: unit weight
            np.add.at(acc, bins.ravel(), 1.0 if a is None else (a if b is None else a * b).ravel())
        lo = np.minimum(lo, [np.where(v != 0, bins, num).min() for v in (xb, yb)])
        top = max(top, bins.max())
    s = np.stack([c.T for c in np.cumsum(by_time.reshape(3, tm1, num + 1), axis=2)], axis=-1)
    h = np.cumsum(by_bin, axis=1)[[0, 1, 2, 1, 3, 4, 2, 4, 5]].T.reshape(num + 1, 3, 3)
    ok = (np.arange(num) >= lo.max()) & (np.arange(num) < top)
    return ok, s[:num], h[:num]


def lm_profile(panel: Panel, net: Network, family: str, grid: GammaGrid,
               domain: str) -> LMProfile:
    """Quasi-score statistic at each grid point of the nuisance rate.

    The linear null is fitted to the panel and hands over its weights at
    theta_hat (quasi-Poisson Y/lam - 1 and Y/lam^2 for counts, residuals
    and unit curvature for continuous panels) and its linear block, the
    (1, X, Y) stack with its scores and curvature, all shared across grid
    points (see lintest._null_design).  Each point's statistic is ||U'1||^2
    from the SVD of its effective scores E = U S V', whose outer product
    is the score covariance.  Degenerate grid points (vanishing or
    collinear nonlinear regressors, subnormal or singular covariance) are
    dropped with a warning rather than failing the whole profile.
    """
    if family not in ("stnar", "tnar"):
        raise ValueError("profiled testing applies to the stnar and tnar families")
    k2 = 1 if family == "stnar" else 3  # with T - 1 <= k2, ||U'1||^2 is T - 1 or fails
    if panel.t - 1 <= k2:
        raise ValueError(f"the {family} profile needs T >= {k2 + 2}, got T = {panel.t}")
    null_fit = _null_design(panel, net, domain)
    _, x_lag, y_lag = null_fit.stack
    ok, s2, h12 = (
        _tnar_blocks(grid.values, x_lag, y_lag, *null_fit.weights) if family == "tnar" else
        _column_blocks(null_fit, (_h_columns("stnar", g, x_lag, y_lag)[0] for g in grid.values)))
    why = np.where(ok, "", "degenerate nonlinear regressors").astype(object)
    try:
        effective = s2[ok] - null_fit.scores @ np.linalg.solve(null_fit.hessian, h12[ok])
    except np.linalg.LinAlgError:                   # H11 is shared: every point fails
        why[ok] = "singular linear-block curvature"
    else:
        u, _, _, rank = _whiten(effective, s2[ok])
        why[np.flatnonzero(ok)[rank < k2]] = "singular score covariance"
    dropped = [(float(g), w) for g, w in zip(grid.values, why) if w]
    if dropped:
        warnings.warn(f"dropped {len(dropped)} grid point(s): "
                      + "; ".join(f"g={g:.4g} ({w})" for g, w in dropped))
    if all(why):
        raise RuntimeError("all grid points were degenerate")
    u = u[rank >= k2]
    return LMProfile(
        grid=grid.values[why == ""], lm=_whitened_stat(u, np.ones((u.shape[1], 1)))[:, 0],
        whitened=u, family=family, null_fit=null_fit, dropped=dropped)


def aggregate(profile: LMProfile, g: str = "sup") -> float:
    """Collapse the profile with the sup or average functional."""
    if profile.lm.size == 0:
        raise ValueError("empty profile")
    if g == "sup":
        return float(profile.lm.max())
    if g == "ave":
        return float(profile.lm.mean())
    raise ValueError("aggregate must be 'sup' or 'ave'")


def davies_pvalue(profile: LMProfile) -> float:
    """Upper bound on the sup-test p-value for a scalar smooth nuisance.

    P(chi2_1 >= M) + V * exp(-M/2) * 2^(-1/2) / Gamma(1/2), the bound for
    k2 = 1 tested coordinate, with M the profile supremum and V the total
    variation of sqrt(LM).  Only the stnar profile qualifies: the
    threshold family's is not smooth in the nuisance rate.
    """
    if profile.family != "stnar":
        raise ValueError("the Davies bound requires a scalar smooth nuisance rate")
    if profile.lm.size < 2:
        raise ValueError("the total-variation term needs at least two grid points")
    m = float(profile.lm.max())
    tv = float(np.abs(np.diff(np.sqrt(profile.lm))).sum())
    bound = chi2_sf(m, 1) + tv * math.exp(-m / 2.0) * 2.0 ** -0.5 / math.gamma(0.5)
    return min(1.0, float(bound))


def score_bootstrap(profile: LMProfile, g: str = "sup", reps: int = 499,
                    seed: int = 0):
    """Multiplier-bootstrap p-value for the aggregated profile statistic.

    Replication j draws one N(0,1) weight w_t per time index, shared across
    every grid point, and rebuilds the profile as ||U'w||^2 from the
    whitened scores, the observed statistic's formula at w in place of 1.
    All weights come from the one stream (seed, 0xB5), drawn row by row as
    a reps x (T-1) matrix, so the first j replications do not depend on
    reps.  Returns (p_value, draws).
    """
    if reps < 1:
        raise ValueError("need at least one bootstrap replication")
    observed = aggregate(profile, g)
    weights = rng.stream(seed, 0xB5).standard_normal((reps, profile.whitened.shape[1]))
    stats = _whitened_stat(profile.whitened, weights.T)                # G x reps
    draws = stats.max(axis=0) if g == "sup" else stats.mean(axis=0)
    p = float(np.mean(draws >= observed))
    return p, draws


@dataclass
class ProfileTestResult:
    """Aggregated profile statistics with their p-value approximations."""

    g_sup: float
    g_ave: float
    davies_p: Optional[float]
    boot_p: Optional[float]
    boot_reps: int
    seed: int
    profile: LMProfile

    def to_dict(self) -> dict:
        return {
            "g_sup": float(self.g_sup),
            "g_ave": float(self.g_ave),
            "davies_p": None if self.davies_p is None else float(self.davies_p),
            "boot_p": None if self.boot_p is None else float(self.boot_p),
            "boot_reps": int(self.boot_reps),
            "grid": [float(v) for v in self.profile.grid],
            "profile": [float(v) for v in self.profile.lm],
            "dropped_points": [[g, why] for g, why in self.profile.dropped],
            "seed": int(self.seed),
            "null_fit": self.profile.null_fit.to_dict(),
        }


def run_profile_test(panel: Panel, net: Network, family: str, domain: str,
                     grid: Optional[GammaGrid] = None, method: str = "both",
                     agg: str = "sup", reps: int = 499, seed: int = 0) -> ProfileTestResult:
    """Profile the statistic (default_grid unless a grid is given) and attach
    Davies and/or bootstrap p-values (method "davies", "bootstrap" or "both")."""
    if method not in ("davies", "bootstrap", "both"):
        raise ValueError(f"method must be 'davies', 'bootstrap' or 'both', got {method!r}")
    if grid is None:
        grid = default_grid(family, panel=panel, net=net)
    profile = lm_profile(panel, net, family, grid, domain)

    davies = boot = None
    if method == "davies" or (method == "both" and profile.family == "stnar"):
        davies = davies_pvalue(profile)
    if method in ("bootstrap", "both"):
        boot, _ = score_bootstrap(profile, g=agg, reps=reps, seed=seed)
    return ProfileTestResult(
        g_sup=aggregate(profile, "sup"), g_ave=aggregate(profile, "ave"),
        davies_p=davies, boot_p=boot, boot_reps=reps if boot is not None else 0,
        seed=seed, profile=profile)
