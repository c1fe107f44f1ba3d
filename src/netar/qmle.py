"""Quasi-maximum-likelihood estimation for network autoregressions.

One Newton path, qmle_fit, fits both domains: counts on the working Poisson
likelihood (contemporaneous independence), continuous panels on the
Gaussian one, -RSS/2, whose maximizer is least squares.  Both start at
least squares, end with one full Newton step taken inside the score
tolerance and report the sandwich covariance H^-1 B H^-1, where H is the
observed Hessian of the quasi-likelihood and B the outer product of
per-time score contributions; B captures the cross-sectional dependence
the working likelihood ignores.  The derivative stack is fixed unless the
mean is curved in the estimable coordinates (drift), and the count
weights go to two reused buffers.

The score and curvature sums here come from one private kernel,
_score_parts: the unprojected per-time scores s_t and the curvature H of a
derivative stack.  Only _weights forms the weights: the fit hands over
the pair at theta_hat, and the linear null its (1, X, Y) stack, s_t, H and
B, which the drift test (lintest) and the profiles (nuisance) read.  The
curvature is summed over column blocks of _CURV_BLOCK cells, each weighted
as it is read: at paper scale (N(T-1) near 2e5 cells) no weighted copy of
the stack is formed and each block's product runs on data in cache.

Time indexing: the first column of a panel conditions the recursion, so
all sums run over the remaining T-1 time points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dgp import Panel
from .model import ModelSpec, hess_elementwise, jac_elementwise, mean_elementwise
from .netgraph import Network

__all__ = [
    "FitResult",
    "lagged_design",
    "ols_fit_linear",
    "qmle_fit",
    "sandwich_cov",
]

_LOWER = 1e-8          # box lower bound for count-domain coordinates
_LAM_FLOOR = 1e-12     # intensities below this signal an inadmissible theta
_MAX_ITER = 200        # Newton steps of qmle_fit
_SCORE_TOL = 1e-6      # converged when max|projected score| < _SCORE_TOL * (number of cells)
_STEP_TOL = 1e-9       # Newton stops when a step moves every coordinate less than this
_CURV_BLOCK = 1 << 13  # cells per column block of the curvature sum


@dataclass
class FitResult:
    """qmle_fit's estimate, curvature matrices and sandwich standard errors
    (method "OLS", sigma2_hat = RSS/n for least squares), and what the tests
    read (not in to_dict): the lagged design (y_now, y_lag, x_lag), the
    score and curvature weights at theta_hat (None: unit curvature), the
    (m, N, T-1) derivative stack there ((1, X, Y) for the linear null) and
    its (T-1) x m per-time scores, whose curvature is hessian and whose
    outer product is opg."""

    theta_hat: np.ndarray
    loglik: float
    score_at_opt: np.ndarray
    hessian: np.ndarray
    opg: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    iterations: int
    converged: bool
    method: str
    family: str
    domain: str
    sigma2_hat: Optional[float] = None
    jitter_applied: int = 0
    n_obs: int = 0
    design: Optional[tuple] = None
    weights: Optional[tuple] = None
    stack: Optional[np.ndarray] = None
    scores: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        return {
            "theta_hat": [float(v) for v in self.theta_hat],
            "se": [float(v) for v in self.se],
            "loglik": float(self.loglik),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "method": self.method,
            "family": self.family,
            "domain": self.domain,
            "sigma2_hat": None if self.sigma2_hat is None else float(self.sigma2_hat),
            "jitter_applied": int(self.jitter_applied),
        }


def lagged_design(panel: Panel, net: Network):
    """Split a panel into response and lagged regressors.

    Returns (y_now, y_lag, x_lag), each of shape (N, T-1), where x_lag is
    the neighbour average of y_lag.
    """
    v = panel.values
    if v.shape[0] != net.n:
        raise ValueError(f"panel has {v.shape[0]} nodes, network has {net.n}")
    if v.shape[1] < 2:
        raise ValueError("need at least two time points")
    y_lag = v[:, :-1]
    return v[:, 1:], y_lag, net.w @ y_lag


def _score_parts(cols: np.ndarray, weight: np.ndarray, curv=None, second=None):
    """Per-time scores and curvature of a quasi-likelihood.

    cols is the (m, N, T-1) stack of mean derivatives, weight the score
    weight (Y/lam - 1 for the working Poisson likelihood, Y - lam for least
    squares), curv the curvature weight Y/lam^2 (None for unit weight) and
    second the hess_elementwise entries, which enter with the score weight.
    Returns the (T-1) x m scores s_t summed over nodes and the symmetric
    m x m curvature sum curv d d' - sum weight d2lam.  The first sum runs
    over blocks of _CURV_BLOCK cells: each block of the flattened stack is
    weighted by curv and multiplied by its own transpose, and the m x m
    products are added.
    """
    s_t = np.einsum("ant,nt->ta", cols, weight)
    flat = cols.reshape(cols.shape[0], -1)
    cw = None if curv is None else curv.reshape(-1)
    hess = np.zeros((flat.shape[0], flat.shape[0]))
    for lo in range(0, flat.shape[1], _CURV_BLOCK):
        block = flat[:, lo:lo + _CURV_BLOCK]
        hess += (block if cw is None else block * cw[lo:lo + _CURV_BLOCK]) @ block.T
    for row, col, vals in second or ():
        adj = float(np.sum(weight * vals))
        hess[row, col] -= adj
        if row != col:
            hess[col, row] -= adj
    return s_t, 0.5 * (hess + hess.T)


def _weights(domain: str, y_now, lam, out=(None, None)):
    """Score and curvature weights of the quasi-likelihood at mean lam:
    (Y/lam - 1, Y/lam^2) for the working Poisson likelihood of counts,
    (Y - lam, None) for least squares.  out is a pair of arrays shaped
    like lam that receive the count weights instead of new ones."""
    if domain != "count":
        return y_now - lam, None
    weight = np.divide(y_now, lam, out=out[0])
    weight -= 1.0
    curv = np.multiply(lam, lam, out=out[1])
    np.divide(y_now, curv, out=curv)
    return weight, curv


def _gram_inverse(gram: np.ndarray) -> np.ndarray:
    """G^-1 for the Gram matrix G = Z'Z of Z = (1, X, Y), from the eigenvalues
    of the column-scaled G.  Raises if Z is rank deficient: a column is zero or
    the scaled G has an eigenvalue at most 1e-12 times its largest."""
    scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    # a zero column of Z keeps a zero row in the scaled matrix: eigenvalue 0
    eig, vec = np.linalg.eigh(gram / np.where(scale > 0, scale, 1.0))
    if not eig[0] > 1e-12 * eig[-1]:
        raise ValueError("design matrix is rank deficient")
    return (vec / eig) @ vec.T / scale


def _poisson_loglik(y_now, lam) -> float:
    """sum(Y log lam - lam) for positive finite lam, where 0 log lam = 0
    holds without a mask."""
    ll = np.log(lam)
    ll *= y_now
    ll -= lam
    return float(ll.sum())


def _ridge_solve(mat: np.ndarray, rhs: np.ndarray):
    """Solve mat x = rhs; while that fails or is not finite, add the ridge
    max(1e-8 tr(mat)/m, 1e-12) I to mat, at most twice.  Returns (x, ridges
    added)."""
    ridge = None
    for jitter in range(3):
        try:
            x = np.linalg.solve(mat, rhs)
            if np.all(np.isfinite(x)):
                return x, jitter
        except np.linalg.LinAlgError:
            pass
        if ridge is None:
            ridge = max(1e-8 * np.trace(mat) / len(mat), 1e-12) * np.eye(len(mat))
        mat = mat + ridge
    raise np.linalg.LinAlgError("hessian is irreparably singular")


def sandwich_cov(hessian: np.ndarray, opg: np.ndarray):
    """H^-1 B H^-1 with a recorded ridge fallback for near-singular H.

    Returns (cov, se, jitter_count); the NT normalizations of H and B
    cancel, so raw sums are expected.
    """
    hinv, jitter = _ridge_solve(0.5 * (hessian + hessian.T), np.eye(hessian.shape[0]))
    cov = hinv @ opg @ hinv
    cov = 0.5 * (cov + cov.T)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return cov, se, jitter


def qmle_fit(panel: Panel, net: Network, spec: ModelSpec, theta0=None) -> FitResult:
    """Newton with step halving on the working Poisson likelihood (counts) or
    the Gaussian one, -RSS/2 (continuous panels, linear family only).

    A rank deficient (1, X, Y) stack Z raises first (_gram_inverse).  Both
    domains start at theta0 or the corrected semi-normal least-squares fit
    (Bjorck 1987), G b = Z'y refined by b += G^-1 Z'(y - Z b), G = Z'Z, with
    nonlinear coordinates at _LOWER, in the count box [_LOWER, inf).  Newton
    takes the first step from inside the tolerance, max|score| < _SCORE_TOL *
    (number of cells), times max(1, RSS/n) for least squares, in full (the
    halving test cannot judge it there) and stops; or when a step moves every
    coordinate less than _STEP_TOL, no halving ascends or after _MAX_ITER
    steps.  iterations counts the steps; converged means the projected score
    (zero at _LOWER where the score points out) is below the tolerance.
    """
    count = spec.domain == "count"
    if not (count or spec.family == "linear"):
        raise ValueError(f"a continuous fit takes the linear family only, not {spec.family}")
    if count and not panel.is_count():
        raise ValueError("qmle_fit expects a nonnegative integer panel")
    y_now, y_lag, x_lag = lagged_design(panel, net)
    if not count and panel.t < 3:
        raise ValueError("least squares needs T >= 3")
    lin = np.empty((3, *x_lag.shape))
    lin[0], lin[1], lin[2] = 1.0, x_lag, y_lag
    n_obs = y_now.size
    s_y, gram = _score_parts(lin, y_now)
    gram_inv = _gram_inverse(gram)      # the rank rule of both domains
    theta = np.full(spec.n_active, _LOWER)      # beta: the corrected semi-normal solution
    theta[:3] = beta = gram_inv @ s_y.sum(axis=0)
    theta[:3] += gram_inv @ np.einsum("ant,nt->a", lin, y_now - np.tensordot(beta, lin, axes=1))
    lower = _LOWER if count else -np.inf            # the count box
    theta = np.maximum(theta if theta0 is None else np.asarray(theta0, float), lower)

    def evaluate(t):    # (quasi-log-likelihood, mean, least squares' residual Y - lam)
        lam = mean_elementwise(spec.with_active(t), x_lag, y_lag)
        if not count:
            resid = y_now - lam
            return -0.5 * float(np.vdot(resid, resid)), lam, resid
        if not (lam.min() > _LAM_FLOOR and lam.max() < np.inf):
            return -np.inf, None, None
        return _poisson_loglik(y_now, lam), lam, None

    ll, lam, resid = evaluate(theta)
    if not np.isfinite(ll):
        raise ValueError("starting value is inadmissible")
    tol = _SCORE_TOL * (n_obs if count else max(n_obs, -2.0 * ll))     # -RSS/2: squared units

    buffers = np.empty_like(y_now), np.empty_like(y_now)
    cols = lin if spec.family == "linear" else None     # jac_elementwise's linear stack

    def parts_at(t, lam_t, resid_t):
        nonlocal cols
        if resid_t is not None:     # the score weight; unit curvature on the fixed stack is G
            s_t, hess = np.einsum("ant,nt->ta", lin, resid_t), gram
        else:
            sp = spec.with_active(t)
            second = hess_elementwise(sp, x_lag, y_lag)
            if cols is None or second is not None:      # only a curved mean moves the stack
                cols = jac_elementwise(sp, x_lag, y_lag)
            s_t, hess = _score_parts(cols, *_weights("count", y_now, lam_t, buffers), second)
        return s_t, hess, s_t.sum(axis=0)

    s_t, hess, score = parts_at(theta, lam, resid)
    jitter_total = iters = 0
    while iters < _MAX_ITER:
        inside = np.max(np.abs(score)) < tol
        step, jitter = _ridge_solve(hess, score)
        jitter_total += jitter

        scale = 1.0
        for _ in range(40):
            cand = np.maximum(theta + scale * step, lower)
            at_cand = evaluate(cand)
            if at_cand[0] >= ll - 1e-12 or (inside and np.isfinite(at_cand[0])):
                break
            scale *= 0.5
        else:
            break
        iters += 1
        moved = np.max(np.abs(cand - theta))
        theta, (ll, lam, resid) = cand, at_cand
        s_t, hess, score = parts_at(theta, lam, resid)
        if inside or moved < _STEP_TOL:
            break

    # a coordinate on the bound whose score points out of the box is stationary
    projected = np.where((theta <= lower) & (score < 0), 0.0, score)
    converged = bool(np.max(np.abs(projected)) < tol)
    opg = s_t.T @ s_t
    cov, se, jitter = sandwich_cov(hess, opg)
    if not converged:
        warnings.warn("QMLE did not converge; returning the best iterate")
    return FitResult(
        theta_hat=theta, loglik=ll, score_at_opt=score, hessian=hess,
        opg=opg, cov=cov, se=se, iterations=iters, converged=converged,
        method="QMLE" if count else "OLS", family=spec.family, domain=spec.domain,
        sigma2_hat=None if count else -2.0 * ll / n_obs,
        jitter_applied=jitter_total + jitter, n_obs=n_obs, design=(y_now, y_lag, x_lag),
        weights=buffers if count else (resid, None), stack=cols, scores=s_t)


def ols_fit_linear(panel: Panel, net: Network) -> FitResult:
    """Least squares of Y_t on (1, X_{t-1}, Y_{t-1}), qmle_fit's continuous case."""
    return qmle_fit(panel, net, ModelSpec.linear((0.0, 0.0, 0.0), "cont"))
