"""Quasi-score linearity test with identifiable tested parameters.

The null linear model is fitted by qmle_fit, on the working Poisson
likelihood for counts and by least squares, its Gaussian case, for
continuous data, and the partial score of the nonlinear coordinates is
standardized by its covariance Sigma = sum_t e_t e_t', the outer product
of the effective per-time scores e_t = s_t^(2) - M21 M11^-1 s_t^(1).
With M the curvature H (count QMLE) this is the paper's four-term
correction B22 - A B12 - B21 A' + A B11 A' with A = H21 H11^-1; with M the
score outer product B (least squares, i.i.d. errors) it is the Schur
complement B22 - B21 B11^-1 B12.  No large terms are formed, so none
cancel.  The statistic is referred to a chi-square with as many degrees
of freedom as tested coordinates; this is unaffected by the tested value
sitting on the parameter boundary.

The null fit (_null_design) hands over its weights at theta_hat and the
linear block: the (1, X, Y) stack, which holds X and Y, and its scores,
curvature and score outer product, so every test forms only its columns.
The statistic uses the unprojected partial score (the nonlinear-block
total), the partial score where the linear-block score vanishes: qmle_fit
ends with a full Newton step inside its tolerance, which leaves it zero up
to rounding.  The projection of the linear block lives in Sigma.  It is
||S^-1 V' partial||^2 from the thin SVD E = U S V' of the effective
scores (_whiten, shared with the profiles), so Sigma is never inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .dgp import Panel
from .model import ModelSpec, _drift_arg
from .netgraph import Network
from .qmle import FitResult, ols_fit_linear, qmle_fit  # noqa: F401  (traced name)

__all__ = [
    "ScoreTestResult",
    "chi2_sf",
    "lm_test",
]


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability via the regularized gamma Q."""
    if df < 1:
        raise ValueError("df must be a positive integer")
    if x < 0:
        raise ValueError("statistic must be nonnegative")
    return float(gammaincc(df / 2.0, x / 2.0))


def _null_design(panel: Panel, net: Network, domain: str) -> FitResult:
    """The linear null fitted by qmle_fit (working Poisson for counts, least
    squares for continuous data), the only source of the linear block and
    the weights (see above); the spec's coefficients are not read."""
    null_fit = qmle_fit(panel, net, ModelSpec.linear((1.0, 0.2, 0.2), domain))
    if not null_fit.converged:
        raise RuntimeError("null fit did not converge")
    return null_fit


def _column_blocks(fit: FitResult, columns):
    """Stacked over the nonlinear columns h (an iterable of (N, T-1) arrays,
    read one at a time): whether h is nonzero, its per-time scores s_t^(2)
    and H12 against the fit's (1, X, Y) stack, with the fit's weights."""
    resid, curf = fit.weights
    zc = (fit.stack if curf is None else fit.stack * curf).reshape(3, -1)
    parts = [(h.any(), np.einsum("nt,nt->t", h, resid)[:, None], zc @ h.reshape(-1, 1))
             for h in columns]
    return tuple(map(np.array, zip(*parts)))


def _whiten(effective: np.ndarray, scores: np.ndarray):
    """Thin SVD E = U S V' of effective scores (one (T-1) x k matrix or a
    stack) and the rank of each: Sigma = E'E = V S^2 V', so x' Sigma^-1 x is
    ||S^-1 V' x||^2 and w' E Sigma^-1 E' w is ||U'w||^2 without inverting
    Sigma, whose condition number is the square of E's.  A singular value
    counts if s^2 > max(1e-12 s_max^2, 1e-24 r, tiny), r the largest squared
    column norm of the unprojected scores s_t^(2) that E projects: a column
    in the linear block's span leaves E at their rounding level."""
    u, s, vt = np.linalg.svd(effective, full_matrices=False)
    sq, r = s * s, np.square(scores).sum(axis=-2).max(axis=-1, keepdims=True)
    floor = np.maximum(np.maximum(1e-12 * sq[..., :1], 1e-24 * r), np.finfo(float).tiny)
    return u, s, vt, (sq > floor).sum(axis=-1)


@dataclass
class ScoreTestResult:
    statistic: float
    df: int
    p_value: float
    method: str
    sigma_used: np.ndarray
    null_fit: FitResult

    def to_dict(self) -> dict:
        return {
            "statistic": float(self.statistic),
            "df": int(self.df),
            "p_value": float(self.p_value),
            "method": self.method,
            "null_fit": self.null_fit.to_dict(),
        }


def lm_test(panel: Panel, net: Network, alt_spec: ModelSpec) -> ScoreTestResult:
    """Linearity test against the intercept-drift alternative.

    The constrained fit is the linear model fitted to the panel (see
    _null_design); only alt_spec's family and domain are read.  The test
    forms only the drift column at g = 0, h = -b0*log(1 + X) (counts) or
    -b0*log(1 + |X|) (continuous), and projects with the fit's H11 and H12
    plus the b0/g cross curvature (counts) or its B11 and B12 (least squares).
    """
    if alt_spec.family != "drift":
        raise ValueError("the identifiable-parameter test is against the drift family")
    domain = alt_spec.domain
    fit = _null_design(panel, net, domain)
    b0, s1, m11 = fit.theta_hat[0], fit.scores, fit.hessian
    h = -b0 * np.log1p(_drift_arg(domain, fit.stack[1]))
    _, (s2,), (m12,) = _column_blocks(fit, [h])
    partial = s2.sum(axis=0)
    if domain == "count":       # the cross curvature sum resid log(1 + X) is -partial / b0
        m12[0] -= partial / b0
    else:   # s1 sums to 0: with T-1 <= 4 the effective scores are 0 or a multiple of 1
        if len(s1) <= 4:
            raise ValueError(f"the least-squares drift test needs T >= 6, got T = {len(s1) + 1}")
        m11, m12 = fit.opg, s1.T @ s2
    effective = s2 - s1 @ np.linalg.solve(m11, m12)
    _, s, vt, rank = _whiten(effective, s2)
    if rank < partial.shape[0]:
        raise np.linalg.LinAlgError("score covariance is singular")
    stat, df = float(np.sum(np.square(vt @ partial / s))), 1
    return ScoreTestResult(
        statistic=stat, df=df, p_value=chi2_sf(stat, df), method="chi2",
        sigma_used=effective.T @ effective, null_fit=fit)
