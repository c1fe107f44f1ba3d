"""Quasi-score linearity test with identifiable tested parameters.

The null linear model is fitted (QMLE for counts, least squares for
continuous data) and the partial score of the nonlinear coordinates is
standardized by its covariance Sigma = sum_t e_t e_t', the outer product
of the effective per-time scores e_t = s_t^(2) - M21 M11^-1 s_t^(1).
With M the curvature H (count QMLE) this is the paper's four-term
correction B22 - A B12 - B21 A' + A B11 A' with A = H21 H11^-1; with M the
score outer product B (least squares, i.i.d. errors) it is the Schur
complement B22 - B21 B11^-1 B12.  No large terms are formed, so none
cancel.  The statistic is referred to a chi-square with as many degrees
of freedom as tested coordinates; this is unaffected by the tested value
sitting on the parameter boundary.

The per-time scores and the curvature come from the shared kernel
qmle._score_parts.  The statistic uses the unprojected partial score
(the nonlinear-block total, which is the partial score at the constrained
fit because the linear-block score vanishes there); the projection of
the linear block lives in Sigma.  The statistic is ||S^-1 V' partial||^2
from the thin SVD E = U S V' of the effective scores, so Sigma is never
inverted; _whiten and _null_design, which takes the design and fitted mean
from the null fit, also serve the profile tests of nuisance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .dgp import Panel
from .model import ModelSpec
from .netgraph import Network
from .qmle import FitResult, _quasi_parts, ols_fit_linear, qmle_fit

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


def _null_design(panel: Panel, net: Network, domain: str):
    """The linear null fitted to the panel (QMLE for counts, least squares
    for continuous data), and the lagged design (y_now, y_lag, x_lag) and
    null mean lam (positive for counts) that the fit hands over.  The QMLE
    starts at qmle_fit's default (0.6 mean(Y), 0.2, 0.2); the spec below
    names the family only."""
    null_fit = (qmle_fit(panel, net, ModelSpec.linear((1.0, 0.2, 0.2), "count"))
                if domain == "count" else ols_fit_linear(panel, net))
    if not null_fit.converged:
        raise RuntimeError("null fit did not converge")
    return null_fit, null_fit.design, null_fit.fitted


def _whiten(effective: np.ndarray):
    """Thin SVD E = U S V' of effective scores (one (T-1) x k matrix or a
    stack) and the rank of each: Sigma = E'E = V S^2 V', so x' Sigma^-1 x is
    ||S^-1 V' x||^2 and w' E Sigma^-1 E' w is ||U'w||^2 without inverting
    Sigma, whose condition number is the square of E's.  Singular values
    with s^2 at most 1e-12 s_max^2, or subnormal, count as zero."""
    u, s, vt = np.linalg.svd(effective, full_matrices=False)
    sq = s * s
    rank = (sq > np.maximum(1e-12 * sq[..., :1], np.finfo(float).tiny)).sum(axis=-1)
    return u, s, vt, rank


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
    _null_design); only alt_spec's family and domain are read.  The extra
    Jacobian column at the null is -b0*log(1 + X) (counts) or
    -b0*log(1 + |X|) (continuous).
    The linear block is projected out of the per-time scores through the
    curvature (counts) or the score outer product (least squares).
    """
    if alt_spec.family != "drift":
        raise ValueError("the identifiable-parameter test is against the drift family")
    domain = alt_spec.domain
    null_fit, (y_now, y_lag, x_lag), lam = _null_design(panel, net, domain)
    beta = null_fit.theta_hat
    # alternative evaluated at the constrained point (beta_hat, g = 0)
    s_t, hess = _quasi_parts(ModelSpec.drift(beta, 0.0, domain), y_now, y_lag, x_lag, lam)
    proj = hess if domain == "count" else s_t.T @ s_t
    effective = s_t[:, 3:] - s_t[:, :3] @ np.linalg.solve(proj[:3, :3], proj[:3, 3:])

    partial = s_t.sum(axis=0)[3:]
    _, s, vt, rank = _whiten(effective)
    if rank < partial.shape[0]:
        raise np.linalg.LinAlgError("score covariance is singular")
    stat, df = float(np.sum(np.square(vt @ partial / s))), 1
    return ScoreTestResult(
        statistic=stat, df=df, p_value=chi2_sf(stat, df), method="chi2",
        sigma_used=effective.T @ effective, null_fit=null_fit)
