"""Quasi-score linearity test with identifiable tested parameters.

The null linear model is fitted (QMLE for counts, least squares for
continuous data) and the partial score of the nonlinear coordinates is
standardized by its covariance Sigma = sum_t e_t e_t', the outer product
of the effective per-time scores e_t = s_t^(2) - M21 M11^-1 s_t^(1).
With M the curvature H (count QMLE) this is the quasi-likelihood
correction of sigma_correction, with M the score outer product B (least
squares, i.i.d. errors) the Schur complement B22 - B21 B11^-1 B12; no
large terms are formed, so none cancel.  The statistic is referred to a
chi-square with as many degrees of freedom as tested coordinates; this
is unaffected by the tested value sitting on the parameter boundary.

The per-time scores and the curvature come from the shared kernel
qmle._score_parts.  The statistic uses the unprojected partial score
(the nonlinear-block total, which is the partial score at the constrained
fit because the linear-block score vanishes there); the projection of
the linear block lives in Sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaincc

from .dgp import Panel
from .model import ModelSpec, mean_elementwise
from .netgraph import Network
from .qmle import FitResult, _quasi_parts, lagged_design, ols_fit_linear, qmle_fit

__all__ = [
    "ScoreTestResult",
    "chi2_sf",
    "sigma_correction",
    "psd_pinv",
    "lm_test",
]


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability via the regularized gamma Q."""
    if df < 1:
        raise ValueError("df must be a positive integer")
    if x < 0:
        raise ValueError("statistic must be nonnegative")
    return float(gammaincc(df / 2.0, x / 2.0))


def sigma_correction(hess: np.ndarray, opg: np.ndarray, m1: int) -> np.ndarray:
    """The paper's four-term covariance of the partial score at the constrained fit.

    hess and opg are the full m x m curvature and outer-product matrices
    with the linear block leading, or equal-shaped stacks of them; m1 is
    the linear block size.
    """
    if hess.shape != opg.shape or hess.shape[-1] != hess.shape[-2]:
        raise ValueError("hess and opg must be square with equal shapes")
    if not 0 < m1 < hess.shape[-1]:
        raise ValueError("linear block size must be interior")
    h11, h21 = hess[..., :m1, :m1], hess[..., m1:, :m1]
    b11, b12 = opg[..., :m1, :m1], opg[..., :m1, m1:]
    b21, b22 = opg[..., m1:, :m1], opg[..., m1:, m1:]
    a = h21 @ np.linalg.inv(h11)
    at = np.swapaxes(a, -1, -2)
    out = b22 - a @ b12 - b21 @ at + a @ b11 @ at
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def psd_pinv(mat: np.ndarray, rel_cutoff: float = 1e-12):
    """Pseudo-inverse of a nominally PSD matrix, or of a stack of them, via
    eigendecomposition.

    Eigenvalues below rel_cutoff times the largest or subnormal (their
    inverse may overflow), and all negative ones (sampling noise here),
    are treated as zero.  Returns (pinv, rank).
    """
    vals, vecs = np.linalg.eigh(0.5 * (mat + np.swapaxes(mat, -1, -2)))
    floor = np.maximum(vals.max(axis=-1, initial=0.0) * rel_cutoff, np.finfo(float).tiny)
    keep = vals > floor[..., None]
    inv_vals = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    return (vecs * inv_vals[..., None, :]) @ np.swapaxes(vecs, -1, -2), keep.sum(axis=-1)


@dataclass
class ScoreTestResult:
    statistic: float
    df: int
    p_value: float
    method: str
    partial_score: np.ndarray
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


def lm_test(panel: Panel, net: Network, alt_spec: ModelSpec,
            null_fit: Optional[FitResult] = None) -> ScoreTestResult:
    """Linearity test against the intercept-drift alternative.

    The constrained fit is the linear model; the extra Jacobian column at
    the null is -b0*log(1 + X) (counts) or -b0*log(1 + |X|) (continuous).
    The linear block is projected out of the per-time scores through the
    curvature (counts) or the score outer product (least squares).
    """
    if alt_spec.family != "drift":
        raise ValueError("the identifiable-parameter test is against the drift family")
    domain = alt_spec.domain
    linear = ModelSpec.linear(alt_spec.beta, domain)

    if null_fit is None:
        null_fit = (qmle_fit(panel, net, linear) if domain == "count"
                    else ols_fit_linear(panel, net))
    if not null_fit.converged:
        raise RuntimeError("null fit did not converge")
    beta = null_fit.theta_hat

    y_now, y_lag, x_lag = lagged_design(panel, net)
    # alternative evaluated at the constrained point (beta_hat, g = 0)
    at_null = ModelSpec.drift(beta, 0.0, domain)
    lam = mean_elementwise(ModelSpec.linear(beta, domain), x_lag, y_lag)
    s_t, hess = _quasi_parts(at_null, y_now, y_lag, x_lag, lam)
    proj = hess if domain == "count" else s_t.T @ s_t
    effective = s_t[:, 3:] - s_t[:, :3] @ np.linalg.solve(proj[:3, :3], proj[:3, 3:])
    sigma = effective.T @ effective

    partial = s_t.sum(axis=0)[3:]
    pinv, rank = psd_pinv(sigma)
    if rank < partial.shape[0]:
        raise np.linalg.LinAlgError("score covariance is singular")
    stat, df = max(float(partial @ pinv @ partial), 0.0), 1
    return ScoreTestResult(
        statistic=stat, df=df, p_value=chi2_sf(stat, df), method="chi2",
        partial_score=partial, sigma_used=sigma, null_fit=null_fit)
