"""Reference formulas of the paper, written with numpy alone.

The tests check the program's likelihoods, scores, curvatures and score
covariances against these.  Nothing here imports netar, so a wrong mean or
covariance formula in the program cannot also hide here.

values is an N x T panel and w the row-normalized N x N adjacency (any
matrix that supports `w @ array`).  Sums run over t = 2..T, conditioning on
the first column.
"""

import numpy as np


def lagged(values, w):
    """(Y_t, X_{t-1}, Y_{t-1}) for t = 2..T, with X_{t-1} = W Y_{t-1}."""
    y_lag = values[:, :-1]
    return values[:, 1:], w @ y_lag, y_lag


def count_mean(values, w, theta):
    """Count mean at theta = (b0, b1, b2) (linear) or (b0, b1, b2, g) (drift):
    lam = b0 / (1 + X)^g + b1 X + b2 Y, with g = 0 for the linear mean."""
    _, x, y = lagged(values, w)
    b0, b1, b2 = theta[:3]
    g = theta[3] if len(theta) == 4 else 0.0
    return b0 / (1.0 + x) ** g + b1 * x + b2 * y


def poisson_loglik(values, w, theta):
    """Working Poisson log-likelihood sum (Y log lam - lam), 0 log lam = 0."""
    y_now = values[:, 1:]
    lam = count_mean(values, w, theta)
    return float(np.sum(np.where(y_now > 0, y_now * np.log(lam), 0.0) - lam))


def lsq_loglik(values, w, theta):
    """-1/2 the residual sum of squares of the linear mean b0 + b1 X + b2 Y."""
    y_now, x, y = lagged(values, w)
    resid = y_now - (theta[0] + theta[1] * x + theta[2] * y)
    return float(-0.5 * np.sum(resid * resid))


def least_squares(values, w):
    """Least squares of Y_t on (1, X_{t-1}, Y_{t-1}) by np.linalg.lstsq on the
    stacked (N(T-1), 3) design.  Returns (theta, design, response)."""
    y_now, x, y = lagged(values, w)
    design = np.column_stack([np.ones(y_now.size), x.ravel(), y.ravel()])
    return np.linalg.lstsq(design, y_now.ravel(), rcond=None)[0], design, y_now.ravel()


def four_term_sigma(hess, opg, m1):
    """Covariance of the partial score at the constrained fit,
    B22 - A B12 - B21 A' + A B11 A' with A = H21 H11^-1, from the full
    curvature H and score outer product B, linear block (size m1) first."""
    a = hess[m1:, :m1] @ np.linalg.inv(hess[:m1, :m1])
    return (opg[m1:, m1:] - a @ opg[:m1, m1:] - opg[m1:, :m1] @ a.T
            + a @ opg[:m1, :m1] @ a.T)


def second_differences(f, theta, h):
    """Mixed central second differences of f at theta, the matrix with entries
    (f(+j+k) - f(+j-k) - f(-j+k) + f(-j-k)) / 4h^2, where +j is a step h in
    coordinate j.  For f a log-likelihood this is the central difference of
    its central-difference gradient."""
    steps = h * np.eye(len(theta))
    return np.array([[(f(theta + sj + sk) - f(theta + sj - sk) - f(theta - sj + sk)
                       + f(theta - sj - sk)) / (4 * h * h) for sk in steps] for sj in steps])


def score_parts(cols, weight, curv=None, second=()):
    """Per-time scores s_t = sum_n d_nt weight_nt ((T-1) x m) and the curvature
    sum_nt curv_nt d_nt d_nt' - sum_nt weight_nt d2_nt (m x m) of a derivative
    stack cols (m, N, T-1), formed densely; curv None is unit weight and second
    holds (row, col, values) entries of the upper triangle."""
    unit = np.ones(cols.shape[1:]) if curv is None else curv
    hess = np.einsum("ant,nt,bnt->ab", cols, unit, cols)
    for row, col, vals in second:
        hess[row, col] -= np.sum(weight * vals)
        if row != col:
            hess[col, row] -= np.sum(weight * vals)
    return np.einsum("ant,nt->ta", cols, weight), hess


def count_linear_fit(values, w, step_tol=1e-14, max_iter=100):
    """The linear count QMLE by Newton's method with step halving, started at
    (mean of Y_t, 0, 0) and run until a step moves no coordinate more than
    step_tol (1 + |theta|).  Returns (theta, iterations)."""
    y_now, x, y = lagged(values, w)
    cols = np.stack([np.ones_like(x), x, y])
    theta = np.array([y_now.mean(), 0.0, 0.0])
    for it in range(1, max_iter + 1):
        lam = count_mean(values, w, theta)
        score = np.einsum("ant,nt->a", cols, y_now / lam - 1.0)
        info = np.einsum("ant,nt,bnt->ab", cols, y_now / lam ** 2, cols)
        step = np.linalg.solve(info, score)
        scale, ll = 1.0, poisson_loglik(values, w, theta)
        while True:
            cand = theta + scale * step
            if (count_mean(values, w, cand).min() > 0
                    and poisson_loglik(values, w, cand) >= ll - 1e-9 * abs(ll)):
                break
            scale *= 0.5
        theta = cand
        if np.all(np.abs(scale * step) <= step_tol * (1.0 + np.abs(theta))):
            return theta, it
    raise RuntimeError("reference Newton loop did not converge")


def drift_statistic(values, w, beta):
    """The count drift test statistic at the linear fit beta: the partial
    score of g at g = 0, with derivative -b0 log(1 + X), standardized by
    Sigma = sum_t e_t e_t', e_t = s_t^(2) - H21 H11^-1 s_t^(1).  The partial
    score is the total of the e_t, which at the exact fit equals the total
    of the s_t^(2)."""
    y_now, x, y = lagged(values, w)
    lam = count_mean(values, w, beta)
    log1x = np.log1p(x)
    cols = np.stack([np.ones_like(x), x, y, -beta[0] * log1x])
    weight = y_now / lam - 1.0
    s_t, hess = score_parts(cols, weight, y_now / lam ** 2,
                            ((0, 3, -log1x), (3, 3, beta[0] * log1x ** 2)))
    eff = s_t[:, 3] - s_t[:, :3] @ np.linalg.solve(hess[:3, :3], hess[:3, 3])
    return float(eff.sum() ** 2 / (eff @ eff))
