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
