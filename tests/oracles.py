"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: Gauss-Hermite
quadrature for the Gaussian pair expectations, textbook normal-equations
OLS for the power-law fits, a direct per-step GD recursion for small
instances, and raw Gaussian moments of the test loss in extended precision.
"""

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import erf


def gauss_hermite_pair(f, k_aa, k_ab, k_bb, nodes=64):
    """2D Gaussian expectation of f(u_a, u_b) under a 2x2 covariance.

    Uses a manual Cholesky-style factor so degenerate (perfectly
    correlated) covariances are handled.
    """
    x, w = hermgauss(nodes)
    l11 = np.sqrt(k_aa)
    l21 = k_ab / l11 if l11 > 0 else 0.0
    l22 = np.sqrt(max(k_bb - l21 * l21, 0.0))
    t1, t2 = np.meshgrid(x, x, indexing="ij")
    xi1 = np.sqrt(2.0) * t1
    xi2 = np.sqrt(2.0) * t2
    u_a = l11 * xi1
    u_b = l21 * xi1 + l22 * xi2
    weights = np.outer(w, w) / np.pi
    return float(np.sum(weights * f(u_a, u_b)))


def erf_product(u_a, u_b):
    return erf(u_a) * erf(u_b)


def erf_deriv_product(u_a, u_b):
    c = 2.0 / np.sqrt(np.pi)
    return (c * np.exp(-u_a**2)) * (c * np.exp(-u_b**2))


def ols_loglog(ns, values):
    """Normal-equations OLS of log10(values) on log10(ns).

    Returns (slope, intercept, slope_sigma) with the n-2 dof residual
    variance, assembled via the design-matrix normal equations rather
    than centered sums.
    """
    x = np.log10(np.asarray(ns, dtype=float))
    y = np.log10(np.asarray(values, dtype=float))
    A = np.column_stack([x, np.ones_like(x)])
    coef = np.linalg.solve(A.T @ A, A.T @ y)
    resid = y - A @ coef
    s2 = float(resid @ resid) / (len(x) - 2)
    cov = s2 * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(coef[1]), float(np.sqrt(cov[0, 0]))


def gd_map_limit(theta, kernel, train_ids, test_ids, labels, eta, steps):
    """Direct per-step evolution of the joint GD map, one step at a time."""
    tr = np.asarray(train_ids)
    te = np.asarray(test_ids)
    joint = np.concatenate([tr, te])
    n = joint.size
    Th = theta[np.ix_(joint, joint)]
    M = np.eye(n)
    M[:, : tr.size] -= eta * Th[:, : tr.size]
    c = eta * (Th[:, : tr.size] @ np.atleast_2d(labels))
    mean = np.zeros_like(c)
    cov = kernel[np.ix_(joint, joint)]
    for _ in range(steps):
        mean = M @ mean + c
        cov = M @ cov @ M.T
    sl = slice(tr.size, n)
    return mean[sl], cov[sl, sl]


def loss_variance_longdouble(mean, cov, labels):
    """var_L as E[L^2] - mu_L^2, from the four Gaussian-moment terms, in np.longdouble.

    The float64 inputs convert exactly, so this is the same posterior; the
    subtraction loses about log10(1/eps_L^2) of the extended format's digits.
    """
    S = np.asarray(cov, dtype=np.longdouble)
    delta = np.asarray(labels, dtype=np.longdouble) - np.asarray(mean, dtype=np.longdouble)
    b, n = delta.shape
    sum_s = np.trace(S)
    sum_d2 = np.sum(delta * delta)
    frob = np.sum(S * S)
    cross = np.sum(S * (delta @ delta.T))
    e_l2 = (
        n * n * sum_s * sum_s + n * (2 * frob + 2 * sum_d2 * sum_s) + 4 * cross + sum_d2 * sum_d2
    ) / (2 * b * n) ** 2
    mu = (n * sum_s + sum_d2) / (2 * b * n)
    return e_l2 - mu * mu
