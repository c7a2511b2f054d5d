"""Analytic mean/variance of the ensemble test loss, plus a Monte Carlo oracle.

Given a Gaussian posterior over test outputs (shared covariance per
output neuron, neurons uncorrelated) and the test labels, the mean and
variance of the MSE test loss over the ensemble have closed forms from
Gaussian moments; the quartic term collapses by Wick's theorem.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import label_matrix

__all__ = [
    "LossStats",
    "loss_mean",
    "loss_variance",
    "coefficient_of_variation",
    "mc_loss_moments",
    "loss_stats",
]

_VAR_RTOL = 1e-12  # round-off in E[L^2] - mu_L^2, relative to E[L^2]


@dataclass(frozen=True)
class LossStats:
    mu_L: float
    var_L: float
    eps_L: float
    n_test: int
    n_out: int
    method: str = ""
    eps_defined: bool = True


def _residuals(post, labels):
    return label_matrix(labels, post.n_test, post.n_out) - post.mean


def loss_mean(post, labels):
    """Mean of the test MSE loss over the ensemble.

    mu_L = 1/(2 B n_out) * sum_b (n_out * Sigma_bb + ||Delta_b||^2).
    """
    return _mean_loss(post.var, _residuals(post, labels))


def _mean_loss(var, delta):
    """mu_L from the per-point output variances and the (points, n_out) residuals."""
    b, n_out = delta.shape
    per_point = n_out * var + np.sum(delta * delta, axis=1)
    return float(np.sum(per_point) / (2.0 * b * n_out))


def loss_variance(post, labels):
    """Variance of the test MSE loss over the ensemble.

    Requires the full test-test covariance; the off-diagonal entries
    enter through the Frobenius and bilinear terms of E[L^2].
    """
    return _moments(post, labels)[1]


def _moments(post, labels):
    """(mu_L, var_L), each computed once from one residual matrix."""
    if post.cov is None:
        raise ValueError("loss_variance needs the full covariance, not just the diagonal")
    delta = _residuals(post, labels)
    b, n_out = delta.shape
    S = post.cov
    d2 = np.sum(delta * delta, axis=1)

    sum_s = float(np.sum(post.var))
    sum_d2 = float(np.sum(d2))
    frob = float(np.sum(S * S))
    cross = float(np.sum(S * (delta @ delta.T)))

    e_l2 = (
        n_out * n_out * sum_s * sum_s
        + n_out * (2.0 * frob + 2.0 * sum_d2 * sum_s)
        + 4.0 * cross
        + sum_d2 * sum_d2
    ) / (2.0 * b * n_out) ** 2
    mu = _mean_loss(post.var, delta)
    var = e_l2 - mu * mu
    if var < 0:
        if var < -_VAR_RTOL * e_l2:
            raise ValueError("loss variance %g below round-off tolerance" % var)
        var = 0.0
    return mu, float(var)


def coefficient_of_variation(stats):
    """eps_L = sqrt(var_L) / mu_L, defined only when mu_L > 0; NaN otherwise."""
    return _eps(stats.mu_L, stats.var_L)


def _eps(mu, var):
    return float(np.sqrt(var) / mu) if mu > 0 else float("nan")


def loss_stats(post, labels):
    """Bundle mu_L, var_L and eps_L for a posterior/label pair."""
    mu, var = _moments(post, labels)
    return LossStats(
        mu_L=mu,
        var_L=var,
        eps_L=_eps(mu, var),
        n_test=post.n_test,
        n_out=post.n_out,
        method=post.method,
        eps_defined=mu > 0,
    )


def _psd_factor(cov):
    w, V = np.linalg.eigh(cov)
    w = np.maximum(w, 0.0)
    return V * np.sqrt(w)


def mc_loss_moments(post, labels, draws, seed):
    """Monte Carlo estimate of (mu_L, var_L) with standard errors.

    Samples output matrices from the posterior (independent columns,
    shared covariance) and takes empirical moments of the test loss.
    Returns (mean, variance, se_mean, se_variance).
    """
    if draws < 1000:
        raise ValueError("draws must be >= 1000")
    if post.cov is None:
        raise ValueError("mc_loss_moments needs the full covariance")
    delta = _residuals(post, labels)
    b, n_out = delta.shape
    F = _psd_factor(post.cov)
    if not np.all(np.isfinite(F)):
        raise ValueError("covariance factorization failed after PSD repair")
    rng = np.random.default_rng(seed)
    # z - y = F g - Delta, with g standard normal per (point, draw, neuron).
    g = rng.standard_normal((b, draws * n_out))
    noise = (F @ g).reshape(b, draws, n_out)
    resid = noise - delta[:, None, :]
    losses = np.sum(resid * resid, axis=(0, 2)) / (2.0 * b * n_out)

    mean = float(np.mean(losses))
    var = float(np.var(losses, ddof=1))
    centered = losses - mean
    m2 = np.mean(centered**2)
    m4 = np.mean(centered**4)
    se_mean = float(np.sqrt(var / draws))
    se_var = float(np.sqrt(max(m4 - (draws - 3) / (draws - 1) * m2 * m2, 0.0) / draws))
    return mean, var, se_mean, se_var
