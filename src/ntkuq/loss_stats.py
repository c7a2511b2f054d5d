"""Analytic mean/variance of the ensemble test loss, plus a Monte Carlo oracle.

Given a Gaussian posterior over test outputs (shared covariance S per
output neuron, neurons uncorrelated) and the test labels, the mean and
variance of the MSE test loss over the ensemble have closed forms from
Gaussian moments. Output column k's residual is r_k ~ N(-Delta_k, S), so
Wick's theorem gives Var(r_k^T r_k) = 2 tr S^2 + 4 Delta_k^T S Delta_k; the
columns are independent, and var_L is the sum of those variances over
(2 B n_out)^2, never a difference of raw moments.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import label_matrix

__all__ = [
    "LossStats",
    "mc_loss_moments",
    "loss_stats",
]

_VAR_RTOL = 1e-12  # round-off in the Wick sum, relative to mu_L^2


@dataclass(frozen=True)
class LossStats:
    """mu_L and var_L of a posterior's test loss; eps_L = sigma_L / mu_L follows from them."""

    mu_L: float
    var_L: float
    eps_L: float = field(init=False)
    n_test: int
    n_out: int
    method: str = ""

    def __post_init__(self):
        object.__setattr__(self, "eps_L", _eps(self.mu_L, self.var_L))


def _residuals(post, labels):
    return label_matrix(labels, post.n_test, post.n_out) - post.mean


def _mean_loss(var, delta):
    """mu_L from the per-point output variances and the (points, n_out) residuals.

    mu_L = 1/(2 B n_out) * sum_b (n_out * Sigma_bb + ||Delta_b||^2).
    """
    b, n_out = delta.shape
    per_point = n_out * var + np.sum(delta * delta, axis=1)
    return float(np.sum(per_point) / (2.0 * b * n_out))


def _eps(mu, var):
    """eps_L = sqrt(var) / mu, defined only when mu > 0; NaN otherwise."""
    return float(np.sqrt(var) / mu) if mu > 0 else float("nan")


def loss_stats(post, labels):
    """mu_L and var_L of a posterior/label pair, as LossStats (which derives eps_L).

    Both come from one residual matrix; the off-diagonal entries of cov
    enter var_L through the Frobenius and bilinear terms of the Wick sum.
    """
    delta = _residuals(post, labels)
    b, n_out = delta.shape
    S = post.cov
    frob = float(np.sum(S * S))
    cross = float(np.sum(S * (delta @ delta.T)))
    mu = _mean_loss(post.var, delta)
    var = (2.0 * n_out * frob + 4.0 * cross) / (2.0 * b * n_out) ** 2
    if var < 0:
        if var < -_VAR_RTOL * mu * mu:
            raise ValueError("loss variance %g below round-off tolerance" % var)
        var = 0.0
    return LossStats(
        mu_L=mu,
        var_L=var,
        n_test=post.n_test,
        n_out=post.n_out,
        method=post.method,
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
