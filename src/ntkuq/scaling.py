"""Power-law fits in log-log space and matrix-element scaling scans."""

from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedError
from .infwidth import _block, _one_blas_thread, _rows, _solve

__all__ = [
    "ScalingFit",
    "MatrixScalingReport",
    "FlatnessVerdict",
    "fit_power_law",
    "matrix_element_scan",
    "epsilon_flatness_check",
]

FLATNESS_THRESHOLD = 0.15  # |exponent| up to which an eps_L fit is flat, whatever its slope_sigma


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    intercept: float
    slope_sigma: float
    n_points: int
    r_squared: float


@dataclass(frozen=True)
class MatrixScalingReport:
    """Mean |element| statistics per training-set size, with fitted exponents.

    stats maps stat name -> {N_D: mean |element|}; exponents maps the
    same names to ScalingFit objects when >= 3 sizes were measured.
    Stat names: theta_test_train, kernel_train, inv_theta, inv_theta_diag,
    inv_theta_offdiag.
    """

    stats: dict
    exponents: dict = field(default_factory=dict)
    excluded_sizes: list = field(default_factory=list)


@dataclass(frozen=True)
class FlatnessVerdict:
    verdict: str  # "pass" | "fail" | "indeterminate"
    exponent: float
    slope_sigma: float
    threshold: float


def fit_power_law(points):
    """OLS of log10(value) on log10(N) with the 1-sigma slope error.

    slope_sigma = sqrt(s^2 / Sxx) with s^2 the residual variance at
    n - 2 degrees of freedom.
    """
    pts = np.array([(float(n), float(v)) for n, v in points])
    if len(pts) < 3:
        raise ValueError("power-law fit needs at least 3 points")
    if not np.all(np.isfinite(pts) & (pts > 0)):
        raise ValueError("power-law fit requires finite, strictly positive sizes and values")
    ns, vals = pts.T
    if np.unique(ns).size != ns.size:
        raise ValueError("duplicate sizes in power-law fit")

    x = np.log10(ns)
    y = np.log10(vals)
    xbar = x.mean()
    ybar = y.mean()
    sxx = np.sum((x - xbar) ** 2)
    slope = np.sum((x - xbar) * (y - ybar)) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    ssr = float(np.sum(resid**2))
    s2 = ssr / (len(pts) - 2)
    slope_sigma = float(np.sqrt(s2 / sxx))
    syy = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 - ssr / syy if syy > 0 else 1.0
    return ScalingFit(
        exponent=float(slope),
        intercept=float(intercept),
        slope_sigma=slope_sigma,
        n_points=len(pts),
        r_squared=float(r2),
    )


def _mean_abs(a):
    return float(np.mean(np.abs(a))) if a.size else float("nan")


def matrix_element_scan(builder, sizes):
    """Mean |element| of the kernel/NTK blocks across training-set sizes.

    builder(n_d) must return (KernelPair, train_ids, test_ids) for that
    size. The train NTK Theta_A is inverted by the closed-form posterior's
    gated solve, so the sizes excluded and reported are exactly those the
    posterior rejects (reciprocal condition estimate below RCOND_LIMIT).
    Exponents are fitted when >= 3 sizes survive.
    """
    names = [
        "theta_test_train",
        "kernel_train",
        "inv_theta",
        "inv_theta_diag",
        "inv_theta_offdiag",
    ]
    stats = {name: {} for name in names}
    excluded = []
    for n_d in sizes:
        kp, train_ids, test_ids = builder(n_d)
        tr, te = _rows(train_ids, kp, "train ids"), _rows(test_ids, kp, "test ids")
        n_train = tr.size
        try:
            with _one_blas_thread():
                inv = _solve(_block(kp.Theta, tr, tr), np.eye(n_train), "Theta_A")
        except IllConditionedError:
            excluded.append(n_d)
            continue
        off_mask = ~np.eye(n_train, dtype=bool)
        stats["theta_test_train"][n_d] = _mean_abs(_block(kp.Theta, tr, te))
        stats["kernel_train"][n_d] = _mean_abs(_block(kp.K, tr, tr))
        stats["inv_theta"][n_d] = _mean_abs(inv)
        stats["inv_theta_diag"][n_d] = _mean_abs(np.diag(inv))
        stats["inv_theta_offdiag"][n_d] = (
            _mean_abs(inv[off_mask]) if n_train > 1 else 0.0
        )

    exponents = {}
    for name in names:
        pts = [(n_d, v) for n_d, v in sorted(stats[name].items()) if v > 0]
        if len(pts) >= 3:
            exponents[name] = fit_power_law(pts)
    return MatrixScalingReport(stats=stats, exponents=exponents, excluded_sizes=excluded)


def epsilon_flatness_check(fit):
    """Verdict on whether a coefficient-of-variation fit is flat.

    Passes when |exponent| <= FLATNESS_THRESHOLD or |exponent| <= 2 * slope_sigma;
    indeterminate below 4 fitted points.
    """
    if fit is None or fit.n_points < 4:
        verdict = "indeterminate"
    elif abs(fit.exponent) <= FLATNESS_THRESHOLD or abs(fit.exponent) <= 2.0 * fit.slope_sigma:
        verdict = "pass"
    else:
        verdict = "fail"
    return FlatnessVerdict(
        verdict=verdict,
        exponent=float("nan") if fit is None else fit.exponent,
        slope_sigma=float("nan") if fit is None else fit.slope_sigma,
        threshold=FLATNESS_THRESHOLD,
    )
