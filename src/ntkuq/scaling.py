"""Power-law fits in log-log space and matrix-element scaling scans."""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import IllConditionedError
from .infwidth import _factor, _one_blas_thread

__all__ = [
    "ScalingFit",
    "MatrixScalingReport",
    "FlatnessVerdict",
    "fit_power_law",
    "matrix_element_scan",
    "epsilon_flatness_check",
]


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
    within_threshold: bool
    within_2sigma: bool


def fit_power_law(points):
    """OLS of log10(value) on log10(N) with the 1-sigma slope error.

    slope_sigma = sqrt(s^2 / Sxx) with s^2 the residual variance at
    n - 2 degrees of freedom.
    """
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ValueError("power-law fit needs at least 3 points")
    ns = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    if np.any(vals <= 0) or np.any(ns <= 0):
        raise ValueError("power-law fit requires strictly positive sizes and values")
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
    size. The train NTK Theta_A is inverted on the closed-form posterior's
    gated factor, so the sizes excluded and reported are exactly those the
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
        tr = np.asarray(train_ids, dtype=int)
        te = np.asarray(test_ids, dtype=int)
        try:
            with _one_blas_thread():
                # dsytrf's info == 0, which _factor requires, rules out dsytri's info > 0.
                inv = lapack.dsytri(*_factor(kp.Theta[np.ix_(tr, tr)], "Theta_A"))[0]
        except IllConditionedError:
            excluded.append(n_d)
            continue
        # dsytri writes the upper triangle of the inverse only.
        inv = np.triu(inv) + np.triu(inv, 1).T
        off_mask = ~np.eye(tr.size, dtype=bool)
        stats["theta_test_train"][n_d] = _mean_abs(kp.Theta[np.ix_(tr, te)])
        stats["kernel_train"][n_d] = _mean_abs(kp.K[np.ix_(tr, tr)])
        stats["inv_theta"][n_d] = _mean_abs(inv)
        stats["inv_theta_diag"][n_d] = _mean_abs(np.diag(inv))
        stats["inv_theta_offdiag"][n_d] = (
            _mean_abs(inv[off_mask]) if tr.size > 1 else 0.0
        )

    exponents = {}
    for name in names:
        pts = [(n_d, v) for n_d, v in sorted(stats[name].items()) if v > 0]
        if len(pts) >= 3:
            try:
                exponents[name] = fit_power_law(pts)
            except ValueError:
                pass
    return MatrixScalingReport(stats=stats, exponents=exponents, excluded_sizes=excluded)


def epsilon_flatness_check(fit, threshold=0.15):
    """Verdict on whether a coefficient-of-variation fit is flat.

    Passes when |exponent| <= threshold or |exponent| <= 2 * slope_sigma;
    indeterminate below 4 fitted points.
    """
    if fit is None or fit.n_points < 4:
        return FlatnessVerdict(
            verdict="indeterminate",
            exponent=float("nan") if fit is None else fit.exponent,
            slope_sigma=float("nan") if fit is None else fit.slope_sigma,
            threshold=threshold,
            within_threshold=False,
            within_2sigma=False,
        )
    within_threshold = abs(fit.exponent) <= threshold
    within_2sigma = abs(fit.exponent) <= 2.0 * fit.slope_sigma
    return FlatnessVerdict(
        verdict="pass" if (within_threshold or within_2sigma) else "fail",
        exponent=fit.exponent,
        slope_sigma=fit.slope_sigma,
        threshold=threshold,
        within_threshold=within_threshold,
        within_2sigma=within_2sigma,
    )
