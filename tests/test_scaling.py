import dataclasses
import inspect

import numpy as np
import pytest

from ntkuq import (
    ArchitectureConfig,
    FlatnessVerdict,
    IllConditionedError,
    InputSet,
    KernelPair,
    build_kernel_pair,
    closed_form_posterior,
    epsilon_flatness_check,
    fit_power_law,
    make_synthetic,
    matrix_element_scan,
)
from ntkuq.scaling import FLATNESS_THRESHOLD, ScalingFit

from oracles import ols_loglog


def test_exact_power_law():
    ns = [10, 100, 1000, 10000]
    fit = fit_power_law([(n, 7.0 * n**-0.5) for n in ns])
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
    assert fit.slope_sigma == pytest.approx(0.0, abs=1e-12)
    assert 10**fit.intercept == pytest.approx(7.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0)


def test_constant_values_zero_exponent():
    fit = fit_power_law([(10, 3.0), (100, 3.0), (1000, 3.0)])
    assert fit.exponent == pytest.approx(0.0, abs=1e-14)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n_pts = rng.integers(4, 12)
        ns = np.unique(rng.integers(2, 10_000, size=n_pts))
        while ns.size < 3:
            ns = np.unique(rng.integers(2, 10_000, size=n_pts))
        vals = 10 ** (rng.normal(0, 1) * np.log10(ns) + rng.normal(0, 0.3, size=ns.size))
        fit = fit_power_law(list(zip(ns, vals)))
        slope, intercept, sigma = ols_loglog(ns, vals)
        assert fit.exponent == pytest.approx(slope, abs=1e-10)
        assert fit.intercept == pytest.approx(intercept, abs=1e-10)
        assert fit.slope_sigma == pytest.approx(sigma, abs=1e-10)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_power_law([(10, 1.0), (20, 2.0)])
    with pytest.raises(ValueError):
        fit_power_law([(10, 1.0), (20, -2.0), (30, 1.0)])
    with pytest.raises(ValueError):
        fit_power_law([(10, 1.0), (10, 2.0), (30, 1.0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_sizes_and_values(bad):
    # NaN compares false to 0, so a positivity test alone let it through.
    for pts in ([(10, 1.0), (100, bad), (1000, 0.1)], [(10, 1.0), (bad, 0.5), (1000, 0.1)]):
        with pytest.raises(ValueError, match="finite, strictly positive"):
            fit_power_law(pts)


def test_fit_invariances():
    rng = np.random.default_rng(1)
    pts = [(int(n), float(v)) for n, v in zip([8, 32, 128, 512], rng.uniform(1, 5, 4))]
    base = fit_power_law(pts)
    shuffled = fit_power_law([pts[2], pts[0], pts[3], pts[1]])
    assert shuffled.exponent == pytest.approx(base.exponent, abs=1e-12)
    scaled = fit_power_law([(n, 10.0 * v) for n, v in pts])
    assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)
    assert scaled.intercept == pytest.approx(base.intercept + 1.0, abs=1e-12)


def _identity_builder(c, per_size=None):
    def build(n_d):
        scale = c * (per_size(n_d) if per_size else 1.0)
        n = n_d + 4
        K = np.eye(n)
        Theta = scale * np.eye(n)
        kp = KernelPair(K=K, Theta=Theta)
        return kp, np.arange(n_d), np.arange(n_d, n)

    return build


def test_scan_identity_theta():
    report = matrix_element_scan(_identity_builder(2.5), [4, 8, 16])
    for n_d in (4, 8, 16):
        assert report.stats["inv_theta_diag"][n_d] == pytest.approx(0.4)
        assert report.stats["inv_theta_offdiag"][n_d] == pytest.approx(0.0)
    assert report.exponents["inv_theta_diag"].exponent == pytest.approx(0.0, abs=1e-12)


def test_scan_linear_scaling_gives_k_minus_one():
    report = matrix_element_scan(
        _identity_builder(3.0, per_size=lambda n: float(n)), [4, 8, 16, 32]
    )
    assert report.exponents["inv_theta_diag"].exponent == pytest.approx(-1.0, abs=1e-12)
    # full-matrix mean picks up the n^2 - n zero off-diagonals: one extra 1/n
    assert report.exponents["inv_theta"].exponent == pytest.approx(-2.0, abs=1e-12)


def test_scan_inverse_matches_column_solve_oracle():
    rng = np.random.default_rng(2)

    def build(n_d):
        n = n_d + 3
        A = rng.standard_normal((n_d, n_d))
        theta_a = A @ A.T + n_d * np.eye(n_d)
        Theta = np.zeros((n, n))
        Theta[:n_d, :n_d] = theta_a
        Theta[n_d:, n_d:] = np.eye(3)
        K = np.eye(n)
        return (
            KernelPair(K=K, Theta=Theta),
            np.arange(n_d),
            np.arange(n_d, n),
        )

    sizes = [5, 9, 17]
    # rebuild with the same rng stream for the oracle pass
    built = {n_d: build(n_d) for n_d in sizes}
    report = matrix_element_scan(lambda n_d: built[n_d], sizes)
    for n_d in sizes:
        kp, tr, _ = built[n_d]
        theta_a = kp.Theta[np.ix_(tr, tr)]
        inv_cols = np.column_stack(
            [np.linalg.solve(theta_a, e) for e in np.eye(n_d)]
        )
        assert report.stats["inv_theta"][n_d] == pytest.approx(
            float(np.mean(np.abs(inv_cols))), abs=1e-10
        )


def test_scan_singular_size_excluded():
    def build(n_d):
        n = n_d + 2
        Theta = np.eye(n)
        if n_d == 8:
            Theta[0, 0] = 0.0
            Theta[1, 1] = 0.0
            Theta[0, 1] = Theta[1, 0] = 0.0
            Theta[:n_d, :n_d] = 0.0
        return KernelPair(K=np.eye(n), Theta=Theta), np.arange(n_d), np.arange(n_d, n)

    report = matrix_element_scan(build, [4, 8, 16])
    assert report.excluded_sizes == [8]
    assert 8 not in report.stats["inv_theta"]


def test_scan_excludes_what_the_posterior_gate_rejects():
    # LU inverts Theta_A at kappa ~ 4e12 and 2e16 without complaint; the scan
    # excludes every size the closed-form posterior's gate rejects, and
    # inverts the others on that gate's factor.
    data = make_synthetic("sinusoid", 200, 2, 3)
    kp = build_kernel_pair(data.inputs, ArchitectureConfig(depth=3, input_dim=2))
    sizes, te = [8, 16, 32, 64, 128], np.arange(128, 200)
    report = matrix_element_scan(lambda n_d: (kp, np.arange(n_d), te), sizes)
    assert report.excluded_sizes == [64, 128]
    for n_d in sizes:
        try:
            closed_form_posterior(kp, np.arange(n_d), te, data.labels[:n_d])
        except IllConditionedError:
            assert n_d not in report.stats["inv_theta"]
            continue
        theta_a = kp.Theta[:n_d, :n_d]
        inv = np.linalg.inv(theta_a)
        off = inv[~np.eye(n_d, dtype=bool)]
        tol = 4 * np.linalg.cond(theta_a) * np.finfo(float).eps
        for name, want in (("inv_theta", inv), ("inv_theta_diag", np.diag(inv)),
                           ("inv_theta_offdiag", off)):
            assert report.stats[name][n_d] == pytest.approx(np.mean(np.abs(want)), rel=tol)


def test_scan_permutation_invariance():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 5))
    arch = ArchitectureConfig(depth=2, input_dim=5)
    kp = build_kernel_pair(InputSet(X), arch)

    def build(perm):
        def b(n_d):
            return kp, perm[:n_d], np.arange(16, 20)

        return b

    base_perm = np.arange(16)
    r1 = matrix_element_scan(build(base_perm), [8])
    # permuting within the same first-8 subset
    r2 = matrix_element_scan(build(np.concatenate([base_perm[:8][::-1], base_perm[8:]])), [8])
    for name in r1.stats:
        assert r1.stats[name][8] == pytest.approx(r2.stats[name][8], abs=1e-12)


def test_flatness_verdicts():
    assert (
        epsilon_flatness_check(
            ScalingFit(exponent=0.01, intercept=0, slope_sigma=0.05, n_points=5, r_squared=0.5)
        ).verdict
        == "pass"
    )
    assert (
        epsilon_flatness_check(
            ScalingFit(exponent=-0.6, intercept=0, slope_sigma=0.02, n_points=5, r_squared=0.99)
        ).verdict
        == "fail"
    )
    assert (
        epsilon_flatness_check(
            ScalingFit(exponent=-0.3, intercept=0, slope_sigma=0.2, n_points=6, r_squared=0.5)
        ).verdict
        == "pass"
    )  # within 2 sigma of zero
    assert (
        epsilon_flatness_check(
            ScalingFit(exponent=0.0, intercept=0, slope_sigma=0.0, n_points=3, r_squared=1.0)
        ).verdict
        == "indeterminate"
    )
    assert epsilon_flatness_check(None).verdict == "indeterminate"


def test_flatness_threshold_is_fixed():
    # The verdict holds what flatness.json stores; the threshold is a constant, not a parameter.
    assert [f.name for f in dataclasses.fields(FlatnessVerdict)] == [
        "verdict", "exponent", "slope_sigma", "threshold"
    ]
    assert list(inspect.signature(epsilon_flatness_check).parameters) == ["fit"]
    assert FLATNESS_THRESHOLD == 0.15
    for exponent, verdict in ((-0.15, "pass"), (0.1501, "fail")):
        fit = ScalingFit(exponent=exponent, intercept=0, slope_sigma=0.01, n_points=4, r_squared=1)
        got = epsilon_flatness_check(fit)
        assert (got.verdict, got.threshold) == (verdict, FLATNESS_THRESHOLD)
    assert epsilon_flatness_check(None).threshold == FLATNESS_THRESHOLD


def test_exponent_composition_delta_zero():
    # with Delta = 0 and a fixed covariance shape whose scale follows a
    # power law, sigma_L^2 must scale with exactly twice the mu_L exponent
    from ntkuq import PredictivePosterior, loss_stats

    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    base_cov = A @ A.T / 6
    sizes = [32, 64, 128, 256, 512]
    mus, var2s = [], []
    for n in sizes:
        scale = 4.2 * n**-1.5
        post = PredictivePosterior(
            mean=np.zeros((6, 1)), cov=scale * base_cov, method="closed_form"
        )
        s = loss_stats(post, np.zeros((6, 1)))
        mus.append((n, s.mu_L))
        var2s.append((n, s.var_L))
    fm = fit_power_law(mus)
    fv = fit_power_law(var2s)
    combined = 2 * fm.slope_sigma + fv.slope_sigma
    assert abs(fv.exponent - 2.0 * fm.exponent) <= max(combined, 1e-10)
