import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from ntkuq import (
    ArchitectureConfig,
    Dataset,
    EarlyStopPolicy,
    IllConditionedError,
    InputSet,
    KernelPair,
    PredictivePosterior,
    TrainConfig,
    bayesian_posterior,
    build_kernel_pair,
    closed_form_posterior,
    gd_epoch,
    gd_evolve,
    init_network,
    loss_stats,
    matrix_element_scan,
    mse_loss,
    save_posterior_jsonl,
)
from ntkuq import infwidth, scaling
from ntkuq.errors import DivergenceError
from ntkuq.infwidth import RCOND_LIMIT, _one_blas_thread, _openblas_pools, _solve

from oracles import gd_map_limit


def _random_instance(seed, n_train=8, n_test=3, d=10, depth=2, n_out=1, lambda_b=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_train + n_test, d))
    arch = ArchitectureConfig(depth=depth, input_dim=d, lambda_b=lambda_b)
    kp = build_kernel_pair(InputSet(X), arch)
    y = rng.standard_normal((n_train, n_out))
    return kp, np.arange(n_train), np.arange(n_train, n_train + n_test), y


def _dup_train_policy(kp, n_train, n_test, y, n_val=2, **kw):
    """gd_evolve's early-stopping keywords: validation on the duplicated train
    points, the last kernel rows, under EarlyStopPolicy(**kw)."""
    return dict(
        validation_ids=np.arange(n_train + n_test, n_train + n_test + n_val),
        validation_labels=y[:n_val],
        stop=EarlyStopPolicy(**kw),
    )


def _with_dup_train(seed, n_val=2, **inst_kw):
    """Instance whose joined inputs repeat the first n_val train points at the end."""
    rng = np.random.default_rng(seed)
    n_train = inst_kw.get("n_train", 8)
    n_test = inst_kw.get("n_test", 3)
    d = inst_kw.get("d", 10)
    depth = inst_kw.get("depth", 2)
    X = rng.standard_normal((n_train + n_test, d))
    Xj = np.vstack([X, X[:n_val]])
    arch = ArchitectureConfig(depth=depth, input_dim=d)
    kp = build_kernel_pair(InputSet(Xj), arch)
    y = rng.standard_normal((n_train, 1))
    return kp, n_train, n_test, y


def test_interpolation_at_training_point():
    kp, tr, te, y = _random_instance(0, n_train=1, n_test=1)
    post = closed_form_posterior(kp, tr, tr, y)
    assert post.mean[0, 0] == pytest.approx(y[0, 0], abs=1e-10)
    assert post.cov[0, 0] == pytest.approx(0.0, abs=1e-10)


def test_interpolation_two_orthonormal_points():
    X = np.array([[1.0, 0.0], [0.0, 1.0]]) * np.sqrt(2.0)
    arch = ArchitectureConfig(depth=1, input_dim=2, lambda_b=0.0, lambda_w=1.0)
    kp = build_kernel_pair(InputSet(X), arch)
    y = np.array([[1.0], [-1.0]])
    post = closed_form_posterior(kp, [0, 1], [0], y)
    assert post.mean[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert post.cov[0, 0] == pytest.approx(0.0, abs=1e-10)


def test_closed_form_matches_direct_gd_map_oracle():
    kp, tr, te, y = _random_instance(1)
    post = closed_form_posterior(kp, tr, te, y)
    theta_a = kp.Theta[np.ix_(tr, tr)]
    eta = 0.5 / np.max(np.linalg.eigvalsh(theta_a))
    mean, cov = gd_map_limit(kp.Theta, kp.K, tr, te, y, eta, steps=20000)
    np.testing.assert_allclose(mean, post.mean, rtol=1e-6)
    np.testing.assert_allclose(cov, post.cov, atol=1e-6)


def test_gd_evolve_matches_closed_form():
    for seed, depth in [(2, 1), (3, 2), (4, 3)]:
        kp, n_train, n_test, y = _with_dup_train(seed, depth=depth)
        tr = np.arange(n_train)
        te = np.arange(n_train, n_train + n_test)
        closed = closed_form_posterior(kp, tr, te, y)
        pol = _dup_train_policy(
            kp, n_train, n_test, y, patience=50, check_every=200, max_steps=2_000_000
        )
        lam = np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
        post = gd_evolve(kp, tr, te, y, eta=0.5 / lam, **pol)
        np.testing.assert_allclose(post.mean, closed.mean, rtol=1e-6)
        np.testing.assert_allclose(post.cov, closed.cov, atol=1e-5)


def test_gd_evolve_scalar_contraction():
    # one train point, scalar case: mean -> y, variance -> 0
    kp, tr, te, y = _random_instance(5, n_train=1, n_test=1)
    kp2 = KernelPair(K=kp.K, Theta=kp.Theta)
    theta_aa = kp.Theta[0, 0]
    pol = EarlyStopPolicy(patience=100, check_every=50, max_steps=500_000)
    # test side = (real test point, duplicate of the train point)
    post = gd_evolve(kp2, [0], [1, 0], y, eta=1.5 / theta_aa,
                     validation_ids=np.array([0]), validation_labels=y, stop=pol)
    assert post.mean[1, 0] == pytest.approx(y[0, 0], abs=1e-8)
    assert post.cov[1, 1] == pytest.approx(0.0, abs=1e-8)


def test_gd_evolve_eta_zero_identity():
    kp, tr, te, y = _random_instance(6)
    pol = EarlyStopPolicy(patience=3, check_every=10, max_steps=1000)
    post = gd_evolve(kp, tr, te, y, eta=0.0, validation_ids=te,
                     validation_labels=np.zeros((te.size, 1)), stop=pol)
    np.testing.assert_array_equal(post.mean, np.zeros((te.size, 1)))
    np.testing.assert_array_equal(post.cov, kp.K[np.ix_(te, te)])


def test_gd_evolve_rejects_negative_and_nan_eta():
    # A NaN or infinite step used to pass "eta < 0" and surface as a DivergenceError.
    kp, tr, te, y = _random_instance(6)
    for eta in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eta must be >= 0"):
            gd_evolve(kp, tr, te, y, eta=eta, validation_ids=te,
                      validation_labels=np.zeros((te.size, 1)))


def test_gd_evolve_divergence_detected():
    kp, tr, te, y = _random_instance(7)
    lam = np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
    pol = EarlyStopPolicy(patience=1000, check_every=100, max_steps=1_000_000)
    with pytest.raises(DivergenceError):
        gd_evolve(kp, tr, te, y, eta=3.0 / lam, validation_ids=te,
                  validation_labels=np.zeros((te.size, 1)), stop=pol)


def test_gd_evolve_returns_only_the_test_rows():
    # Validation rows are kernel rows of their own: the joint is [train,
    # validation, test], and the posterior covers test_ids alone.
    kp, tr, side, y = _random_instance(12, n_train=8, n_test=6)
    va, te = side[:2], side[2:]
    lam = np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
    pol = dict(validation_ids=va, validation_labels=kp.K[va, :1],
               stop=EarlyStopPolicy(patience=3, check_every=10, max_steps=3000))
    post = gd_evolve(kp, tr, te, y, eta=0.5 / lam, **pol)
    assert post.mean.shape == (te.size, 1) and post.cov.shape == (te.size, te.size)
    # The old call shape, validation rows handed in on the test side too,
    # puts them in the joint twice. Its test block stops at the same step
    # and differs only by GEMM rounding.
    both = gd_evolve(kp, tr, side, y, eta=0.5 / lam, **pol)
    assert both.steps_used == post.steps_used > 0
    np.testing.assert_allclose(post.mean, both.mean[2:], rtol=1e-12)
    np.testing.assert_allclose(post.cov, both.cov[2:, 2:], rtol=1e-12, atol=1e-15)
    for bad in (-1, kp.count):
        with pytest.raises(ValueError, match="validation ids"):
            gd_evolve(kp, tr, te, y, validation_ids=[bad], validation_labels=np.zeros((1, 1)))


def test_early_stop_policy_needs_validation_ids():
    # With none, the first check would take a mean over nothing.
    kp, tr, te, y = _random_instance(31, n_train=8, n_test=4)
    with pytest.raises(ValueError, match="at least one validation id"):
        gd_evolve(kp, tr, te, y, validation_ids=[], validation_labels=np.zeros((0, 1)))


def test_early_stop_policy_rejects_negative_max_steps():
    # Before the check, max_steps=-5 returned the prior (cov K_BB, 0 steps) as
    # the "iterative" posterior. Zero steps still asks for the prior.
    kp, tr, te, y = _random_instance(31, n_train=8, n_test=4)
    va = te[:2]
    with pytest.raises(ValueError, match="max_steps must be >= 0"):
        EarlyStopPolicy(max_steps=-5)
    prior = gd_evolve(kp, tr, te, y, eta=0.1, validation_ids=va, validation_labels=np.zeros((2, 1)),
                      stop=EarlyStopPolicy(max_steps=0))
    assert prior.steps_used == 0 and not prior.mean.any()
    assert np.array_equal(prior.cov, kp.K[np.ix_(te, te)])


def test_gd_evolve_never_steps_past_max_steps():
    # The validation loss on the duplicated train points falls at every step,
    # so each run ends at max_steps, which 100 does not divide: the last check
    # covers the 50 steps left, and agrees with checks 50 steps apart.
    kp, n_train, n_test, y = _with_dup_train(13)
    tr = np.arange(n_train)
    te = np.arange(n_train, n_train + n_test)
    eta = 0.5 / np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
    posts = [
        gd_evolve(
            kp, tr, te, y, eta=eta,
            **_dup_train_policy(kp, n_train, n_test, y, check_every=every, max_steps=150),
        )
        for every in (100, 50)
    ]
    assert [p.steps_used for p in posts] == [150, 150]
    np.testing.assert_allclose(posts[0].mean, posts[1].mean, rtol=1e-12)
    np.testing.assert_allclose(posts[0].cov, posts[1].cov, rtol=1e-12, atol=1e-15)
    short = gd_evolve(
        kp, tr, te, y, eta=eta,
        **_dup_train_policy(kp, n_train, n_test, y, check_every=100, max_steps=30),
    )
    assert short.steps_used == 30


def test_gd_evolve_composes_at_most_max_steps():
    # A check_every beyond max_steps composes only the max_steps steps that
    # run: at 10^7 it gives the bits of check_every = 10, in milliseconds.
    # Composing check_every steps regardless takes over a minute at 10^7.
    kp, n_train, n_test, y = _with_dup_train(14)
    tr = np.arange(n_train)
    te = np.arange(n_train, n_train + n_test)
    start = time.perf_counter()
    big = gd_evolve(
        kp, tr, te, y, **_dup_train_policy(kp, n_train, n_test, y, check_every=10**7, max_steps=10)
    )
    elapsed = time.perf_counter() - start
    small = gd_evolve(
        kp, tr, te, y, **_dup_train_policy(kp, n_train, n_test, y, check_every=10, max_steps=10)
    )
    assert big.steps_used == small.steps_used == 10
    assert np.array_equal(big.mean, small.mean) and np.array_equal(big.cov, small.cov)
    assert elapsed < 5.0


def test_eta_independence_of_limits():
    kp, n_train, n_test, y = _with_dup_train(8)
    tr = np.arange(n_train)
    te = np.arange(n_train, n_train + n_test)
    lam = np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
    results = []
    for frac in (0.1, 0.5, 1.0):
        pol = _dup_train_policy(
            kp, n_train, n_test, y, patience=50, check_every=200, max_steps=2_000_000
        )
        post = gd_evolve(kp, tr, te, y, eta=frac / lam, **pol)
        results.append(post.mean)
    np.testing.assert_allclose(results[0], results[1], rtol=1e-5)
    np.testing.assert_allclose(results[1], results[2], rtol=1e-5)


def test_ill_conditioned_raises_structured_error():
    # duplicated train point makes Theta_A singular
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 5))
    X[1] = X[0]
    kp = build_kernel_pair(InputSet(X), ArchitectureConfig(depth=2, input_dim=5))
    with pytest.raises(IllConditionedError):
        closed_form_posterior(kp, [0, 1, 2], [3], np.zeros((3, 1)))


def _with_spectrum(rcond, seed, n=12):
    """Symmetric n x n matrix whose |eigenvalues| run from 1 down to rcond."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, rcond, n)
    if seed % 2:
        lam[1::2] *= -1.0  # indefinite: the LDL^T gate assumes no sign
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def _check_conditioning(A, name):
    # The gate alone: a zero right-hand side makes the rest of the solve trivial.
    with _one_blas_thread():
        _solve(A, np.zeros((A.shape[0], 1)), name)


def _norm_1(A):
    return np.abs(A).sum(axis=0).max()


def _gate_passes(A):
    try:
        _check_conditioning(A, "A")
    except IllConditionedError:
        return False
    return True


def test_conditioning_gate_is_the_1norm_rcond_estimate():
    # The gate is LAPACK's estimate of 1 / (|A|_1 |A^-1|_1) on the LDL^T
    # factor. For symmetric A, rcond_2 / n <= rcond_1 <= rcond_2, and the
    # estimate of |A^-1|_1 never overshoots, so the gate is never looser than
    # a 2-norm gate and passes everything at rcond_2 >= n * RCOND_LIMIT.
    counts = {"raised below": 0, "passed above n x": 0, "matched 1-norm": 0}
    for n in (12, 40):
        limits = (RCOND_LIMIT, n * RCOND_LIMIT)
        nominal = [*np.geomspace(1e-16, 1e-8, 33), *(f * x for x in limits for f in (0.98, 1.02))]
        for seed in range(4):
            for rcond in nominal:
                A = _with_spectrum(rcond, seed, n)
                s = np.linalg.svd(A, compute_uv=False)
                rcond_2 = s[-1] / s[0]
                rcond_1 = 1.0 / (_norm_1(A) * _norm_1(np.linalg.inv(A)))
                passed = _gate_passes(A)
                if rcond_2 < RCOND_LIMIT:
                    assert not passed, (n, seed, rcond_2)
                    counts["raised below"] += 1
                if rcond_2 >= n * RCOND_LIMIT:
                    assert passed, (n, seed, rcond_2)
                    counts["passed above n x"] += 1
                if not 0.5 * RCOND_LIMIT <= rcond_1 <= 2.0 * RCOND_LIMIT:
                    assert passed == (rcond_1 > RCOND_LIMIT), (n, seed, rcond_1)
                    counts["matched 1-norm"] += 1
    assert min(counts.values()) >= 4 * 2 * 10, counts
    v = np.random.default_rng(1).standard_normal(5)
    nan = np.eye(3)
    nan[0, 1] = nan[1, 0] = np.nan
    for bad in (np.outer(v, v), np.zeros((3, 3)), nan, np.full((2, 2), np.inf)):
        with pytest.raises(IllConditionedError):
            _check_conditioning(bad, "A")


def test_linearity_in_labels():
    kp, tr, te, _ = _random_instance(10)
    rng = np.random.default_rng(11)
    y1 = rng.standard_normal((tr.size, 1))
    y2 = rng.standard_normal((tr.size, 1))
    p1 = closed_form_posterior(kp, tr, te, y1)
    p2 = closed_form_posterior(kp, tr, te, y2)
    p12 = closed_form_posterior(kp, tr, te, y1 + y2)
    np.testing.assert_allclose(p12.mean, p1.mean + p2.mean, atol=1e-10)
    np.testing.assert_array_equal(p1.cov, p2.cov)


def test_covariance_psd():
    for seed in range(5):
        kp, tr, te, y = _random_instance(20 + seed, n_train=12, n_test=6, depth=3)
        post = closed_form_posterior(kp, tr, te, y)
        w = np.linalg.eigvalsh(post.cov)
        assert w.min() >= -1e-8 * max(w.max(), 1e-300)


def test_multi_output_shared_covariance():
    kp, tr, te, y = _random_instance(30, n_out=3)
    post = closed_form_posterior(kp, tr, te, y)
    assert post.mean.shape == (te.size, 3)
    single = closed_form_posterior(kp, tr, te, y[:, :1])
    np.testing.assert_array_equal(post.cov, single.cov)


def test_bayesian_interpolates_training_point():
    kp, tr, te, y = _random_instance(40)
    post = bayesian_posterior(kp, tr, tr[:2], y)
    np.testing.assert_allclose(post.mean, y[:2], atol=1e-8)
    assert np.all(post.var <= 1e-8)


def test_bayesian_equals_reduced_gp_form():
    import scipy.linalg

    for seed in range(5):
        kp, tr, te, y = _random_instance(50 + seed)
        post = bayesian_posterior(kp, tr, te, y)
        K_A = kp.K[np.ix_(tr, tr)]
        K_B = kp.K[np.ix_(tr, te)]
        solved = scipy.linalg.solve(K_A, np.column_stack([y, K_B]), assume_a="sym")
        mean = K_B.T @ solved[:, : y.shape[1]]
        cov = kp.K[np.ix_(te, te)] - K_B.T @ solved[:, y.shape[1] :]
        np.testing.assert_allclose(post.mean, mean, atol=1e-10)
        np.testing.assert_allclose(post.cov, 0.5 * (cov + cov.T), atol=1e-10)


def test_bayesian_variance_reduction():
    kp, tr, te, y = _random_instance(60, n_train=8, n_test=3)
    post = bayesian_posterior(kp, tr, te, y)
    w = np.linalg.eigvalsh(post.cov)
    assert w.min() >= -1e-8 * w.max()
    assert np.all(post.var <= np.diag(kp.K[np.ix_(te, te)]) + 1e-12)
    assert post.method == "bayesian"


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_posterior_jsonl_round_trip(tmp_path):
    kp, tr, te, y = _random_instance(70, n_out=2)
    post = closed_form_posterior(kp, tr, te, y)
    path = tmp_path / "post.jsonl"
    save_posterior_jsonl(post, path, ids=te)
    recs = _records(path)
    assert [r["id"] for r in recs] == te.tolist()
    np.testing.assert_array_equal([r["mean"] for r in recs], post.mean)
    np.testing.assert_array_equal([r["var"] for r in recs], post.var)
    assert {(r["method"], r["steps_used"]) for r in recs} == {("closed_form", 0)}


def test_posterior_jsonl_needs_one_id_per_test_point(tmp_path):
    kp, tr, te, y = _random_instance(71, n_test=10)
    post = closed_form_posterior(kp, tr, te, y)
    path = tmp_path / "post.jsonl"
    for ids in (te[:3], np.arange(11)):
        with pytest.raises(ValueError, match="ids given for a posterior of 10 test points"):
            save_posterior_jsonl(post, path, ids=ids)


def test_posterior_jsonl_keeps_method_and_steps(tmp_path):
    kp, n_train, n_test, y = _with_dup_train(72)
    tr = np.arange(n_train)
    te = np.arange(n_train, n_train + n_test)
    pol = _dup_train_policy(kp, n_train, n_test, y, patience=3, check_every=10, max_steps=200)
    lam = np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
    posts = [bayesian_posterior(kp, tr, te, y), gd_evolve(kp, tr, te, y, eta=0.5 / lam, **pol)]
    assert [p.method for p in posts] == ["bayesian", "iterative"] and posts[1].steps_used > 0
    for post in posts:
        path = tmp_path / (post.method + ".jsonl")
        save_posterior_jsonl(post, path)
        recs = _records(path)
        np.testing.assert_array_equal([r["mean"] for r in recs], post.mean)
        np.testing.assert_array_equal([r["var"] for r in recs], post.var)
        assert {(r["method"], r["steps_used"]) for r in recs} == {(post.method, post.steps_used)}


def test_posterior_var_is_the_diagonal_of_cov():
    # var is derived from cov on every route; it cannot be given.
    kp, n_train, n_test, y = _with_dup_train(73)
    tr = np.arange(n_train)
    te = np.arange(n_train, n_train + n_test)
    pol = _dup_train_policy(kp, n_train, n_test, y, patience=3, check_every=10, max_steps=200)
    posts = [
        closed_form_posterior(kp, tr, te, y),
        bayesian_posterior(kp, tr, te, y),
        gd_evolve(kp, tr, te, y, **pol),
    ]
    for post in posts:
        assert np.array_equal(post.var, np.diag(post.cov)) and not post.var.flags.writeable
    with pytest.raises(TypeError):
        PredictivePosterior(mean=np.zeros((2, 1)), cov=np.eye(2), method="x", var=np.ones(2))


def test_posterior_cov_symmetry_tolerance():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="cov is not symmetric"):
        PredictivePosterior(mean=np.zeros((2, 1)), cov=cov + 2e-10 * skew, method="x")
    near = cov + 5e-11 * skew
    post = PredictivePosterior(mean=np.zeros((2, 1)), cov=near, method="x")
    np.testing.assert_array_equal(post.cov, 0.5 * (near + near.T))
    assert np.array_equal(post.cov, post.cov.T)
    # an exactly symmetric cov is kept as given; the caller's array stays writable
    post = PredictivePosterior(mean=np.zeros((2, 1)), cov=cov, method="x")
    np.testing.assert_array_equal(post.cov, cov)
    assert cov.flags.writeable and not post.cov.flags.writeable


def test_posterior_negative_diag_clamped():
    cov = np.array([[1.0, 0.0], [0.0, -5e-10]])
    post = PredictivePosterior(mean=np.zeros((2, 1)), cov=cov, method="closed_form")
    assert post.cov[1, 1] == 0.0
    with pytest.raises(ValueError):
        PredictivePosterior(mean=np.zeros((2, 1)), cov=np.diag([1.0, -1e-3]), method="x")


def test_posterior_rejects_a_covariance_that_is_not_psd():
    # Eigenvalues 3 and -1: loss_stats used to report var_L = 1.25 on it.
    with pytest.raises(ValueError, match="positive semi-definite"):
        PredictivePosterior(mean=np.zeros((2, 1)), cov=[[1.0, 2.0], [2.0, 1.0]], method="x")
    with pytest.raises(ValueError, match="finite"):
        PredictivePosterior(mean=np.zeros((2, 1)), cov=[[1.0, np.nan], [np.nan, 1.0]], method="x")
    # Round-off below the 1e-9-relative ridge passes: eigenvalues 2e3 and -1e-7.
    e = 1e-7
    cov = 1e3 * np.array([[1.0, 1.0], [1.0, 1.0]]) + e / 2 * np.array([[-1.0, 1.0], [1.0, -1.0]])
    assert np.linalg.eigvalsh(cov)[0] == pytest.approx(-e, rel=1e-6)
    PredictivePosterior(mean=np.zeros((2, 1)), cov=cov, method="x")
    with pytest.raises(ValueError, match="positive semi-definite"):
        PredictivePosterior(mean=np.zeros((2, 1)), cov=cov - 1e-5 * np.eye(2), method="x")


def _label_consumers(n_out):
    """Every label or posterior-mean entry point, as f(Y) for 3 points x n_out."""
    X = np.random.default_rng(80).standard_normal((5, 4))
    kp = build_kernel_pair(InputSet(X), ArchitectureConfig(depth=2, input_dim=4))
    tr, te = np.arange(3), np.arange(3, 5)
    post = PredictivePosterior(mean=np.zeros((3, n_out)), cov=np.eye(3), method="x")
    stop = EarlyStopPolicy(check_every=1, max_steps=3)
    arch = ArchitectureConfig(depth=2, input_dim=4, hidden_width=8, n_out=n_out)

    def one_gd_epoch(Y):
        net = init_network(arch, seed=80)
        gd_epoch(net, X[:3], Y, arch, TrainConfig(eta=0.1))
        return net.weights[0]

    return {
        "Dataset": lambda Y: Dataset(inputs=InputSet(X[:3]), labels=Y).labels,
        "PredictivePosterior": lambda Y: PredictivePosterior(Y, np.eye(3), "x").mean,
        "loss_stats": lambda Y: loss_stats(post, Y).mu_L,
        "closed_form_posterior": lambda Y: closed_form_posterior(kp, tr, te, Y).mean,
        "bayesian_posterior": lambda Y: bayesian_posterior(kp, tr, te, Y).mean,
        "gd_evolve": lambda Y: gd_evolve(
            kp, tr, te, Y, validation_ids=[3], validation_labels=np.zeros((1, n_out)), stop=stop
        ).mean,
        "gd_evolve_validation_labels": lambda Y: gd_evolve(
            kp, [3], [4], np.zeros((1, n_out)), validation_ids=tr, validation_labels=Y,
            stop=stop,
        ).mean,
        "mse_loss": lambda Y: mse_loss(init_network(arch, seed=80), X[:3], Y),
        "gd_epoch": one_gd_epoch,
    }


@pytest.mark.parametrize("entry", list(_label_consumers(1)))
def test_label_rows_are_points_everywhere(entry):
    # Rows are points at every entry point: a transposed (n_out, n) matrix
    # is rejected, never flipped, and a 1-D array is one column.
    Y = np.arange(6.0).reshape(3, 2) / 6.0
    consume = _label_consumers(n_out=2)[entry]
    consume(Y)
    with pytest.raises(ValueError, match="label shape"):
        consume(Y.T)
    consume = _label_consumers(n_out=1)[entry]
    np.testing.assert_array_equal(consume(Y[:, 0]), consume(Y[:, :1]))


def _pool_threads():
    return [get() for get, _ in _openblas_pools()]


def test_posterior_solve_runs_on_one_blas_thread(monkeypatch):
    pools = _openblas_pools()
    if "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        assert pools or not os.path.exists("/proc/self/maps")
    if not pools:
        pytest.skip("no OpenBLAS thread pool in this process")
    saved = _pool_threads()
    X = np.random.default_rng(3).standard_normal((4, 5))
    X[1] = X[0]
    singular = build_kernel_pair(InputSet(X), ArchitectureConfig(depth=2, input_dim=5))
    try:
        for _, set_ in pools:
            set_(2)
        with _one_blas_thread():
            assert _pool_threads() == [1] * len(pools)
        assert _pool_threads() == [2] * len(pools)
        # The gate raises inside the context; the counts still come back.
        with pytest.raises(IllConditionedError):
            closed_form_posterior(singular, [0, 1, 2], [3], np.zeros((3, 1)))
        assert _pool_threads() == [2] * len(pools)
        # With no pool found, the context changes nothing.
        monkeypatch.setattr(infwidth, "_openblas_pools", lambda: ())
        with _one_blas_thread():
            assert [get() for get, _ in pools] == [2] * len(pools)
    finally:
        for (_, set_), n in zip(pools, saved):
            set_(n)


def test_one_blas_thread_leaves_a_count_of_one_alone(monkeypatch):
    # A forked worker inherits a count of 1 without the pool's server threads;
    # setting the count, even to 1, would start one. So a pool at 1 sees no
    # setter call, and a pool at 2 is set to 1 and then back to 2.
    calls = []

    def fake_pool(name, count):
        held = [count]

        def set_(n):
            calls.append((name, n))
            held[0] = n

        return (lambda: held[0]), set_

    monkeypatch.setattr(infwidth, "_openblas_pools", lambda: (fake_pool("a", 1), fake_pool("b", 2)))
    with _one_blas_thread():
        assert calls == [("b", 1)]
    assert calls == [("b", 1), ("b", 2)]
    calls.clear()
    with pytest.raises(RuntimeError), _one_blas_thread():
        raise RuntimeError
    assert calls == [("b", 1), ("b", 2)]


def test_posterior_bits_do_not_depend_on_blas_threads(monkeypatch):
    # At 150 + 150 points, OpenBLAS's 2-thread GEMM and eigvalsh can round
    # entries differently from 1 thread. The whole solve runs inside the
    # context, so the count the pools held before the call changes no bit.
    pools = _openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS thread pool in this process")
    kp, tr, te, y = _random_instance(90, n_train=150, n_test=150, d=24, depth=3, n_out=2)
    routes = (closed_form_posterior, bayesian_posterior)
    saved = _pool_threads()
    try:
        results = {}
        for threads in (1, 2):
            for _, set_ in pools:
                set_(threads)
            results[threads] = [route(kp, tr, te, y) for route in routes]
        monkeypatch.setattr(infwidth, "_openblas_pools", lambda: ())
        threaded = [route(kp, tr, te, y) for route in routes]
    finally:
        for (_, set_), n in zip(pools, saved):
            set_(n)
    for one, two, free in zip(results[1], results[2], threaded):
        assert np.array_equal(one.mean, two.mean) and np.array_equal(one.cov, two.cov)
        np.testing.assert_allclose(free.mean, one.mean, rtol=0, atol=1e-13)
        np.testing.assert_allclose(free.cov, one.cov, rtol=0, atol=1e-13)


def test_posterior_bits_match_the_symmetric_solve():
    # The gate and the solve share the factor scipy.linalg.solve(assume_a="sym")
    # computes (upper triangle, blocked workspace), so every bit of the posterior
    # matches each route's formula on that solve: the four-term covariance for
    # the closed form and the GP conditional for the Bayesian route. The lower
    # triangle or the unblocked factor round differently at this size.
    import scipy.linalg

    kp, tr, te, y = _random_instance(90, n_train=150, n_test=150, d=24, depth=3, n_out=2)
    K_A, K_B, K_BB = kp.K[np.ix_(tr, tr)], kp.K[np.ix_(tr, te)], kp.K[np.ix_(te, te)]
    with _one_blas_thread():
        T = scipy.linalg.solve(kp.Theta[np.ix_(tr, tr)], kp.Theta[np.ix_(tr, te)], assume_a="sym")
        closed = (T.T @ y, K_BB - T.T @ K_B - K_B.T @ T + T.T @ K_A @ T)
        T = scipy.linalg.solve(K_A, K_B, assume_a="sym")
        bayes = (T.T @ y, K_BB - K_B.T @ T)
    for route, (mean, cov) in ((closed_form_posterior, closed), (bayesian_posterior, bayes)):
        want = PredictivePosterior(mean=mean, cov=0.5 * (cov + cov.T), method="x")
        got = route(kp, tr, te, y)
        assert np.array_equal(got.mean, want.mean) and np.array_equal(got.cov, want.cov)


def test_contiguous_ids_read_views_with_the_bits_of_copies(monkeypatch):
    # run_plan's ids are ascending ranges: every route reads views of kp, and
    # gives the bits it gives on explicit np.ix_ copies of the same blocks.
    kp, tr, te, y = _random_instance(91, n_train=120, n_test=40, d=12, depth=3, n_out=2)
    va, te_gd = te[:8], te[8:]
    joint = np.arange(kp.count)  # [train, validation, test] of the GD map
    for M, rows, cols in ((kp.Theta, tr, tr), (kp.Theta, tr, te), (kp.K, te, te),
                          (kp.Theta, joint, tr), (kp.K, joint, joint)):
        assert np.shares_memory(infwidth._block(M, rows, cols), M)
    pol = dict(
        validation_ids=va, validation_labels=np.random.default_rng(91).standard_normal((8, 2)),
        stop=EarlyStopPolicy(patience=3, check_every=10, max_steps=2000),
    )
    runs = {
        "closed_form": lambda: closed_form_posterior(kp, tr, te, y),
        "bayesian": lambda: bayesian_posterior(kp, tr, te, y),
        "gd_evolve": lambda: gd_evolve(kp, tr, te_gd, y, **pol),
        "scan": lambda: matrix_element_scan(lambda n: (kp, tr[:n], te), (30, 60, 120)),
    }
    got = {name: run() for name, run in runs.items()}
    copies = []

    def copy_block(M, rows, cols):
        copies.append(M[np.ix_(rows, cols)])
        return copies[-1]

    with monkeypatch.context() as m:
        m.setattr(infwidth, "_block", copy_block)
        m.setattr(scaling, "_block", copy_block)
        want = {name: run() for name, run in runs.items()}
    assert copies and not any(np.shares_memory(b, kp.K) or np.shares_memory(b, kp.Theta) for b in copies)
    for name in ("closed_form", "bayesian", "gd_evolve"):
        assert np.array_equal(got[name].mean, want[name].mean), name
        assert np.array_equal(got[name].cov, want[name].cov), name
    assert got["gd_evolve"].steps_used == want["gd_evolve"].steps_used > 0
    assert not got["scan"].excluded_sizes and len(got["scan"].exponents) == 5
    assert repr(got["scan"]) == repr(want["scan"])


def test_non_contiguous_ids_take_copies_and_match_the_oracle():
    kp, _, _, _ = _random_instance(92, n_train=10, n_test=6)
    y = np.random.default_rng(92).standard_normal((5, 1))
    for tr, te in (
        ([9, 2, 5, 0, 7], [1, 3, 4]),  # shuffled
        ([0, 1, 2, 4, 5], [6, 7, 8]),  # a gap in the train rows
        ([4, 3, 2, 1, 0], [5, 6, 7]),  # a descending range
    ):
        rows, cols = np.asarray(tr), np.asarray(te)
        blocks = [infwidth._block(M, rows, c) for M in (kp.K, kp.Theta) for c in (rows, cols)]
        assert not any(np.shares_memory(b, kp.K) or np.shares_memory(b, kp.Theta) for b in blocks)
        post = closed_form_posterior(kp, tr, te, y)
        eta = 0.5 / np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
        mean, cov = gd_map_limit(kp.Theta, kp.K, tr, te, y, eta, steps=20000)
        np.testing.assert_allclose(post.mean, mean, rtol=1e-6)
        np.testing.assert_allclose(post.cov, cov, atol=1e-6)
        # Reordering the kernel so that the same rows are ranges gives the same bits.
        order = np.concatenate([tr, te])
        ranged = KernelPair(K=kp.K[np.ix_(order, order)], Theta=kp.Theta[np.ix_(order, order)])
        for route in (closed_form_posterior, bayesian_posterior):
            a = route(kp, tr, te, y)
            b = route(ranged, np.arange(5), np.arange(5, 8), y)
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)


def test_posterior_on_contiguous_ids_copies_only_the_factor():
    # Views instead of np.ix_ copies: above the pair, each route holds at most
    # dsytrf's n_train^2 copy of the factor and the n_train x n_test solves.
    n_train = 512
    kp, tr, te, y = _random_instance(93, n_train=n_train, n_test=64, d=16, depth=3)
    for route in (closed_form_posterior, bayesian_posterior):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            route(kp, tr, te, y)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n_train**2 * 8, route.__name__


def test_ids_outside_the_kernel_raise_value_error():
    # A range past the last row is neither truncated to a view nor left to
    # np.ix_'s IndexError, and a negative range does not wrap to the last rows.
    kp, tr, te, y = _random_instance(94, n_train=6, n_test=2)
    for route in (closed_form_posterior, bayesian_posterior):
        for bad in (np.arange(6, 9), np.arange(-2, 0)):
            with pytest.raises(ValueError, match="test ids must be rows of the 8-point kernel"):
                route(kp, tr, bad, y)


_ROUTES = {
    "closed_form": lambda kp, ids, y: closed_form_posterior(kp, ids["train"], ids["test"], y),
    "bayesian": lambda kp, ids, y: bayesian_posterior(kp, ids["train"], ids["test"], y),
    "gd_evolve": lambda kp, ids, y: gd_evolve(
        kp, ids["train"], ids["test"], y,
        validation_ids=ids["validation"], validation_labels=np.zeros((ids["validation"].size, 1)),
    ),
    "scan": lambda kp, ids, y: matrix_element_scan(lambda n: (kp, ids["train"], ids["test"]), [8]),
}


@pytest.mark.parametrize("bad", [-1, "count"])
@pytest.mark.parametrize(
    "route, which",
    [("closed_form", "train"), ("closed_form", "test"), ("bayesian", "train"),
     ("bayesian", "test"), ("gd_evolve", "train"), ("gd_evolve", "validation"),
     ("gd_evolve", "test"), ("scan", "train"), ("scan", "test")],
)
def test_every_route_rejects_ids_outside_the_kernel(route, which, bad):
    # One row rule on every route: an id outside [0, count) raises ValueError
    # naming its id set, and a negative id never wraps to a row from the end.
    kp, tr, te, y = _random_instance(95, n_train=8, n_test=4)
    ids = {"train": tr, "validation": te[:2], "test": te[2:]}
    ids[which] = np.append(ids[which][:-1], kp.count if bad == "count" else bad)
    with pytest.raises(ValueError, match="%s ids must be rows of the 12-point kernel" % which):
        _ROUTES[route](kp, ids, y)


@pytest.mark.parametrize("bad", ["float", "mask"])
@pytest.mark.parametrize(
    "route, which",
    [("closed_form", "train"), ("closed_form", "test"), ("bayesian", "train"),
     ("bayesian", "test"), ("gd_evolve", "train"), ("gd_evolve", "validation"),
     ("gd_evolve", "test"), ("scan", "train"), ("scan", "test")],
)
def test_every_route_rejects_ids_that_are_not_integers(route, which, bad):
    # Float ids used to be truncated to rows, and a boolean mask became rows
    # 0 and 1 (then reported as an ill-conditioned Theta_A).
    kp, tr, te, y = _random_instance(96, n_train=8, n_test=4)
    ids = {"train": tr, "validation": te[:2], "test": te[2:]}
    if bad == "float":
        ids[which] = ids[which] + 0.25
    else:
        ids[which] = np.isin(np.arange(kp.count), ids[which])
    with pytest.raises(ValueError, match="%s ids must be integers" % which):
        _ROUTES[route](kp, ids, y)


def test_an_empty_id_list_is_still_valid():
    # np.asarray([]) is a float array; it names no row, so it is no non-integer id.
    kp, tr, te, y = _random_instance(97)
    for route in (closed_form_posterior, bayesian_posterior):
        for empty in ([], np.array([])):
            post = route(kp, tr, empty, y)
            assert post.mean.shape == (0, 1) and post.cov.shape == (0, 0)


def test_gd_evolve_validation_labels_need_the_train_n_out():
    # One label rule for both label sets; -1, count and no validation id are
    # rejected by the row tests above.
    kp, tr, te, y = _random_instance(98, n_train=8, n_test=4, n_out=2)
    with pytest.raises(ValueError, match="label shape"):
        gd_evolve(kp, tr, te, y, validation_ids=te[:2], validation_labels=np.zeros((2, 1)))


def test_early_stop_policy_is_the_sweep_fallback_rule():
    # The fields are the rule alone; their defaults are what run_plan runs.
    import dataclasses

    pol = EarlyStopPolicy()
    assert [f.name for f in dataclasses.fields(pol)] == ["patience", "check_every", "max_steps"]
    assert dataclasses.astuple(pol) == (20, 100, 1_000_000)
