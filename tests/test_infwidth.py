import os

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
    load_posterior_jsonl,
    loss_stats,
    mse_loss,
    save_posterior_jsonl,
)
from ntkuq import infwidth
from ntkuq.errors import DivergenceError
from ntkuq.infwidth import RCOND_LIMIT, _one_blas_thread, _openblas_pools, _posterior_from_blocks

from oracles import gd_map_limit


def _random_instance(seed, n_train=8, n_test=3, d=10, depth=2, n_out=1, lambda_b=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_train + n_test, d))
    arch = ArchitectureConfig(depth=depth, input_dim=d, lambda_b=lambda_b)
    kp = build_kernel_pair(InputSet(X), arch)
    y = rng.standard_normal((n_train, n_out))
    return kp, np.arange(n_train), np.arange(n_train, n_train + n_test), y


def _dup_train_policy(kp, n_train, n_test, y, n_val=2, **kw):
    """Validation on the duplicated train points, the last kernel rows."""
    return EarlyStopPolicy(
        validation_ids=np.arange(n_train + n_test, n_train + n_test + n_val),
        validation_labels=y[:n_val],
        **kw,
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
        post = gd_evolve(kp, tr, te, y, eta=0.5 / lam, stop=pol)
        np.testing.assert_allclose(post.mean, closed.mean, rtol=1e-6)
        np.testing.assert_allclose(post.cov, closed.cov, atol=1e-5)


def test_gd_evolve_scalar_contraction():
    # one train point, scalar case: mean -> y, variance -> 0
    kp, tr, te, y = _random_instance(5, n_train=1, n_test=1)
    kp2 = KernelPair(K=kp.K, Theta=kp.Theta, layer=kp.layer)
    theta_aa = kp.Theta[0, 0]
    pol = EarlyStopPolicy(
        validation_ids=np.array([0]),
        validation_labels=y,
        patience=100,
        check_every=50,
        max_steps=500_000,
    )
    # test side = (real test point, duplicate of the train point)
    post = gd_evolve(kp2, [0], [1, 0], y, eta=1.5 / theta_aa, stop=pol)
    assert post.mean[1, 0] == pytest.approx(y[0, 0], abs=1e-8)
    assert post.cov[1, 1] == pytest.approx(0.0, abs=1e-8)


def test_gd_evolve_eta_zero_identity():
    kp, tr, te, y = _random_instance(6)
    pol = EarlyStopPolicy(
        validation_ids=te,
        validation_labels=np.zeros((te.size, 1)),
        patience=3,
        check_every=10,
        max_steps=1000,
    )
    post = gd_evolve(kp, tr, te, y, eta=0.0, stop=pol)
    np.testing.assert_array_equal(post.mean, np.zeros((te.size, 1)))
    np.testing.assert_array_equal(post.cov, kp.K[np.ix_(te, te)])


def test_gd_evolve_divergence_detected():
    kp, tr, te, y = _random_instance(7)
    lam = np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
    pol = EarlyStopPolicy(
        validation_ids=te,
        validation_labels=np.zeros((te.size, 1)),
        patience=1000,
        check_every=100,
        max_steps=1_000_000,
    )
    with pytest.raises(DivergenceError):
        gd_evolve(kp, tr, te, y, eta=3.0 / lam, stop=pol)


def test_gd_evolve_returns_only_the_test_rows():
    # Validation rows are kernel rows of their own: the joint is [train,
    # validation, test], and the posterior covers test_ids alone.
    kp, tr, side, y = _random_instance(12, n_train=8, n_test=6)
    va, te = side[:2], side[2:]
    lam = np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
    pol = EarlyStopPolicy(va, kp.K[va, :1], patience=3, check_every=10, max_steps=3000)
    post = gd_evolve(kp, tr, te, y, eta=0.5 / lam, stop=pol)
    assert post.mean.shape == (te.size, 1) and post.cov.shape == (te.size, te.size)
    # The old call shape, validation rows handed in on the test side too,
    # puts them in the joint twice. Its test block stops at the same step
    # and differs only by GEMM rounding.
    both = gd_evolve(kp, tr, side, y, eta=0.5 / lam, stop=pol)
    assert both.steps_used == post.steps_used > 0
    np.testing.assert_allclose(post.mean, both.mean[2:], rtol=1e-12)
    np.testing.assert_allclose(post.cov, both.cov[2:, 2:], rtol=1e-12, atol=1e-15)
    for bad in (-1, kp.count):
        with pytest.raises(ValueError, match="validation ids"):
            gd_evolve(kp, tr, te, y, stop=EarlyStopPolicy([bad], np.zeros((1, 1))))


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
        post = gd_evolve(kp, tr, te, y, eta=frac / lam, stop=pol)
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
    n = A.shape[0]
    zero = np.zeros((n, 1))
    _posterior_from_blocks(A, zero, A, zero, np.zeros((1, 1)), zero, name, "closed_form")


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


def test_posterior_jsonl_round_trip(tmp_path):
    kp, tr, te, y = _random_instance(70, n_out=2)
    post = closed_form_posterior(kp, tr, te, y)
    path = tmp_path / "post.jsonl"
    save_posterior_jsonl(post, path, ids=te)
    loaded, ids = load_posterior_jsonl(path)
    np.testing.assert_array_equal(ids, te)
    np.testing.assert_allclose(loaded.mean, post.mean)
    np.testing.assert_allclose(loaded.var, post.var)
    assert loaded.cov is None


def test_posterior_jsonl_keeps_method_and_steps(tmp_path):
    kp, n_train, n_test, y = _with_dup_train(72)
    tr = np.arange(n_train)
    te = np.arange(n_train, n_train + n_test)
    pol = _dup_train_policy(kp, n_train, n_test, y, patience=3, check_every=10, max_steps=200)
    lam = np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
    posts = [bayesian_posterior(kp, tr, te, y), gd_evolve(kp, tr, te, y, eta=0.5 / lam, stop=pol)]
    assert [p.method for p in posts] == ["bayesian", "iterative"] and posts[1].steps_used > 0
    for post in posts:
        path = tmp_path / (post.method + ".jsonl")
        save_posterior_jsonl(post, path)
        loaded, _ = load_posterior_jsonl(path)
        assert (loaded.method, loaded.steps_used) == (post.method, post.steps_used)
    # a record without the route is rejected, never stamped "closed_form"
    path.write_text('{"id": 0, "mean": [0.0], "var": 1.0}\n')
    with pytest.raises(ValueError, match="method"):
        load_posterior_jsonl(path)


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


def _label_consumers(n_out):
    """Every label or posterior-mean entry point, as f(Y) for 3 points x n_out."""
    X = np.random.default_rng(80).standard_normal((5, 4))
    kp = build_kernel_pair(InputSet(X), ArchitectureConfig(depth=2, input_dim=4))
    tr, te = np.arange(3), np.arange(3, 5)
    post = PredictivePosterior(mean=np.zeros((3, n_out)), cov=np.eye(3), method="x")
    stop = EarlyStopPolicy(
        validation_ids=[3], validation_labels=np.zeros((1, n_out)), check_every=1, max_steps=3
    )
    arch = ArchitectureConfig(depth=2, input_dim=4, hidden_width=8, n_out=n_out)

    def one_gd_epoch(Y):
        net = init_network(arch, seed=80)
        gd_epoch(net, X[:3], Y, arch, TrainConfig(eta=0.1))
        return net.weights[0]

    return {
        "Dataset": lambda Y: Dataset(inputs=InputSet(X[:3]), labels=Y).labels,
        "EarlyStopPolicy": lambda Y: EarlyStopPolicy(tr, Y).validation_labels,
        "PredictivePosterior": lambda Y: PredictivePosterior(Y, np.eye(3), "x").mean,
        "loss_stats": lambda Y: loss_stats(post, Y).mu_L,
        "closed_form_posterior": lambda Y: closed_form_posterior(kp, tr, te, Y).mean,
        "bayesian_posterior": lambda Y: bayesian_posterior(kp, tr, te, Y).mean,
        "gd_evolve": lambda Y: gd_evolve(kp, tr, te, Y, stop=stop).mean,
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
    # matches the four-term formula on that solve. The lower triangle or the
    # unblocked factor round differently at this size.
    import scipy.linalg

    kp, tr, te, y = _random_instance(90, n_train=150, n_test=150, d=24, depth=3, n_out=2)
    K_A, K_B, K_BB = kp.K[np.ix_(tr, tr)], kp.K[np.ix_(tr, te)], kp.K[np.ix_(te, te)]
    for route, M in ((closed_form_posterior, kp.Theta), (bayesian_posterior, kp.K)):
        with _one_blas_thread():
            T = scipy.linalg.solve(M[np.ix_(tr, tr)], M[np.ix_(tr, te)], assume_a="sym")
            mean = T.T @ y
            cov = K_BB - T.T @ K_B - K_B.T @ T + T.T @ K_A @ T
        want = PredictivePosterior(mean=mean, cov=0.5 * (cov + cov.T), method="x")
        got = route(kp, tr, te, y)
        assert np.array_equal(got.mean, want.mean) and np.array_equal(got.cov, want.cov)
