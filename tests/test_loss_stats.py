import numpy as np
import pytest

from ntkuq import (
    EnsembleSummary,
    LossStats,
    PredictivePosterior,
    loss_stats,
    mc_loss_moments,
)
from oracles import loss_variance_longdouble


def _posterior(mean, cov):
    return PredictivePosterior(mean=mean, cov=cov, method="closed_form")


def _random_case(seed, n_test=4, n_out=1, scale=1.0):
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal((n_test, n_out))
    A = rng.standard_normal((n_test, n_test))
    cov = scale * (A @ A.T) / n_test
    labels = rng.standard_normal((n_test, n_out))
    return _posterior(mean, cov), labels


def test_mean_zero_for_perfect_predictor():
    post = _posterior(np.ones((3, 1)), np.zeros((3, 3)))
    assert loss_stats(post, np.ones((3, 1))).mu_L == 0.0


def test_mean_half_variance_single_point():
    s = 0.7
    post = _posterior(np.zeros((1, 1)), np.array([[s]]))
    assert loss_stats(post, np.zeros((1, 1))).mu_L == pytest.approx(s / 2.0)


def test_variance_zero_for_deterministic_outputs():
    rng = np.random.default_rng(0)
    post = _posterior(rng.standard_normal((4, 2)), np.zeros((4, 4)))
    assert loss_stats(post, rng.standard_normal((4, 2))).var_L == 0.0


def test_variance_single_point_chi_squared():
    # loss = s * chi2_1 / 2, so var = s^2 / 2
    post = _posterior(np.zeros((1, 1)), np.array([[1.0]]))
    assert loss_stats(post, np.zeros((1, 1))).var_L == pytest.approx(0.5)
    post = _posterior(np.zeros((1, 1)), np.array([[0.3]]))
    assert loss_stats(post, np.zeros((1, 1))).var_L == pytest.approx(0.045)


def test_moments_match_monte_carlo():
    for seed, n_out in [(1, 1), (2, 3), (3, 2), (4, 1)]:
        post, labels = _random_case(seed, n_test=4, n_out=n_out)
        stats = loss_stats(post, labels)
        mu, var = stats.mu_L, stats.var_L
        mc_mu, mc_var, se_mu, se_var = mc_loss_moments(post, labels, 200_000, seed=seed)
        assert abs(mu - mc_mu) <= 4.0 * se_mu
        assert abs(var - mc_var) <= 4.0 * se_var


def test_coefficient_of_variation():
    # eps_L = sigma_L / mu_L is derived from the object's own mu_L and var_L.
    assert LossStats(mu_L=0.5, var_L=0.125, n_test=1, n_out=1).eps_L == pytest.approx(
        0.7071068, abs=1e-7
    )
    assert LossStats(mu_L=0.5, var_L=0.0, n_test=1, n_out=1).eps_L == 0.0
    assert np.isnan(LossStats(mu_L=0.0, var_L=0.1, n_test=1, n_out=1).eps_L)


def test_one_eps_rule():
    # eps_L is defined only when mu_L > 0, in LossStats, loss_stats and EnsembleSummary alike
    for mu in (0.0, -0.5):
        assert np.isnan(LossStats(mu_L=mu, var_L=0.125, n_test=1, n_out=1).eps_L)
    post, labels = _random_case(3, n_test=4, n_out=2)
    stats = loss_stats(post, labels)
    assert stats.mu_L > 0 and stats.eps_L == float(np.sqrt(stats.var_L) / stats.mu_L)
    zero = loss_stats(_posterior(labels, np.zeros((4, 4))), labels)
    assert zero.mu_L == 0.0 and np.isnan(zero.eps_L)
    summary = dict(records=[], mu_L=0.5, var_L=0.125, eps_se=0.0, mu_se=0.0, sigma_se=0.0,
                   n_ok=2, n_diverged=0)
    assert EnsembleSummary(**summary).eps_L == LossStats(0.5, 0.125, 1, 1).eps_L
    assert np.isnan(EnsembleSummary(**{**summary, "mu_L": 0.0}).eps_L)


def test_loss_stats_derives_eps():
    # eps_L is derived from mu_L and var_L; it cannot be given.
    with pytest.raises(TypeError):
        LossStats(mu_L=0.5, var_L=0.125, eps_L=0.0, n_test=1, n_out=1)
    summary = dict(records=[], mu_L=0.5, var_L=0.125, eps_se=0.0, mu_se=0.0, sigma_se=0.0,
                   n_ok=2, n_diverged=0)
    with pytest.raises(TypeError):
        EnsembleSummary(**summary, eps_L=0.0)


def test_eps_scale_invariance():
    post, labels = _random_case(5, n_test=5, n_out=2)
    base = loss_stats(post, labels)
    c = 3.7
    scaled_post = _posterior(post.mean, c * c * np.asarray(post.cov))
    scaled_labels = post.mean + c * (labels - post.mean)
    scaled = loss_stats(scaled_post, scaled_labels)
    assert scaled.mu_L == pytest.approx(c**2 * base.mu_L, rel=1e-12)
    assert scaled.var_L == pytest.approx(c**4 * base.var_L, rel=1e-12)
    assert scaled.eps_L == pytest.approx(base.eps_L, abs=1e-10)


def test_scalar_formulas_match_general_path():
    # n_out = 1 through the general code path vs the scalar identities
    post, labels = _random_case(6, n_test=6, n_out=1)
    delta = labels - post.mean
    S = np.asarray(post.cov)
    b = 6
    mu_direct = float(np.sum(delta[:, 0] ** 2 + np.diag(S)) / (2 * b))
    assert loss_stats(post, labels).mu_L == mu_direct
    e_l2 = 0.0
    for i in range(b):
        for j in range(b):
            e_l2 += (
                S[i, i] * S[j, j]
                + 2 * S[i, j] ** 2
                + delta[i, 0] ** 2 * S[j, j]
                + delta[j, 0] ** 2 * S[i, i]
                + 4 * delta[i, 0] * delta[j, 0] * S[i, j]
                + delta[i, 0] ** 2 * delta[j, 0] ** 2
            )
    var_direct = e_l2 / (4 * b * b) - mu_direct**2
    assert loss_stats(post, labels).var_L == pytest.approx(var_direct, rel=1e-12)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is not an extended format here"
)
@pytest.mark.parametrize("n_out", [1, 2])
def test_variance_keeps_its_digits_at_small_eps(n_out):
    # At eps_L < 0.01 a float64 E[L^2] - mu_L^2 cancels about log10(1/eps_L^2) digits:
    # here it is 1.6e-12 (n_out 1) and 4.8e-12 (n_out 2) off the oracle. The Wick sum
    # subtracts nothing.
    post, labels = _random_case(0, n_test=32, n_out=n_out, scale=1e-3)
    stats = loss_stats(post, labels)
    assert stats.eps_L < 0.01
    want = loss_variance_longdouble(post.mean, post.cov, labels)
    assert abs(np.longdouble(stats.var_L) - want) <= 1e-14 * want


def test_permutation_invariance():
    post, labels = _random_case(7, n_test=5, n_out=2)
    perm = np.random.default_rng(8).permutation(5)
    permuted = _posterior(post.mean[perm], np.asarray(post.cov)[np.ix_(perm, perm)])
    base = loss_stats(post, labels)
    shuffled = loss_stats(permuted, labels[perm])
    assert shuffled.mu_L == pytest.approx(base.mu_L, abs=1e-12)
    assert shuffled.var_L == pytest.approx(base.var_L, abs=1e-12)


def test_nonnegativity_random_instances():
    for seed in range(10):
        post, labels = _random_case(100 + seed, n_test=3, n_out=2)
        stats = loss_stats(post, labels)
        assert stats.mu_L >= 0.0
        assert stats.var_L >= 0.0


def test_zero_covariance_gives_zero_variance_at_any_label_scale():
    # Zero covariance makes both Wick terms exactly 0 at any loss scale. A raw-moment
    # difference E[L^2] - mu_L^2 cancels to round-off that grows with the loss instead.
    rng = np.random.default_rng(0)
    for n_test in (3, 5, 12):
        post = _posterior(np.zeros((n_test, 1)), np.zeros((n_test, n_test)))
        for scale in (1.0, 10.0, 100.0, 1e4):
            for _ in range(200):
                stats = loss_stats(post, scale * rng.standard_normal((n_test, 1)))
                assert 0.0 <= stats.var_L <= 1e-12 * stats.mu_L**2


def test_negative_loss_variance_raises_at_any_scale():
    # A non-PSD covariance can make the true var_L negative: here -0.75 s^2.
    # At s = 1e-6 an absolute tolerance clamped it to 0. PredictivePosterior
    # rejects this covariance, so loss_stats' own guard is reached by setting
    # it on a built posterior.
    for s in (1.0, 1e-3, 1e-6):
        cov = s * np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive semi-definite"):
            _posterior(np.zeros((2, 1)), cov)
        post = _posterior(np.zeros((2, 1)), np.eye(2))
        object.__setattr__(post, "cov", cov)
        object.__setattr__(post, "var", np.diag(cov))
        labels = np.sqrt(s) * np.array([[2.0], [-2.0]])
        with pytest.raises(ValueError, match="below round-off tolerance"):
            loss_stats(post, labels)


def test_diagonal_only_posterior():
    # a diagonal covariance: var is its diagonal, and mu_L reads only that
    var = np.array([1.0, 3.0])
    full = PredictivePosterior(mean=np.zeros((2, 1)), cov=np.diag(var), method="closed_form")
    np.testing.assert_array_equal(full.var, var)
    assert loss_stats(full, np.zeros((2, 1))).mu_L == pytest.approx(1.0)


def test_dimension_mismatch_rejected():
    post, labels = _random_case(9)
    with pytest.raises(ValueError):
        loss_stats(post, np.zeros((7, 1)))


def test_mc_deterministic_case():
    rng = np.random.default_rng(10)
    mean = rng.standard_normal((3, 2))
    labels = rng.standard_normal((3, 2))
    post = _posterior(mean, np.zeros((3, 3)))
    mc_mu, mc_var, _, _ = mc_loss_moments(post, labels, 1000, seed=0)
    expected = float(np.sum((labels - mean) ** 2) / (2 * 3 * 2))
    assert mc_mu == pytest.approx(expected, abs=1e-12)
    assert mc_var == pytest.approx(0.0, abs=1e-30)


def test_mc_single_point_half():
    post = _posterior(np.zeros((1, 1)), np.array([[1.0]]))
    mc_mu, _, se_mu, _ = mc_loss_moments(post, np.zeros((1, 1)), 200_000, seed=1)
    assert abs(mc_mu - 0.5) <= 4.0 * se_mu


def test_mc_rejects_small_draws():
    post, labels = _random_case(11)
    with pytest.raises(ValueError):
        mc_loss_moments(post, labels, 100, seed=0)


def test_loss_stats_serialization():
    post, labels = _random_case(12)
    stats = loss_stats(post, labels)
    from dataclasses import asdict
    import json

    rec = json.loads(json.dumps(asdict(stats)))
    assert set(rec) >= {"mu_L", "var_L", "eps_L", "n_test", "n_out", "method"}
    assert rec["eps_L"] == pytest.approx(np.sqrt(rec["var_L"]) / rec["mu_L"])
