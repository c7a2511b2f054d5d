"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion (bypassing pytest
capture so the lines appear in the console log) and then asserts it.
"""

import csv

import numpy as np
import pytest
import scipy.linalg

from ntkuq import (
    ArchitectureConfig,
    EarlyStopPolicy,
    ExperimentPlan,
    InputSet,
    PredictivePosterior,
    TrainConfig,
    bayesian_posterior,
    build_kernel_pair,
    closed_form_posterior,
    erf_deriv_pair_expectation,
    erf_pair_expectation,
    fit_power_law,
    gd_evolve,
    loss_mean,
    loss_stats,
    loss_variance,
    make_synthetic,
    mc_loss_moments,
    run_ensemble,
    run_plan,
)
from ntkuq.finite_width import forward, init_network, _gradients, mse_loss

from oracles import erf_deriv_product, erf_product, gauss_hermite_pair, ols_loglog


_CAPSYS = None


@pytest.fixture(autouse=True)
def _console(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num, name, ok, detail=""):
    line = "criterion %2d %-28s %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _teacher_task(n_points, d, data_seed, teacher_depth=3, teacher_width=32):
    teacher = ArchitectureConfig(
        depth=teacher_depth, input_dim=d, hidden_width=teacher_width
    )
    return make_synthetic("teacher", n_points, d, seed=data_seed, teacher_arch=teacher)


def test_criterion_1_gaussian_expectation_oracle():
    # 36-point grid: 3 x 3 variances, 4 correlations
    worst = 0.0
    for k_aa in (0.2, 0.7, 1.5):
        for k_bb in (0.2, 0.7, 1.5):
            for rho in (-0.9, -0.3, 0.3, 0.9):
                k_ab = rho * np.sqrt(k_aa * k_bb)
                worst = max(
                    worst,
                    abs(
                        erf_pair_expectation(k_aa, k_ab, k_bb)
                        - gauss_hermite_pair(erf_product, k_aa, k_ab, k_bb)
                    ),
                    abs(
                        erf_deriv_pair_expectation(k_aa, k_ab, k_bb)
                        - gauss_hermite_pair(erf_deriv_product, k_aa, k_ab, k_bb)
                    ),
                )
    _report(1, "gaussian expectation oracle", worst <= 1e-8, "max err %.2e" % worst)


def test_criterion_2_closed_form_vs_iterative():
    worst_mean = worst_cov = 0.0
    n_train, n_test, n_val = 32, 8, 4
    for i in range(10):
        depth = 1 + i % 3
        rng = np.random.default_rng(200 + i)
        d = 40  # > N_D so the depth-1 (linear-kernel) instances stay full rank
        X = rng.standard_normal((n_train + n_test, d))
        Xj = np.vstack([X, X[:n_val]])  # duplicated train points monitor convergence
        arch = ArchitectureConfig(depth=depth, input_dim=d)
        kp = build_kernel_pair(InputSet(Xj), arch)
        y = rng.standard_normal((n_train, 1))
        tr = np.arange(n_train)
        te_all = np.arange(n_train, n_train + n_test + n_val)
        closed = closed_form_posterior(kp, tr, np.arange(n_train, n_train + n_test), y)
        lam = np.max(np.linalg.eigvalsh(kp.Theta[np.ix_(tr, tr)]))
        pol = EarlyStopPolicy(
            validation_ids=np.arange(n_test, n_test + n_val),
            validation_labels=y[:n_val],
            patience=50,
            check_every=200,
            max_steps=2_000_000,
        )
        post = gd_evolve(kp, tr, te_all, y, eta=0.5 / lam, stop=pol)
        worst_mean = max(
            worst_mean,
            float(
                np.max(
                    np.abs(post.mean[:n_test] - closed.mean)
                    / np.maximum(np.abs(closed.mean), 1e-12)
                )
            ),
        )
        worst_cov = max(
            worst_cov,
            float(np.max(np.abs(post.cov[:n_test, :n_test] - closed.cov))),
        )
    ok = worst_mean <= 1e-6 and worst_cov <= 1e-5
    _report(
        2,
        "closed form vs iterative",
        ok,
        "mean rel %.2e cov abs %.2e" % (worst_mean, worst_cov),
    )


def test_criterion_3_loss_moment_oracle():
    failures = 0
    cases = 0
    for i in range(20):
        n_out = (1, 3, 2, 1)[i % 4]
        rng = np.random.default_rng(300 + i)
        n_test = int(rng.integers(2, 6))
        mean = rng.standard_normal((n_test, n_out))
        A = rng.standard_normal((n_test, n_test))
        cov = A @ A.T / n_test
        labels = rng.standard_normal((n_test, n_out))
        post = PredictivePosterior(mean=mean, cov=cov, method="closed_form")
        mu = loss_mean(post, labels)
        var = loss_variance(post, labels)
        mc_mu, mc_var, se_mu, se_var = mc_loss_moments(post, labels, 200_000, seed=i)
        cases += 1
        if abs(mu - mc_mu) > 4 * se_mu or abs(var - mc_var) > 4 * se_var:
            failures += 1
    _report(3, "loss moment oracle", failures == 0, "%d/%d within 4 SE" % (cases - failures, cases))


def test_criterion_4_init_covariance():
    d = 3
    rng = np.random.default_rng(400)
    X = rng.standard_normal((4, d))
    arch = ArchitectureConfig(depth=2, input_dim=d, hidden_width=4096)
    kp = build_kernel_pair(InputSet(X), arch)
    outs = np.array(
        [forward(init_network(arch, seed), X)[:, 0] for seed in range(200)]
    )
    emp_var = outs.var(axis=0, ddof=1)
    rel = np.abs(emp_var - np.diag(kp.K)) / np.diag(kp.K)
    _report(4, "finite/infinite at init", float(rel.max()) <= 0.15, "max rel %.3f" % rel.max())


@pytest.mark.slow
def test_criterion_5_trained_ensemble():
    d = 8
    data = _teacher_task(64, d, data_seed=42)
    arch = ArchitectureConfig(
        depth=2, input_dim=d, hidden_width=512, n_out=1, lambda_b=1.0, lambda_w=1.0
    )
    perm = np.random.default_rng(7).permutation(data.count)
    te, va, tr = perm[:32], perm[32:48], perm[48:64]
    X, Y = data.inputs.points, data.labels

    kp = build_kernel_pair(InputSet(np.vstack([X[tr], X[te]])), arch)
    post = closed_form_posterior(kp, np.arange(16), np.arange(16, 48), Y[tr])
    analytic = loss_stats(post, Y[te])

    eta = 1.0 / np.max(np.linalg.eigvalsh(kp.Theta[:16, :16]))
    cfg = TrainConfig(eta=eta, patience=5000, max_epochs=3000)
    split = dict(
        x_train=X[tr], y_train=Y[tr], x_val=X[va], y_val=Y[va], x_test=X[te], y_test=Y[te]
    )
    summary = run_ensemble(split, arch, cfg, 30, base_seed=100)
    rel = abs(summary.mu_L - analytic.mu_L) / analytic.mu_L
    _report(
        5,
        "trained ensemble vs analytic",
        summary.n_diverged == 0 and rel <= 0.10,
        "ensemble mu %.4f analytic mu %.4f rel %.3f" % (summary.mu_L, analytic.mu_L, rel),
    )


def test_criterion_6_gradient_correctness():
    d = 4
    arch = ArchitectureConfig(depth=3, input_dim=d, hidden_width=8)
    net = init_network(arch, seed=600)
    rng = np.random.default_rng(601)
    X = rng.standard_normal((6, d))
    Y = rng.standard_normal((6, 1))
    grad_w, grad_b = _gradients(net, X, Y)
    h = 1e-5
    worst = 0.0
    for ell in range(net.depth):
        for params, grads in ((net.weights, grad_w), (net.biases, grad_b)):
            it = np.nditer(params[ell], flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = params[ell][idx]
                params[ell][idx] = orig + h
                up = mse_loss(net, X, Y)
                params[ell][idx] = orig - h
                down = mse_loss(net, X, Y)
                params[ell][idx] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grads[ell][idx]), 1e-4)
                worst = max(worst, abs(fd - grads[ell][idx]) / scale)
    _report(6, "gradient correctness", worst <= 1e-6, "max rel %.2e" % worst)


def _infwidth_scan(sizes, n_test=256, d=16, data_seed=0, perm_seed=1, bayesian=False):
    data = _teacher_task(n_test + max(sizes) + 16, d, data_seed=data_seed)
    perm = np.random.default_rng(perm_seed).permutation(data.count)
    test_ids = perm[:n_test]
    pool = perm[n_test:]
    arch = ArchitectureConfig(depth=3, input_dim=d, lambda_b=1.0, lambda_w=1.0)
    out = []
    for n_d in sizes:
        tr = pool[:n_d]
        X = np.vstack([data.inputs.points[tr], data.inputs.points[test_ids]])
        kp = build_kernel_pair(InputSet(X), arch)
        fn = bayesian_posterior if bayesian else closed_form_posterior
        post = fn(kp, np.arange(n_d), np.arange(n_d, n_d + n_test), data.labels[tr])
        out.append((n_d, loss_stats(post, data.labels[test_ids])))
    return out


def test_criterion_7_epsilon_flatness():
    sizes = (64, 128, 256, 512, 1024)
    scan = _infwidth_scan(sizes)
    fit_mu = fit_power_law([(n, s.mu_L) for n, s in scan])
    fit_eps = fit_power_law([(n, s.eps_L) for n, s in scan])
    flat = abs(fit_eps.exponent) <= 0.15 or abs(fit_eps.exponent) <= 2 * fit_eps.slope_sigma
    nontrivial = fit_mu.exponent < -0.1
    _report(
        7,
        "epsilon_L flatness",
        flat and nontrivial,
        "eps exp %.3f+-%.3f mu exp %.3f+-%.3f"
        % (fit_eps.exponent, fit_eps.slope_sigma, fit_mu.exponent, fit_mu.slope_sigma),
    )


def test_criterion_8_exponent_composition():
    # Delta = 0 family: fixed covariance shape, power-law scale with
    # multiplicative noise entering mu and sigma^2 identically
    rng = np.random.default_rng(800)
    A = rng.standard_normal((8, 8))
    shape = A @ A.T / 8
    labels = np.zeros((8, 1))
    sizes = (32, 64, 128, 256, 512, 1024)
    mus, var2s = [], []
    for n in sizes:
        scale = 2.0 * n**-1.2 * np.exp(0.1 * rng.standard_normal())
        post = PredictivePosterior(
            mean=np.zeros((8, 1)), cov=scale * shape, method="closed_form"
        )
        s = loss_stats(post, labels)
        mus.append((n, s.mu_L))
        var2s.append((n, s.var_L))
    fm = fit_power_law(mus)
    fv = fit_power_law(var2s)
    gap = abs(fv.exponent - 2.0 * fm.exponent)
    budget = 2.0 * fm.slope_sigma + fv.slope_sigma
    _report(
        8,
        "exponent composition",
        gap <= max(budget, 1e-10),
        "var exp %.3f vs 2x mu exp %.3f" % (fv.exponent, 2 * fm.exponent),
    )


def test_criterion_9_ols_correctness():
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(100):
        n_pts = int(rng.integers(4, 15))
        ns = np.unique(rng.integers(2, 100_000, size=n_pts))
        while ns.size < 4:
            ns = np.unique(rng.integers(2, 100_000, size=n_pts))
        vals = 10 ** (
            rng.normal(0, 1.5) * np.log10(ns)
            + rng.normal(0, 2)
            + rng.normal(0, 0.4, size=ns.size)
        )
        fit = fit_power_law(list(zip(ns, vals)))
        slope, intercept, sigma = ols_loglog(ns, vals)
        worst = max(
            worst,
            abs(fit.exponent - slope),
            abs(fit.intercept - intercept),
            abs(fit.slope_sigma - sigma),
        )
    _report(9, "OLS slope/sigma oracle", worst <= 1e-10, "max err %.2e" % worst)


def test_criterion_10_bayesian_path():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        X = rng.standard_normal((12, 6))
        arch = ArchitectureConfig(depth=2, input_dim=6)
        kp = build_kernel_pair(InputSet(X), arch)
        tr = np.arange(9)
        te = np.arange(9, 12)
        y = rng.standard_normal((9, 1))
        post = bayesian_posterior(kp, tr, te, y)
        K_A = kp.K[np.ix_(tr, tr)]
        K_B = kp.K[np.ix_(tr, te)]
        solved = scipy.linalg.solve(K_A, np.column_stack([y, K_B]), assume_a="sym")
        mean = K_B.T @ solved[:, :1]
        cov = kp.K[np.ix_(te, te)] - K_B.T @ solved[:, 1:]
        worst = max(
            worst,
            float(np.max(np.abs(post.mean - mean))),
            float(np.max(np.abs(post.cov - 0.5 * (cov + cov.T)))),
        )
        on_train = bayesian_posterior(kp, tr, tr[:3], y)
        worst_train = float(np.max(np.abs(on_train.mean - y[:3])))
        assert worst_train <= 1e-8 and np.all(on_train.var <= 1e-8)

    sizes = (64, 128, 256)
    gd_eps = _infwidth_scan(sizes)[-1][1].eps_L
    bayes_eps = _infwidth_scan(sizes, bayesian=True)[-1][1].eps_L
    _report(
        10,
        "bayesian path",
        worst <= 1e-10,
        "gp form err %.2e; eps_L at N_D=%d: gd %.4f bayes %.4f"
        % (worst, sizes[-1], gd_eps, bayes_eps),
    )


def test_criterion_11_determinism(tmp_path):
    def run(tag):
        plan = ExperimentPlan(
            sizes=[8, 16, 32],
            arch=ArchitectureConfig(depth=2, input_dim=4, hidden_width=16),
            output_dir=str(tmp_path / tag),
            master_seed=11,
            test_size=16,
            val_size=4,
            ensemble_size=3,
            train_cfg=TrainConfig(eta=0.5, patience=50, max_epochs=100),
            bayesian=True,
        )
        data = _teacher_task(64, 4, data_seed=11, teacher_width=16)
        return run_plan(plan, data)

    r1 = run("a")
    r2 = run("b")

    def values(result):
        # every column except config_hash, which leaves out output_dir and
        # so agrees as well
        inf = [row[:8] + row[9:] for row in result.infwidth_rows]
        return inf, result.summary_rows

    ok = values(r1) == values(r2)
    # and the persisted CSVs agree byte-for-byte on those columns
    for name in ("infwidth.csv", "ensemble_summary.csv", "fits.csv"):
        with open(tmp_path / "a" / name, newline="") as f:
            rows_a = [r for r in csv.reader(f)]
        with open(tmp_path / "b" / name, newline="") as f:
            rows_b = [r for r in csv.reader(f)]
        if name == "infwidth.csv":
            rows_a = [r[:8] + r[9:] for r in rows_a]
            rows_b = [r[:8] + r[9:] for r in rows_b]
        ok = ok and rows_a == rows_b
    _report(11, "end-to-end determinism", ok)
