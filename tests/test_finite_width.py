from concurrent.futures import ProcessPoolExecutor
import copy
from dataclasses import replace
import json
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from ntkuq import (
    AdamState,
    ArchitectureConfig,
    InputSet,
    TrainConfig,
    adam_epoch,
    build_kernel_pair,
    forward,
    gd_epoch,
    init_network,
    mse_loss,
    run_ensemble,
    train_with_early_stopping,
)
from ntkuq import finite_width
from ntkuq.errors import DivergenceError
from ntkuq.finite_width import EnsembleRunRecord, _gradients
from ntkuq.infwidth import _openblas_pools


def _small_arch(depth=3, width=8, d=4, n_out=2):
    return ArchitectureConfig(depth=depth, input_dim=d, hidden_width=width, n_out=n_out)


def test_init_biases_zero_and_deterministic():
    arch = _small_arch()
    net = init_network(arch, seed=3)
    for b in net.biases:
        assert np.array_equal(b, np.zeros_like(b))
    net2 = init_network(arch, seed=3)
    for w1, w2 in zip(net.weights, net2.weights):
        assert np.array_equal(w1, w2)


def test_init_weight_variance():
    arch = ArchitectureConfig(depth=2, input_dim=64, hidden_width=4096, n_out=1)
    net = init_network(arch, seed=0)
    for w in net.weights[:1]:
        fan_in = w.shape[1]
        assert np.var(w) == pytest.approx(1.0 / fan_in, rel=0.05)


def test_forward_zero_network():
    arch = _small_arch()
    net = init_network(arch, seed=0)
    for w in net.weights:
        w[:] = 0.0
    X = np.random.default_rng(0).standard_normal((5, 4))
    assert np.array_equal(forward(net, X), np.zeros((5, 2)))


def test_forward_depth1_is_affine():
    arch = ArchitectureConfig(depth=1, input_dim=3, hidden_width=1, n_out=2)
    net = init_network(arch, seed=1)
    net.biases[0][:] = [0.5, -0.5]
    X = np.random.default_rng(1).standard_normal((4, 3))
    np.testing.assert_allclose(forward(net, X), X @ net.weights[0].T + net.biases[0])


def test_forward_dimension_mismatch():
    net = init_network(_small_arch(), seed=0)
    with pytest.raises(ValueError):
        forward(net, np.zeros((2, 7)))


def test_wide_init_output_covariance_matches_kernel():
    d = 4
    arch = ArchitectureConfig(depth=2, input_dim=d, hidden_width=4096, n_out=1)
    X = np.random.default_rng(2).standard_normal((4, d))
    kp = build_kernel_pair(InputSet(X), arch)
    outs = np.empty((200, 4))
    for s in range(200):
        outs[s] = forward(init_network(arch, 500 + s), X)[:, 0]
    emp = outs.T @ outs / 200
    assert np.all(np.abs(np.diag(emp) / np.diag(kp.K) - 1.0) < 0.15)


def test_gd_zero_residual_leaves_parameters():
    arch = _small_arch()
    net = init_network(arch, seed=4)
    X = np.random.default_rng(4).standard_normal((6, 4))
    Y = forward(net, X)
    before = copy.deepcopy(net.weights)
    gd_epoch(net, X, Y, arch, TrainConfig(eta=0.5))
    for w0, w1 in zip(before, net.weights):
        assert np.array_equal(w0, w1)


def test_gradient_matches_finite_differences():
    arch = _small_arch(depth=3, width=8, d=4, n_out=2)
    net = init_network(arch, seed=5)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 4))
    Y = rng.standard_normal((5, 2))
    grad_w, grad_b = _gradients(net, X, Y)
    h = 1e-5
    for ell in range(arch.depth):
        for grads, params in ((grad_w, net.weights), (grad_b, net.biases)):
            flat = params[ell].ravel()
            idxs = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + h
                lp = mse_loss(net, X, Y)
                flat[i] = orig - h
                lm = mse_loss(net, X, Y)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                g = grads[ell].ravel()[i]
                assert g == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_learning_rate_tensor_scaling():
    arch = _small_arch()
    rng = np.random.default_rng(6)
    X = rng.standard_normal((6, 4))
    Y = rng.standard_normal((6, 2))

    def one_step(lambda_b):
        net = init_network(arch, seed=7)
        # break the zero-bias symmetry so bias gradients are generic
        before_w = [w.copy() for w in net.weights]
        before_b = [b.copy() for b in net.biases]
        gd_epoch(net, X, Y, replace(arch, lambda_b=lambda_b), TrainConfig(eta=0.1))
        dw = [w - w0 for w, w0 in zip(net.weights, before_w)]
        db = [b - b0 for b, b0 in zip(net.biases, before_b)]
        return dw, db

    dw1, db1 = one_step(1.0)
    dw3, db3 = one_step(3.0)
    for a, b in zip(dw1, dw3):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(db1, db3):
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-12)


def test_depth1_scalar_net_recovers_least_squares():
    arch = ArchitectureConfig(depth=1, input_dim=3, hidden_width=1, n_out=1)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 3))
    Y = rng.standard_normal((20, 1))
    net = init_network(arch, seed=8)
    cfg = TrainConfig(eta=1.0)
    for _ in range(20000):
        gd_epoch(net, X, Y, arch, cfg)
    # normal-equations oracle with intercept
    A = np.column_stack([X, np.ones(20)])
    coef = np.linalg.solve(A.T @ A, A.T @ Y)
    np.testing.assert_allclose(net.weights[0].ravel(), coef[:3, 0], atol=1e-6)
    assert net.biases[0][0] == pytest.approx(coef[3, 0], abs=1e-6)


def test_ntk_regime_one_step_output_change():
    # one GD step changes held-out outputs by -(eta/(n_L N)) Theta (z - y)
    d = 6
    arch = ArchitectureConfig(depth=2, input_dim=d, hidden_width=1024, n_out=1)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((5, d))
    Y = rng.standard_normal((4, 1))
    kp = build_kernel_pair(InputSet(X), arch)
    eta = 0.01
    rels = []
    for s in range(20):
        net = init_network(arch, 300 + s)
        z0 = forward(net, X)
        gd_epoch(net, X[:4], Y, arch, TrainConfig(eta=eta))
        z1 = forward(net, X)
        actual = (z1 - z0)[4, 0]
        predicted = -(eta / 4.0) * float(kp.Theta[4, :4] @ (z0[:4, 0] - Y[:, 0]))
        rels.append(abs(actual - predicted) / max(abs(predicted), 1e-12))
    assert np.mean(rels) < 0.10


def test_criticality_preactivation_magnitudes():
    d = 16
    arch = ArchitectureConfig(depth=6, input_dim=d, hidden_width=1024, n_out=1)
    net = init_network(arch, seed=10)
    X = np.random.default_rng(10).standard_normal((8, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    from ntkuq.finite_width import _forward_trace

    zs, _ = _forward_trace(net, X)
    mags = [float(np.mean(z**2)) for z in zs]
    assert max(mags) / min(mags) < 2.0


def test_adam_zero_gradient_no_update():
    arch = _small_arch()
    net = init_network(arch, seed=11)
    X = np.random.default_rng(11).standard_normal((4, 4))
    Y = forward(net, X)
    opt = AdamState.zeros_like(net)
    before = copy.deepcopy(net.weights)
    cfg = TrainConfig(eta=0.1, optimizer="adam", minibatch=4)
    adam_epoch(net, X, Y, cfg, opt, np.random.default_rng(0))
    for w0, w1 in zip(before, net.weights):
        assert np.array_equal(w0, w1)


def test_adam_first_step_unit_property():
    # hand-iterated recurrence: first step is -eta * g/|g| up to eps
    arch = ArchitectureConfig(depth=1, input_dim=1, hidden_width=1, n_out=1)
    net = init_network(arch, seed=12)
    w0 = float(net.weights[0][0, 0])
    X = np.array([[1.0]])
    Y = np.array([[w0 - 5.0]])  # gradient well away from zero
    cfg = TrainConfig(eta=1e-3, optimizer="adam")
    opt = AdamState.zeros_like(net)
    adam_epoch(net, X, Y, cfg, opt, np.random.default_rng(0))
    step = float(net.weights[0][0, 0]) - w0
    assert step == pytest.approx(-cfg.eta, rel=1e-4)


def test_adam_bitwise_reproducible():
    arch = _small_arch()
    rng = np.random.default_rng(13)
    X = rng.standard_normal((10, 4))
    Y = rng.standard_normal((10, 2))
    outs = []
    for _ in range(2):
        net = init_network(arch, seed=13)
        opt = AdamState.zeros_like(net)
        cfg = TrainConfig(eta=1e-3, optimizer="adam", minibatch=4, seed=13)
        shuffle = np.random.default_rng(cfg.seed)
        for _ in range(3):
            adam_epoch(net, X, Y, cfg, opt, shuffle)
        outs.append([w.copy() for w in net.weights])
    for w1, w2 in zip(*outs):
        assert np.array_equal(w1, w2)


def _split(rng, arch, n_train=12, n_val=4, n_test=6):
    X = rng.standard_normal((n_train + n_val + n_test, arch.input_dim))
    Y = rng.standard_normal((X.shape[0], arch.n_out))
    return {
        "x_train": X[:n_train],
        "y_train": Y[:n_train],
        "x_val": X[n_train : n_train + n_val],
        "y_val": Y[n_train : n_train + n_val],
        "x_test": X[n_train + n_val :],
        "y_test": Y[n_train + n_val :],
    }


def test_zero_epochs_returns_untrained_loss():
    arch = _small_arch()
    split = _split(np.random.default_rng(14), arch)
    net = init_network(arch, seed=14)
    untrained = mse_loss(net, split["x_test"], split["y_test"])
    cfg = TrainConfig(eta=0.1, max_epochs=0)
    rec = train_with_early_stopping(init_network(arch, seed=14), split, arch, cfg)
    assert rec.final_test_loss == untrained
    assert rec.epochs_run == 0
    assert rec.stop_reason == "max_epochs"


def test_monotone_validation_runs_to_max_epochs():
    arch = _small_arch()
    split = _split(np.random.default_rng(15), arch)
    cfg = TrainConfig(eta=0.1, max_epochs=25, patience=3)
    scripted = iter(np.linspace(1.0, 0.5, 26))
    rec = train_with_early_stopping(
        init_network(arch, seed=15), split, arch, cfg, val_loss_fn=lambda n, e: next(scripted)
    )
    assert rec.epochs_run == 25
    assert rec.stop_reason == "max_epochs"


def test_plateau_stops_after_patience():
    arch = _small_arch()
    split = _split(np.random.default_rng(16), arch)
    cfg = TrainConfig(eta=0.1, max_epochs=100, patience=5)
    # improves for 10 epochs, then flat forever
    losses = {e: (1.0 - 0.05 * e if e <= 10 else 0.5) for e in range(101)}
    rec = train_with_early_stopping(
        init_network(arch, seed=16), split, arch, cfg, val_loss_fn=lambda n, e: losses[e]
    )
    assert rec.epochs_run == 15
    assert rec.stop_reason == "patience"


def test_divergence_recorded():
    arch = _small_arch()
    split = _split(np.random.default_rng(17), arch)
    cfg = TrainConfig(eta=1e6, max_epochs=50, patience=50)
    rec = train_with_early_stopping(init_network(arch, seed=17), split, arch, cfg)
    assert rec.stop_reason == "divergence"
    assert np.isnan(rec.final_test_loss)


def _public_call_training(net, split, arch, cfg, val_loss_fn=None):
    """The GD early-stopping loop written with public calls only: gd_epoch,
    then mse_loss on the training set for the divergence check, then the
    validation loss."""
    x_tr, y_tr = split["x_train"], split["y_train"]
    if val_loss_fn is None:
        val_loss_fn = lambda n_, epoch: mse_loss(n_, split["x_val"], split["y_val"])
    initial_train = mse_loss(net, x_tr, y_tr)
    best_val = val_loss_fn(net, 0)
    best = copy.deepcopy(net)
    bad_epochs = 0
    stop_reason = "max_epochs"
    epoch = 0
    while epoch < cfg.max_epochs:
        gd_epoch(net, x_tr, y_tr, arch, cfg)
        epoch += 1
        train_loss = mse_loss(net, x_tr, y_tr)
        if not np.isfinite(train_loss) or train_loss > 1e6 * max(initial_train, 1e-300):
            return EnsembleRunRecord(cfg.seed, float("nan"), float(best_val), epoch, "divergence")
        val = val_loss_fn(net, epoch)
        if val < best_val:
            best_val, best, bad_epochs = val, copy.deepcopy(net), 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                stop_reason = "patience"
                break
    test_loss = mse_loss(best, split["x_test"], split["y_test"])
    return EnsembleRunRecord(cfg.seed, test_loss, float(best_val), epoch, stop_reason)


@pytest.mark.parametrize(
    "arch, cfg, stop_reason",
    [
        (_small_arch(width=16), TrainConfig(eta=0.5, max_epochs=60, patience=100), "max_epochs"),
        (_small_arch(width=16), TrainConfig(eta=0.5, max_epochs=5000, patience=3), "patience"),
        (_small_arch(depth=2, n_out=1), TrainConfig(eta=1e3, max_epochs=50), "divergence"),
    ],
)
def test_training_loop_matches_public_call_loop(arch, cfg, stop_reason):
    split = _split(np.random.default_rng(20), arch)
    rec = train_with_early_stopping(init_network(arch, seed=20), split, arch, cfg)
    want = _public_call_training(init_network(arch, seed=20), split, arch, cfg)
    assert rec.stop_reason == stop_reason
    # repr round-trips every float, so this is == that also holds for NaN
    assert repr(rec) == repr(want)

    losses = {e: 1.0 / (1 + e % 7) for e in range(cfg.max_epochs + 1)}
    scripted = lambda n_, e: losses[e]
    rec = train_with_early_stopping(init_network(arch, seed=21), split, arch, cfg, scripted)
    want = _public_call_training(init_network(arch, seed=21), split, arch, cfg, scripted)
    assert repr(rec) == repr(want)


def test_training_loop_one_train_pass_per_epoch(monkeypatch):
    calls = []
    trace = finite_width._forward_trace

    def counting_trace(net, X):
        calls.append(len(X))
        return trace(net, X)

    monkeypatch.setattr(finite_width, "_forward_trace", counting_trace)
    arch = _small_arch()
    split = _split(np.random.default_rng(22), arch)
    epochs = 9
    cfg = TrainConfig(eta=0.1, max_epochs=epochs, patience=epochs + 1)
    rec = train_with_early_stopping(init_network(arch, seed=22), split, arch, cfg)
    assert rec.stop_reason == "max_epochs" and rec.epochs_run == epochs
    # initial train and validation passes, one of each per epoch, the test pass
    assert len(calls) == 2 * epochs + 3
    assert calls.count(len(split["x_train"])) == epochs + 1


def test_training_steps_reject_unshaped_labels():
    # n == n_out: (n,) labels would broadcast against (n, n_out) outputs
    arch = _small_arch(n_out=2)
    net = init_network(arch, seed=23)
    X = np.random.default_rng(23).standard_normal((2, arch.input_dim))
    Y = np.array([0.5, -0.5])
    with pytest.raises(ValueError, match="label shape"):
        mse_loss(net, X, Y)
    with pytest.raises(ValueError, match="label shape"):
        gd_epoch(net, X, Y, arch, TrainConfig(eta=0.1))
    opt = AdamState.zeros_like(net)
    with pytest.raises(ValueError, match="label shape"):
        adam_epoch(net, X, Y, TrainConfig(eta=0.1, optimizer="adam"), opt, np.random.default_rng(0))


def test_ensemble_arithmetic_and_exclusion():
    from ntkuq.finite_width import EnsembleRunRecord, EnsembleSummary, _jackknife_se

    losses = np.array([1.0, 2.0, 3.0])
    assert np.mean(losses) == 2.0
    assert np.var(losses, ddof=1) == 1.0
    assert np.sqrt(np.var(losses, ddof=1)) / np.mean(losses) == 0.5
    se = _jackknife_se(losses, lambda a: a.std(ddof=1) / a.mean())
    assert np.isfinite(se) and se > 0


def test_ensemble_determinism_and_moments():
    arch = _small_arch(depth=2, width=16, d=3, n_out=1)
    split = _split(np.random.default_rng(18), arch)
    cfg = TrainConfig(eta=0.2, max_epochs=30, patience=30)
    s1 = run_ensemble(split, arch, cfg, 4, base_seed=100)
    s2 = run_ensemble(split, arch, cfg, 4, base_seed=100)
    assert [r.final_test_loss for r in s1.records] == [
        r.final_test_loss for r in s2.records
    ]
    assert s1.n_ok == 4 and s1.n_diverged == 0
    losses = np.array([r.final_test_loss for r in s1.records])
    assert s1.mu_L == pytest.approx(losses.mean())
    assert s1.var_L == pytest.approx(np.var(losses, ddof=1))
    assert s1.eps_L == pytest.approx(np.sqrt(s1.var_L) / s1.mu_L)


def test_ensemble_trains_with_the_architecture_lambdas():
    # lambda_b and lambda_w have one owner, the architecture that also defines Theta.
    arch = ArchitectureConfig(depth=2, input_dim=4, hidden_width=32, lambda_b=4.0)
    split = _split(np.random.default_rng(24), arch)
    cfg = TrainConfig(eta=0.2, max_epochs=30, patience=31)
    got = run_ensemble(split, arch, cfg, 3, base_seed=0).records
    base = run_ensemble(split, replace(arch, lambda_b=1.0), cfg, 3, base_seed=0).records
    assert [r.final_test_loss for r in got] != [r.final_test_loss for r in base]
    # run_ensemble steps with eta / max(lambda_b, 1).
    want = [
        _public_call_training(
            init_network(arch, seed), split, arch, replace(cfg, eta=cfg.eta / 4, seed=seed)
        )
        for seed in range(3)
    ]
    assert repr(got) == repr(want)


def test_ensemble_requires_two_members():
    arch = _small_arch()
    split = _split(np.random.default_rng(19), arch)
    with pytest.raises(ValueError):
        run_ensemble(split, arch, TrainConfig(eta=0.1), 1, base_seed=0)


def _pool_workers(monkeypatch, cores):
    """Let run_ensemble see `cores` usable cores; returns the worker counts of its pools.

    Only the os attribute is patched: the process's real affinity is unchanged.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    made = []

    def pool(max_workers, mp_context):
        assert mp_context.get_start_method() == "fork"
        made.append(max_workers)
        return ProcessPoolExecutor(max_workers, mp_context)

    monkeypatch.setattr(finite_width, "ProcessPoolExecutor", pool)
    return made


def _log(path, value):
    """Append value as one JSON line; members in worker processes report through files."""
    with open(path, "a") as f:
        f.write(json.dumps(value) + "\n")


def _logged(path):
    """The values _log appended to path, in the order they were written."""
    return [json.loads(line) for line in path.read_text().splitlines()] if path.exists() else []


_ENSEMBLES = {
    # every member runs to max_epochs
    "gd": (
        _small_arch(depth=2, width=16, n_out=1), 40,
        TrainConfig(eta=1.0, max_epochs=60, patience=61), ["max_epochs"] * 4,
    ),
    # members 1 and 3 diverge; 0 and 2 run to max_epochs
    "diverged": (
        _small_arch(depth=2, width=16, n_out=1), 40,
        TrainConfig(eta=1.8, max_epochs=200, patience=201),
        ["max_epochs", "divergence"] * 2,
    ),
    # members stop on patience at epochs 10, 34, 30 and 13
    "patience": (
        _small_arch(width=16), 43, TrainConfig(eta=0.1, max_epochs=3000, patience=5),
        ["patience"] * 4,
    ),
    "adam": (
        _small_arch(width=16), 43,
        TrainConfig(eta=0.05, optimizer="adam", minibatch=4, max_epochs=30, patience=5),
        ["patience"] * 4,
    ),
}


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("name", sorted(_ENSEMBLES))
def test_ensemble_pool_records_equal_serial_training(monkeypatch, name, cores):
    arch, split_seed, cfg, stop_reasons = _ENSEMBLES[name]
    split = _split(np.random.default_rng(split_seed), arch)
    serial = [
        train_with_early_stopping(init_network(arch, s), split, arch, replace(cfg, seed=s))
        for s in range(7, 11)
    ]
    made = _pool_workers(monkeypatch, cores)
    got = run_ensemble(split, arch, cfg, 4, base_seed=7)
    assert made == [cores]
    assert [r.stop_reason for r in got.records] == stop_reasons
    if name == "patience":
        assert len({r.epochs_run for r in got.records}) == 4
    # repr round-trips every float, so this is == that also holds for NaN
    assert repr(got.records) == repr(serial)


def test_eight_pool_workers_give_the_serial_records(monkeypatch):
    # Eight members on a pool of eight forked workers, more workers than the
    # cores of most hosts: every record equals the one serial training gives.
    arch, split_seed, cfg, _ = _ENSEMBLES["patience"]
    split = _split(np.random.default_rng(split_seed), arch)
    serial = [
        train_with_early_stopping(init_network(arch, s), split, arch, replace(cfg, seed=s))
        for s in range(8)
    ]
    made = _pool_workers(monkeypatch, 8)
    got = run_ensemble(split, arch, cfg, 8, base_seed=0)
    assert made == [8]
    assert repr(got.records) == repr(serial)


def test_ensemble_pool_takes_the_cpu_count_without_affinity(monkeypatch):
    arch = _small_arch(depth=2, width=8, n_out=1)
    split = _split(np.random.default_rng(25), arch)
    made = _pool_workers(monkeypatch, 1)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = TrainConfig(eta=0.1, max_epochs=2)
    run_ensemble(split, arch, cfg, 4, base_seed=0)
    run_ensemble(split, arch, cfg, 2, base_seed=0)
    assert made == [3, 2]


def test_ensemble_records_come_back_in_seed_order(monkeypatch, tmp_path):
    # Member 0 waits until member 1 has finished, so the pool finishes them
    # out of seed order; the records still come back in seed order.
    _pool_workers(monkeypatch, 2)
    train = finite_width.train_with_early_stopping
    one_done = multiprocessing.get_context("fork").Event()
    log = tmp_path / "finished"

    def member(net, split, arch, cfg):
        if cfg.seed == 0:
            assert one_done.wait(timeout=60)
        rec = train(net, split, arch, cfg)
        _log(log, cfg.seed)
        if cfg.seed == 1:
            one_done.set()
        return rec

    monkeypatch.setattr(finite_width, "train_with_early_stopping", member)
    arch = _small_arch(depth=2, width=8, n_out=1)
    split = _split(np.random.default_rng(26), arch)
    got = run_ensemble(split, arch, TrainConfig(eta=0.1, max_epochs=5), 3, base_seed=0)
    finished = _logged(log)
    assert finished.index(1) < finished.index(0)
    assert [r.seed for r in got.records] == [0, 1, 2]


def test_ensemble_member_exception_propagates_and_cancels_the_rest(monkeypatch, tmp_path):
    _pool_workers(monkeypatch, 1)
    log = tmp_path / "started"

    def member(net, split, arch, cfg):
        _log(log, cfg.seed)
        if cfg.seed == 0:
            raise DivergenceError("member 0 failed")
        time.sleep(0.1)
        return EnsembleRunRecord(cfg.seed, 1.0, 1.0, 1, "max_epochs")

    monkeypatch.setattr(finite_width, "train_with_early_stopping", member)
    arch = _small_arch(depth=2, width=8, n_out=1)
    split = _split(np.random.default_rng(27), arch)
    threads = threading.active_count()
    with pytest.raises(DivergenceError, match="member 0 failed"):
        run_ensemble(split, arch, TrainConfig(eta=0.1), 8, base_seed=0)
    # The members not yet started were cancelled, and no pool thread outlives the call.
    started = _logged(log)
    assert started[0] == 0 and len(started) < 8
    assert threading.active_count() == threads


def test_ensemble_members_train_on_one_blas_thread(monkeypatch, tmp_path):
    pools = _openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS thread pool in this process")
    _pool_workers(monkeypatch, 2)
    train = finite_width.train_with_early_stopping
    log = tmp_path / "seen"

    def member(net, split, arch, cfg):
        _log(log, [get() for get, _ in pools])
        if cfg.seed == 3:
            raise DivergenceError("member 3 failed")
        return train(net, split, arch, cfg)

    monkeypatch.setattr(finite_width, "train_with_early_stopping", member)
    arch = _small_arch(depth=2, width=8, n_out=1)
    split = _split(np.random.default_rng(28), arch)
    cfg = TrainConfig(eta=0.1, max_epochs=3)
    saved = [get() for get, _ in pools]
    try:
        for _, set_ in pools:
            set_(2)
        run_ensemble(split, arch, cfg, 3, base_seed=0)
        assert [get() for get, _ in pools] == [2] * len(pools)
        # A member raises inside the context; the counts still come back.
        with pytest.raises(DivergenceError):
            run_ensemble(split, arch, cfg, 4, base_seed=0)
        assert [get() for get, _ in pools] == [2] * len(pools)
    finally:
        for (_, set_), n in zip(pools, saved):
            set_(n)
    seen = _logged(log)
    assert len(seen) >= 4 and all(counts == [1] * len(pools) for counts in seen)


def test_no_worker_process_outlives_run_ensemble(monkeypatch):
    _pool_workers(monkeypatch, 2)
    arch = _small_arch(depth=2, width=8, n_out=1)
    split = _split(np.random.default_rng(29), arch)
    cfg = TrainConfig(eta=0.1, max_epochs=3)
    threads = threading.active_count()
    run_ensemble(split, arch, cfg, 3, base_seed=0)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads

    train = finite_width.train_with_early_stopping

    def member(net, split, arch, cfg):
        if cfg.seed == 1:
            raise DivergenceError("member 1 failed")
        return train(net, split, arch, cfg)

    monkeypatch.setattr(finite_width, "train_with_early_stopping", member)
    with pytest.raises(DivergenceError, match="member 1 failed"):
        run_ensemble(split, arch, cfg, 4, base_seed=0)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_forward_rejects_inputs_that_are_not_2d():
    # 40 values are not one point of a 40-input network: rows are points.
    net = init_network(ArchitectureConfig(depth=2, input_dim=40, hidden_width=8), seed=30)
    for X in (np.linspace(-1, 1, 40), np.zeros((2, 40, 1))):
        with pytest.raises(ValueError, match=r"points shape \(%d,.* rows are points" % X.shape[0]):
            forward(net, X)


def test_adam_epoch_rejects_inputs_that_are_not_2d():
    arch = ArchitectureConfig(depth=2, input_dim=40, hidden_width=8)
    net = init_network(arch, seed=31)
    opt = AdamState.zeros_like(net)
    cfg = TrainConfig(eta=0.1, optimizer="adam")
    with pytest.raises(ValueError, match=r"points shape \(40,\) .* rows are points"):
        adam_epoch(net, np.linspace(-1, 1, 40), np.zeros((1, 1)), cfg, opt, np.random.default_rng(0))


def test_training_rejects_train_and_validation_inputs_that_are_not_2d():
    arch = _small_arch(d=4)
    for key in ("x_train", "x_val"):
        split = _split(np.random.default_rng(32), arch)
        split[key] = split[key][0]  # one point as a bare (4,) vector
        with pytest.raises(ValueError, match=r"points shape \(4,\) .* rows are points"):
            train_with_early_stopping(
                init_network(arch, seed=32), split, arch, TrainConfig(eta=0.1, max_epochs=1)
            )
