"""Finite-width erf MLPs trained with the per-layer learning-rate tensor.

Networks use the critical initialization (zero biases, Gaussian weights
with variance 1/fan_in) so that wide networks reproduce the analytic
kernel statistics at initialization and follow the linearized GD
dynamics during training.
"""

from dataclasses import dataclass, field, replace
import functools
import math

import numpy as np
from scipy.special import erf

from .errors import DivergenceError
from .infwidth import _diverged, _fork_map
from .kernels import _point_rows, label_matrix
from .loss_stats import _eps

__all__ = [
    "MlpState",
    "TrainConfig",
    "AdamState",
    "EnsembleRunRecord",
    "EnsembleSummary",
    "init_network",
    "forward",
    "mse_loss",
    "gd_epoch",
    "adam_epoch",
    "train_with_early_stopping",
    "run_ensemble",
]

_ERF_DERIV_COEF = 2.0 / math.sqrt(math.pi)
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class MlpState:
    """Weights and biases of an erf MLP; layer ell has shape (n_ell, n_{ell-1})."""

    weights: list
    biases: list

    def copy(self):
        return MlpState(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    @property
    def depth(self):
        return len(self.weights)


@dataclass(frozen=True)
class TrainConfig:
    """Optimiser settings; GD takes lambda_b and lambda_w from the ArchitectureConfig."""

    eta: float
    optimizer: str = "full_batch_gd"
    minibatch: int = 1000
    patience: int = 10_000
    max_epochs: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.eta < math.inf:  # NaN fails it too
            raise ValueError("eta must be > 0 and finite")
        if self.patience < 1 or self.minibatch < 1:
            raise ValueError("patience and minibatch must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.optimizer not in ("full_batch_gd", "adam"):
            raise ValueError("unknown optimizer %r" % self.optimizer)


@dataclass
class AdamState:
    """First/second moment buffers and the step counter for Adam."""

    m_w: list
    v_w: list
    m_b: list
    v_b: list
    t: int = 0

    @classmethod
    def zeros_like(cls, net):
        return cls(
            m_w=[np.zeros_like(w) for w in net.weights],
            v_w=[np.zeros_like(w) for w in net.weights],
            m_b=[np.zeros_like(b) for b in net.biases],
            v_b=[np.zeros_like(b) for b in net.biases],
        )


@dataclass(frozen=True)
class EnsembleRunRecord:
    seed: int
    final_test_loss: float
    best_val_loss: float
    epochs_run: int
    stop_reason: str


@dataclass(frozen=True)
class EnsembleSummary:
    """Sample moments of the members' test losses; eps_L follows from mu_L and var_L."""

    records: list
    mu_L: float
    var_L: float
    eps_L: float = field(init=False)
    eps_se: float
    mu_se: float
    sigma_se: float
    n_ok: int
    n_diverged: int

    def __post_init__(self):
        object.__setattr__(self, "eps_L", _eps(self.mu_L, self.var_L))


def init_network(arch, seed):
    """Critically initialized MLP: zero biases, weight variance 1/fan_in."""
    rng = np.random.default_rng(seed)
    widths = [arch.input_dim] + [arch.hidden_width] * (arch.depth - 1) + [arch.n_out]
    weights, biases = [], []
    for ell in range(arch.depth):
        fan_in = widths[ell]
        weights.append(rng.standard_normal((widths[ell + 1], fan_in)) / np.sqrt(fan_in))
        biases.append(np.zeros(widths[ell + 1]))
    return MlpState(weights=weights, biases=biases)


def _forward_trace(net, X):
    """Preactivations and layer inputs of a batch, as (N, n_ell) arrays.

    Returns (zs, acts): zs[ell] = acts[ell] @ W^T + b, where acts[0] is X
    and acts[ell] = erf(zs[ell - 1]). The readout zs[-1] is linear.
    """
    zs, acts = [], []
    a = _point_rows(X)
    for ell, (W, b) in enumerate(zip(net.weights, net.biases)):
        if ell > 0:
            a = erf(zs[-1])
        if a.shape[1] != W.shape[1]:
            raise ValueError(
                "layer %d expects %d inputs, got %d" % (ell + 1, W.shape[1], a.shape[1])
            )
        acts.append(a)
        zs.append(a @ W.T + b)
    return zs, acts


def forward(net, X):
    """Network outputs for a batch of inputs; linear readout at the top."""
    return _forward_trace(net, X)[0][-1]


def _mse(out, Y):
    n, n_out = out.shape
    return float(np.sum((out - Y) ** 2) / (2.0 * n_out * n))


def mse_loss(net, X, Y):
    """Training loss: 1/(n_out N) * sum over examples of half squared error."""
    out = forward(net, X)
    return _mse(out, label_matrix(Y, *out.shape))


def _gradients(net, X, Y, trace=None):
    """Backprop gradients of mse_loss w.r.t. every weight and bias.

    Y is already a label_matrix of the outputs' shape. trace, when given,
    is _forward_trace(net, X) and is not recomputed.
    """
    zs, acts = _forward_trace(net, X) if trace is None else trace
    n, n_out = zs[-1].shape
    grad_w = [None] * net.depth
    grad_b = [None] * net.depth
    # dL/dz^(L)
    delta = (zs[-1] - Y) / (n_out * n)
    for ell in range(net.depth - 1, -1, -1):
        grad_w[ell] = delta.T @ acts[ell]
        grad_b[ell] = np.sum(delta, axis=0)
        if ell > 0:
            dact = _ERF_DERIV_COEF * np.exp(-zs[ell - 1] ** 2)
            delta = (delta @ net.weights[ell]) * dact
    return grad_w, grad_b


def gd_epoch(net, X, Y, arch, cfg):
    """One full-batch GD step with the per-layer learning-rate tensor.

    Weights move with eta * arch.lambda_w / fan_in; biases with the
    per-layer arch.lambda_b scale consistent with the analytic NTK recursion.
    """
    trace = _forward_trace(net, X)
    return _gd_step(net, X, label_matrix(Y, *trace[0][-1].shape), arch, cfg, trace)


def _gd_step(net, X, Y, arch, cfg, trace):
    # gd_epoch with normalised labels, from trace = _forward_trace(net, X).
    grad_w, grad_b = _gradients(net, X, Y, trace)
    for ell in range(net.depth):
        fan_in = net.weights[ell].shape[1]
        net.weights[ell] -= cfg.eta * (arch.lambda_w / fan_in) * grad_w[ell]
        # Layer m >= 2 biases carry lambda_b/(m-1), matching the constant the
        # kernel/NTK recursion adds at each step; layer 1 carries lambda_b.
        net.biases[ell] -= cfg.eta * (arch.lambda_b / max(1, ell)) * grad_b[ell]
    return net


def adam_epoch(net, X, Y, cfg, opt, rng):
    """One epoch of minibatched Adam over a seeded shuffle of the data.

    Plain Adam on all parameters; the learning-rate tensor is not applied.
    """
    X = _point_rows(X)
    Y = label_matrix(Y, X.shape[0], net.weights[-1].shape[0])
    return _adam_epoch(net, X, Y, cfg, opt, rng)


def _adam_epoch(net, X, Y, cfg, opt, rng):
    # adam_epoch with a 2-D X and normalised labels.
    n = X.shape[0]
    batch = min(cfg.minibatch, n)
    order = rng.permutation(n)
    for start in range(0, n, batch):
        idx = order[start : start + batch]
        grad_w, grad_b = _gradients(net, X[idx], Y[idx])
        opt.t += 1
        c1 = 1.0 - _ADAM_BETA1**opt.t
        c2 = 1.0 - _ADAM_BETA2**opt.t
        for ell in range(net.depth):
            for g, m, v, p in (
                (grad_w[ell], opt.m_w, opt.v_w, net.weights),
                (grad_b[ell], opt.m_b, opt.v_b, net.biases),
            ):
                m[ell] = _ADAM_BETA1 * m[ell] + (1.0 - _ADAM_BETA1) * g
                v[ell] = _ADAM_BETA2 * v[ell] + (1.0 - _ADAM_BETA2) * g * g
                p[ell] -= cfg.eta * (m[ell] / c1) / (np.sqrt(v[ell] / c2) + _ADAM_EPS)
    return net


def train_with_early_stopping(net, split, arch, cfg, val_loss_fn=None):
    """Train until validation loss stalls for `patience` epochs.

    split is a dict with x_train/y_train/x_val/y_val/x_test/y_test; arch
    supplies the GD step's lambda_b and lambda_w.
    Best-validation parameters are restored before the single test-loss
    evaluation. val_loss_fn overrides the validation metric (test hook).

    The training batch goes through the network once per epoch: the pass
    after each update gives the divergence check its train loss and the
    next GD step its gradient. Labels are checked once, before the first
    epoch.
    """
    x_tr = _point_rows(split["x_train"])
    x_te, y_te = split["x_test"], split["y_test"]

    opt = AdamState.zeros_like(net) if cfg.optimizer == "adam" else None
    rng = np.random.default_rng(cfg.seed)

    trace = _forward_trace(net, x_tr)
    y_tr = label_matrix(split["y_train"], *trace[0][-1].shape)
    if val_loss_fn is None:
        x_val = _point_rows(split["x_val"])
        y_val = label_matrix(split["y_val"], x_val.shape[0], y_tr.shape[1])
        val_loss_fn = lambda n_, epoch: _mse(forward(n_, x_val), y_val)
    initial_train = _mse(trace[0][-1], y_tr)
    best_val = val_loss_fn(net, 0)
    best_params = net.copy()
    bad_epochs = 0
    stop_reason = "max_epochs"
    epoch = 0
    while epoch < cfg.max_epochs:
        if cfg.optimizer == "adam":
            _adam_epoch(net, x_tr, y_tr, cfg, opt, rng)
        else:
            _gd_step(net, x_tr, y_tr, arch, cfg, trace)
        epoch += 1
        trace = _forward_trace(net, x_tr)
        train_loss = _mse(trace[0][-1], y_tr)
        if _diverged(train_loss, initial_train):
            stop_reason = "divergence"
            break
        val = val_loss_fn(net, epoch)
        if val < best_val:
            best_val = val
            best_params = net.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                stop_reason = "patience"
                break

    test_loss = float("nan")
    if stop_reason != "divergence":
        net.weights = best_params.weights
        net.biases = best_params.biases
        test_loss = mse_loss(net, x_te, y_te)
    return EnsembleRunRecord(
        seed=cfg.seed,
        final_test_loss=test_loss,
        best_val_loss=float(best_val),
        epochs_run=epoch,
        stop_reason=stop_reason,
    )


def _jackknife_se(values, stat):
    """Leave-one-out jackknife standard error of stat over values."""
    n = len(values)
    if n < 3:
        return float("nan")
    values = np.asarray(values)
    loo = np.array([stat(np.delete(values, i)) for i in range(n)])
    center = loo.mean()
    return float(np.sqrt((n - 1) / n * np.sum((loo - center) ** 2)))


def _sample_eps(losses):
    """Sample eps_L = std / mean (ddof=1) of member losses, by the rule of loss_stats._eps."""
    return _eps(losses.mean(), losses.var(ddof=1))


def _train_member(split, arch, cfg, seed):
    """The record of the member with init seed `seed`; run_ensemble's pool task."""
    return train_with_early_stopping(
        init_network(arch, seed), split, arch, replace(cfg, seed=seed)
    )


def run_ensemble(split, arch, cfg, n_members, base_seed):
    """Train n_members networks differing only in their init seed.

    Every member trains with eta / max(arch.lambda_b, 1), because Theta, and
    with it the largest stable step, scales with lambda_b. Members train in
    forked worker processes, one per usable core, and each worker inherits the
    one-thread BLAS setting, so every record is bit-identical to training the
    members one after another. This needs a POSIX fork. The BLAS setting is
    process-wide while the workers start, so a caller should not run
    run_ensemble from several of its own threads at once. Returns
    per-member records in seed order, the sample mean/variance of the final
    test losses and eps, the SE of the mean and the jackknife SEs of std and
    eps. Diverged members are kept in the records but excluded from moments.
    A member's exception propagates once the running members finish; the
    members not yet started are cancelled. Every worker has exited when
    run_ensemble returns or raises.
    """
    if n_members < 2:
        raise ValueError("an ensemble needs at least 2 members")
    cfg = replace(cfg, eta=cfg.eta / max(arch.lambda_b, 1.0))
    seeds = range(base_seed, base_seed + n_members)
    records = _fork_map(functools.partial(_train_member, split, arch, cfg), seeds)

    ok = np.array(
        [r.final_test_loss for r in records if r.stop_reason != "divergence"]
    )
    n_diverged = len(records) - ok.size
    if ok.size >= 2:
        mu = float(np.mean(ok))
        var = float(np.var(ok, ddof=1))
        eps_se = _jackknife_se(ok, _sample_eps)
        mu_se = math.sqrt(var) / math.sqrt(ok.size)
        sigma_se = _jackknife_se(ok, lambda a: a.std(ddof=1))
    else:
        mu = var = eps_se = mu_se = sigma_se = float("nan")
    return EnsembleSummary(
        records=records,
        mu_L=mu,
        var_L=var,
        eps_se=eps_se,
        mu_se=mu_se,
        sigma_se=sigma_se,
        n_ok=int(ok.size),
        n_diverged=int(n_diverged),
    )
