"""End-of-training predictive posterior of infinite-width erf MLPs.

Three routes to the Gaussian posterior over test outputs:
  * closed form, when the train-train NTK block is well-conditioned;
  * iterated GD-map evolution with early stopping, otherwise;
  * the Bayesian variant, with the NTK replaced by the kernel.
"""

import contextlib
import ctypes
from dataclasses import dataclass
import functools
import json

import numpy as np
from scipy.linalg import lapack

from .errors import DivergenceError, IllConditionedError
from .kernels import _symmetric, label_matrix
from .loss_stats import _mean_loss

__all__ = [
    "PredictivePosterior",
    "EarlyStopPolicy",
    "closed_form_posterior",
    "gd_evolve",
    "bayesian_posterior",
    "save_posterior_jsonl",
    "load_posterior_jsonl",
]

RCOND_LIMIT = 1e-12
VAR_CLAMP = 1e-9
DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class PredictivePosterior:
    """Gaussian posterior over test-point outputs.

    mean has one row per test point and one column per output neuron; cov
    is shared across output columns and cross-output covariance is exactly
    zero. A diagonal-only posterior gives var (the per-point variances) and
    cov=None; otherwise var is the diagonal of cov. Give exactly one.
    """

    mean: np.ndarray
    cov: np.ndarray
    method: str
    steps_used: int = 0
    var: np.ndarray = None

    def __post_init__(self):
        if (self.cov is None) == (self.var is None):
            raise ValueError("give exactly one of cov and var (diagonal only)")
        if self.cov is None:
            var = np.asarray(self.var, dtype=float)
            if var.ndim != 1 or not np.all(var >= 0):
                raise ValueError("var must be a 1-D array of variances >= 0")
        else:
            cov = np.asarray(self.cov, dtype=float)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise ValueError("cov shape %s is not square" % (cov.shape,))
            cov = _symmetric(cov, "cov", 1e-10)
            d = np.diag(cov).copy()
            if np.any(d < -VAR_CLAMP):
                raise ValueError("cov diagonal below -%g" % VAR_CLAMP)
            neg = d < 0
            if np.any(neg):
                cov = cov.copy()
                cov[np.diag_indices_from(cov)] = np.where(neg, 0.0, d)
            cov.setflags(write=False)
            object.__setattr__(self, "cov", cov)
            var = np.diag(cov)
        object.__setattr__(self, "mean", label_matrix(self.mean, var.size))
        object.__setattr__(self, "var", var)

    @property
    def n_test(self):
        return self.mean.shape[0]

    @property
    def n_out(self):
        return self.mean.shape[1]


@dataclass(frozen=True)
class EarlyStopPolicy:
    """Validation-loss early stopping for the iterated GD map.

    validation_ids are rows of the KernelPair handed to gd_evolve, like its
    train_ids and test_ids; patience is counted in checks, each check_every
    steps apart.
    """

    validation_ids: np.ndarray
    validation_labels: np.ndarray
    patience: int = 10
    check_every: int = 100
    max_steps: int = 10_000_000

    def __post_init__(self):
        object.__setattr__(self, "validation_ids", np.asarray(self.validation_ids, dtype=int))
        labels = label_matrix(self.validation_labels, self.validation_ids.size)
        object.__setattr__(self, "validation_labels", labels)
        if self.patience < 1 or self.check_every < 1:
            raise ValueError("patience and check_every must be >= 1")


def _blocks(kp, M, train_ids, test_ids):
    """(M_A, M_B, K_A, K_B, K_BB) for the matrix M a route solves (Theta or K).

    When M is kp.K its blocks are the K blocks, so nothing is copied twice.
    """
    tr = np.asarray(train_ids, dtype=int)
    te = np.asarray(test_ids, dtype=int)
    K_A = kp.K[np.ix_(tr, tr)]
    K_B = kp.K[np.ix_(tr, te)]
    M_A, M_B = (K_A, K_B) if M is kp.K else (M[np.ix_(tr, tr)], M[np.ix_(tr, te)])
    return M_A, M_B, K_A, K_B, kp.K[np.ix_(te, te)]


@functools.cache
def _openblas_pools():
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    The numpy and scipy wheels each bundle their own OpenBLAS, each with its
    own worker pool. Found once, from /proc/self/maps; empty without /proc or
    without OpenBLAS (MKL, other platforms).
    """
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return ()
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                     "openblas_%s_num_threads"):
            get, set_ = getattr(lib, name % "get", None), getattr(lib, name % "set", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((get, set_))
                break
    return tuple(pools)


@contextlib.contextmanager
def _one_blas_thread():
    # A posterior solve alternates between numpy's and scipy's OpenBLAS. An idle
    # pool's workers spin for a while after each call, so with both pools at 2
    # threads, 3 threads share 2 cores; one thread per pool is faster. It also
    # keeps the solve's bits independent of the thread count, which at some
    # shapes changes how OpenBLAS rounds a GEMM. The count is process-wide:
    # ntkuq calls BLAS from one thread only, so only a concurrent caller's BLAS
    # calls would also run on one thread meanwhile.
    pools = _openblas_pools()
    saved = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(pools, saved):
            set_(n)


def _factor(M_A, name):
    """(ldl, ipiv), the dsytrf factor of M_A that scipy.linalg.solve(assume_a="sym") makes.

    IllConditionedError unless M_A is finite and LAPACK's 1-norm reciprocal
    condition estimate on the factor is >= RCOND_LIMIT. Call inside _one_blas_thread.
    """
    n = M_A.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    rcond = 0.0
    if np.all(np.isfinite(M_A)):
        norm = np.abs(M_A).sum(axis=0).max()
        lwork, _ = lapack.dsytrf_lwork(n)
        ldl, ipiv, info = lapack.dsytrf(M_A, lwork=int(lwork))
        if info == 0 and norm > 0:
            rcond, _ = lapack.dsycon(ldl, ipiv, norm)
    if not rcond >= RCOND_LIMIT:
        raise IllConditionedError(
            "%s 1-norm reciprocal condition estimate %.3g below %g; use the iterative GD path"
            % (name, rcond, RCOND_LIMIT)
        )
    return ldl, ipiv


def _posterior_from_blocks(M_A, M_B, K_A, K_B, K_BB, y, name, method):
    with _one_blas_thread():
        ldl, ipiv = _factor(M_A, name)
        # C order, as scipy.linalg.solve returns it, keeps the GEMMs' bits.
        T = np.ascontiguousarray(lapack.dsytrs(ldl, ipiv, M_B)[0])
        mean = T.T @ y
        cov = K_BB - T.T @ K_B - K_B.T @ T + T.T @ K_A @ T
    cov = 0.5 * (cov + cov.T)
    return PredictivePosterior(mean=mean, cov=cov, method=method, steps_used=0)


def closed_form_posterior(kp, train_ids, test_ids, labels):
    """Closed-form limit of infinitely many GD steps (independent of eta).

    mean = Theta_B^T Theta_A^{-1} y; cov is the four-term expression
    combining kernel and NTK blocks.
    """
    Th_A, Th_B, K_A, K_B, K_BB = _blocks(kp, kp.Theta, train_ids, test_ids)
    y = label_matrix(labels, Th_A.shape[0])
    return _posterior_from_blocks(Th_A, Th_B, K_A, K_B, K_BB, y, "Theta_A", "closed_form")


def bayesian_posterior(kp, train_ids, test_ids, labels):
    """Bayesian (last-layer-training) posterior: NTK replaced by the kernel.

    Substituting Theta -> K in the GD formulas reduces algebraically to
    the usual GP conditional, computed here in the substituted form.
    """
    _, _, K_A, K_B, K_BB = _blocks(kp, kp.K, train_ids, test_ids)
    y = label_matrix(labels, K_A.shape[0])
    return _posterior_from_blocks(K_A, K_B, K_A, K_B, K_BB, y, "K_A", "bayesian")


def gd_evolve(kp, train_ids, test_ids, labels, eta=None, *, stop):
    """Evolve the joint output distribution under the linear GD map.

    Starts from mean 0 and covariance K over the train, validation and test
    rows of kp (the validation rows are stop.validation_ids) and applies
    z <- z - eta * Theta[:, A] (z_A - y) jointly; the covariance is
    conjugated by the linear part. Stops on the early-stop policy and
    returns the posterior over test_ids only, at the best-validation step.
    eta defaults to 1 / lambda_max(Theta_A).
    """
    tr = np.asarray(train_ids, dtype=int)
    te = np.asarray(test_ids, dtype=int)
    va = stop.validation_ids
    if np.any(va < 0) or np.any(va >= kp.count):
        raise ValueError("validation ids must be rows of the %d-point kernel" % kp.count)
    y = label_matrix(labels, tr.size)
    val_labels = stop.validation_labels
    if val_labels.shape[1] != y.shape[1]:
        raise ValueError("validation labels and train labels disagree on n_out")
    joint = np.concatenate([tr, va, te])
    n = joint.size
    n_train = tr.size
    val_rows = slice(n_train, n_train + va.size)
    test_rows = slice(n_train + va.size, n)
    Theta_joint = kp.Theta[np.ix_(joint, joint)]
    K_joint = kp.K[np.ix_(joint, joint)]

    if eta is None:
        lam_max = float(np.max(np.linalg.eigvalsh(Theta_joint[:n_train, :n_train])))
        eta = 1.0 / lam_max
    if eta < 0:
        raise ValueError("eta must be >= 0")

    # One GD step: z <- M z + c with M = I - eta * Theta[:, A], acting on
    # the train columns only.
    M = np.eye(n)
    M[:, :n_train] -= eta * Theta_joint[:, :n_train]
    c = eta * (Theta_joint[:, :n_train] @ y)

    # Compose check_every steps into a single affine map so each check
    # costs one matrix triple product; the dynamics are unchanged.
    A = np.eye(n)
    b = np.zeros_like(c)
    for _ in range(stop.check_every):
        b = M @ b + c
        A = M @ A

    mean = np.zeros((n, y.shape[1]))
    cov = K_joint

    initial_val = _mean_loss(np.diag(cov)[val_rows], val_labels - mean[val_rows])
    best_val = initial_val
    # Each check rebinds mean and cov to new arrays and never writes into
    # them, so best keeps references, not copies.
    best = (mean, cov, 0)
    bad_checks = 0
    step = 0
    while step < stop.max_steps:
        mean = A @ mean + b
        cov = A @ cov @ A.T
        step += stop.check_every
        val = _mean_loss(np.diag(cov)[val_rows], val_labels - mean[val_rows])
        if not np.isfinite(val) or val > DIVERGENCE_FACTOR * max(initial_val, 1e-300):
            raise DivergenceError(
                "validation loss %g exceeded %g x initial after %d steps (eta=%g too large)"
                % (val, DIVERGENCE_FACTOR, step, eta)
            )
        if val < best_val:
            best_val = val
            best = (mean, cov, step)
            bad_checks = 0
        else:
            bad_checks += 1
            if bad_checks >= stop.patience:
                break

    mean, cov, steps_used = best
    cov_test = cov[test_rows, test_rows]
    cov_test = 0.5 * (cov_test + cov_test.T)
    return PredictivePosterior(
        mean=mean[test_rows], cov=cov_test, method="iterative", steps_used=steps_used
    )


def save_posterior_jsonl(post, path, ids=None):
    """One JSON record per test point: {id, mean[], var, method, steps_used}."""
    if ids is None:
        ids = range(post.n_test)
    var = post.var
    with open(path, "w") as f:
        for row, pid in zip(range(post.n_test), ids):
            rec = {
                "id": int(pid),
                "mean": [float(v) for v in post.mean[row]],
                "var": float(var[row]),
                "method": post.method,
                "steps_used": int(post.steps_used),
            }
            f.write(json.dumps(rec) + "\n")


def load_posterior_jsonl(path):
    """Rebuild a diagonal-only posterior from the JSON-lines export.

    The full covariance is not stored in this format, so cov is None and
    operations needing off-diagonals must use the binary matrix export.
    Every record must carry the same method and steps_used.
    """
    means, variances, ids, routes = [], [], [], set()
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "method" not in rec or "steps_used" not in rec:
                raise ValueError("posterior record %d has no method or steps_used" % len(ids))
            ids.append(rec["id"])
            means.append(rec["mean"])
            variances.append(rec["var"])
            routes.add((rec["method"], rec["steps_used"]))
    if len(routes) != 1:
        raise ValueError("posterior records need one method and steps_used: %s" % sorted(routes))
    ((method, steps_used),) = routes
    post = PredictivePosterior(
        mean=means, cov=None, method=method, steps_used=steps_used, var=variances
    )
    return post, np.asarray(ids)
