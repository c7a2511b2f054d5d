"""End-of-training predictive posterior of infinite-width erf MLPs.

Three routes to the Gaussian posterior over test outputs:
  * closed form, when the train-train NTK block is well-conditioned;
  * iterated GD-map evolution with early stopping, otherwise;
  * the Bayesian variant, with the NTK replaced by the kernel.
"""

from concurrent.futures import ProcessPoolExecutor
import contextlib
import ctypes
from dataclasses import dataclass, field
import functools
import json
import multiprocessing
import os

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
]

RCOND_LIMIT = 1e-12
VAR_CLAMP = 1e-9
DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class PredictivePosterior:
    """Gaussian posterior over test-point outputs.

    mean has one row per test point and one column per output neuron; cov
    is shared across output columns and cross-output covariance is exactly
    zero. cov must be finite and positive semi-definite to round-off. var,
    the per-point variances, is the diagonal of cov and cannot be given.
    """

    mean: np.ndarray
    cov: np.ndarray
    method: str
    steps_used: int = 0
    var: np.ndarray = field(init=False)

    def __post_init__(self):
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
        # PSD to round-off: dpotrf factors cov + delta I in place, on one BLAS
        # thread so that no idle pool worker spins into the next stage.
        delta = max(1e-9 * d.max(initial=0.0), VAR_CLAMP)
        ridged = np.array(cov, order="F")
        ridged[np.diag_indices_from(ridged)] += delta
        with _one_blas_thread():
            info = lapack.dpotrf(ridged, overwrite_a=1, clean=0)[1]
        if info or not np.all(np.isfinite(cov)):
            raise ValueError("cov is not finite and positive semi-definite (to %g)" % delta)
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", label_matrix(self.mean, cov.shape[0]))
        object.__setattr__(self, "var", np.diag(cov))

    @property
    def n_test(self):
        return self.mean.shape[0]

    @property
    def n_out(self):
        return self.mean.shape[1]


@dataclass(frozen=True)
class EarlyStopPolicy:
    """Validation-loss early stopping for the iterated GD map.

    patience is counted in checks, each check_every steps apart. The defaults
    are the fallback run_plan runs when Theta_A fails the conditioning gate.
    """

    patience: int = 20
    check_every: int = 100
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.patience < 1 or self.check_every < 1:
            raise ValueError("patience and check_every must be >= 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")


def _rows(ids, kp, name):
    """ids as a 1-D int array of rows of kp; ValueError for ids that are not
    integers (an empty list is none) or outside [0, kp.count)."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError("%s must be integers, not %s" % (name, ids.dtype))
    ids = ids.astype(int, copy=False)
    if ids.ndim != 1 or np.any(ids < 0) or np.any(ids >= kp.count):
        raise ValueError("%s must be rows of the %d-point kernel" % (name, kp.count))
    return ids


def _diverged(loss, initial):
    """Whether a training loop's loss is not finite or above DIVERGENCE_FACTOR x its
    initial loss; gd_evolve and finite_width.train_with_early_stopping share it."""
    return not np.isfinite(loss) or loss > DIVERGENCE_FACTOR * max(initial, 1e-300)


def _block(M, rows, cols):
    """M[rows, cols] for _rows ids: a view (read-only, as kp's matrices are) when
    rows and cols are each an ascending contiguous range, as run_plan's are,
    else an np.ix_ copy."""
    def span(ids):
        if ids.size and np.all(np.diff(ids) == 1):
            return slice(ids[0], ids[-1] + 1)
        return None

    r, c = span(rows), span(cols)
    return M[np.ix_(rows, cols)] if r is None or c is None else M[r, c]


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
    # shapes changes how OpenBLAS rounds a GEMM. _fork_map forks its worker
    # processes inside the context (which needs a POSIX fork), so each worker
    # runs on one thread too. A pool whose count is already 1 is left alone: a
    # forked worker inherits the count but not the pool's server threads, and
    # setting the count, even to 1, starts a fresh server thread that spins
    # beside the worker. The count is process-wide: a caller's own threads run
    # their BLAS calls on one thread meanwhile, and two threads entering the
    # context at once could restore each other's count, so run_ensemble and
    # run_plan should not be called from several threads at once.
    saved = []
    for get, set_ in _openblas_pools():
        n = get()
        if n != 1:
            set_(1)
            saved.append((set_, n))
    try:
        yield
    finally:
        for set_, n in saved:
            set_(n)


def _usable_cores():
    """The cores this process may run on; os.cpu_count() where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_map(fn, items):
    """[fn(item) for item in items], on min(len(items), usable cores) forked workers.

    The workers are forked inside _one_blas_thread, so each runs its BLAS
    calls on one thread and fn's results keep the bits of a one-thread call
    in this process. fn and the items are pickled; fn may be a module-level
    function or a functools.partial of one. Results come back in input
    order. An exception in fn propagates, with its type, once the running
    items finish; the items not yet started are cancelled. Every worker has
    exited when _fork_map returns or raises.
    """
    with _one_blas_thread():
        pool = ProcessPoolExecutor(
            max_workers=min(len(items), _usable_cores()),
            mp_context=multiprocessing.get_context("fork"),
        )
        try:
            return list(pool.map(fn, items))
        finally:
            pool.shutdown(cancel_futures=True)


def _solve(M_A, rhs, name):
    """M_A^-1 rhs in C order, on the dsytrf factor scipy.linalg.solve(assume_a="sym") makes.

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
    T = lapack.dsytrs(ldl, ipiv, rhs)[0]
    # Free the factor before T is copied to C order: the order scipy.linalg.solve
    # returns, which keeps the callers' GEMMs' bits.
    del ldl
    return np.ascontiguousarray(T)


def closed_form_posterior(kp, train_ids, test_ids, labels):
    """Closed-form limit of infinitely many GD steps (independent of eta).

    With T = Theta_A^{-1} Theta_B: mean = T^T y and the four-term
    cov = K_BB - T^T K_B - K_B^T T + T^T K_A T.
    """
    tr, te = _rows(train_ids, kp, "train ids"), _rows(test_ids, kp, "test ids")
    K_A, K_B = _block(kp.K, tr, tr), _block(kp.K, tr, te)
    y = label_matrix(labels, tr.size)
    with _one_blas_thread():
        T = _solve(_block(kp.Theta, tr, tr), _block(kp.Theta, tr, te), "Theta_A")
        mean = T.T @ y
        X = T.T @ K_B
        cov = _block(kp.K, te, te) - X - X.T + T.T @ K_A @ T
    return PredictivePosterior(mean=mean, cov=0.5 * (cov + cov.T), method="closed_form")


def bayesian_posterior(kp, train_ids, test_ids, labels):
    """Bayesian (last-layer-training) posterior: NTK replaced by the kernel.

    Substituting Theta -> K in the closed form cancels two of its covariance
    terms and leaves the GP conditional: with T = K_A^{-1} K_B, mean = T^T y
    and cov = K_BB - K_B^T T.
    """
    tr, te = _rows(train_ids, kp, "train ids"), _rows(test_ids, kp, "test ids")
    K_B = _block(kp.K, tr, te)
    y = label_matrix(labels, tr.size)
    with _one_blas_thread():
        T = _solve(_block(kp.K, tr, tr), K_B, "K_A")
        mean = T.T @ y
        cov = _block(kp.K, te, te) - K_B.T @ T
    return PredictivePosterior(mean=mean, cov=0.5 * (cov + cov.T), method="bayesian")


def gd_evolve(kp, train_ids, test_ids, labels, eta=None, *, validation_ids, validation_labels,
              stop=EarlyStopPolicy()):
    """Evolve the joint output distribution under the linear GD map.

    Starts from mean 0 and covariance K over the train, validation and test
    rows of kp and applies z <- z - eta * Theta[:, A] (z_A - y) jointly; the
    covariance is conjugated by the linear part. Stops on the validation
    loss under stop and returns the posterior over test_ids only, at the
    best-validation step. eta defaults to 1 / lambda_max(Theta_A). The map
    reads only Theta's train columns, Theta[joint, train], and the prior
    K[joint, joint].
    """
    tr, te = _rows(train_ids, kp, "train ids"), _rows(test_ids, kp, "test ids")
    va = _rows(validation_ids, kp, "validation ids")
    if va.size == 0:
        # With none, the first check would take a mean over nothing.
        raise ValueError("early stopping needs at least one validation id")
    y = label_matrix(labels, tr.size)
    val_labels = label_matrix(validation_labels, va.size, y.shape[1])
    joint = np.concatenate([tr, va, te])
    n = joint.size
    n_train = tr.size
    val_rows = slice(n_train, n_train + va.size)
    test_rows = slice(n_train + va.size, n)
    Theta_jA = _block(kp.Theta, joint, tr)

    if eta is None:
        eta = 1.0 / float(np.max(np.linalg.eigvalsh(Theta_jA[:n_train])))
    if not 0 <= eta < np.inf:  # NaN fails it too
        raise ValueError("eta must be >= 0 and finite")

    # One GD step: z <- M z + c with M = I - eta * Theta[:, A], acting on
    # the train columns only.
    M = np.eye(n)
    M[:, :n_train] -= eta * Theta_jA
    c = eta * (Theta_jA @ y)

    # Compose check_every steps (never more than max_steps) into a single
    # affine map so each check costs one matrix triple product; the dynamics
    # are unchanged. When check_every does not divide max_steps, the last
    # check takes the map of the remaining steps, composed on the way.
    tail = stop.max_steps % stop.check_every
    A = np.eye(n)
    b = np.zeros_like(c)
    for k in range(1, min(stop.check_every, stop.max_steps) + 1):
        b = M @ b + c
        A = M @ A
        if k == tail:
            tail_map = (A, b)

    mean = np.zeros((n, y.shape[1]))
    cov = _block(kp.K, joint, joint)

    initial_val = _mean_loss(np.diag(cov)[val_rows], val_labels - mean[val_rows])
    best_val = initial_val
    # Each check rebinds mean and cov to new arrays and never writes into
    # them, so best keeps references, not copies.
    best = (mean, cov, 0)
    bad_checks = 0
    step = 0
    while step < stop.max_steps:
        steps = min(stop.check_every, stop.max_steps - step)
        A_k, b_k = (A, b) if steps == stop.check_every else tail_map
        mean = A_k @ mean + b_k
        cov = A_k @ cov @ A_k.T
        step += steps
        val = _mean_loss(np.diag(cov)[val_rows], val_labels - mean[val_rows])
        if _diverged(val, initial_val):
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
    """One JSON record per test point: {id, mean[], var, method, steps_used}.

    ids, one per test point, default to 0 .. n_test - 1.
    """
    if ids is None:
        ids = range(post.n_test)
    if len(ids) != post.n_test:
        raise ValueError("%d ids given for a posterior of %d test points" % (len(ids), post.n_test))
    var = post.var
    with open(path, "w") as f:
        for row, pid in enumerate(ids):
            rec = {
                "id": int(pid),
                "mean": [float(v) for v in post.mean[row]],
                "var": float(var[row]),
                "method": post.method,
                "steps_used": int(post.steps_used),
            }
            f.write(json.dumps(rec) + "\n")
