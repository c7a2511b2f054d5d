"""Layer-by-layer kernel and NTK construction for erf MLPs.

The first-layer kernel is the normalized input Gram matrix, and deeper
layers are obtained by a forward recursion whose Gaussian pair
expectations have closed forms for the erf activation (the arcsine
kernel family).
"""

from dataclasses import dataclass
import struct

import numpy as np

__all__ = [
    "InputSet",
    "label_matrix",
    "ArchitectureConfig",
    "KernelPair",
    "erf_pair_expectation",
    "erf_deriv_pair_expectation",
    "build_kernel_pair",
    "save_kernel_pair",
    "load_kernel_pair",
]

_ARCSIN_CLAMP_TOL = 1e-9
_BLOCK_ROWS = 64  # rows per block of the tiled recursion in build_kernel_pair


def _point_rows(X):
    """X as a float array whose rows are points; ValueError unless it is 2-D with >= 1 feature.

    Only the shape is checked: a 1-D array is neither one point nor a
    column, so it is rejected, not guessed at.
    """
    pts = np.asarray(X, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError(
            "points shape %s is not 2-D with >= 1 feature: rows are points" % (pts.shape,)
        )
    return pts


@dataclass(frozen=True)
class InputSet:
    """A set of input vectors, rows = examples, columns = features (stored C-contiguous)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(_point_rows(self.points))
        if not np.all(np.isfinite(pts)):
            raise ValueError("input points contain non-finite entries")
        object.__setattr__(self, "points", pts)

    @property
    def count(self):
        return self.points.shape[0]

    @property
    def input_dim(self):
        return self.points.shape[1]


def label_matrix(values, n_points, n_out=None):
    """Labels (or posterior means) as a finite float (n_points, n_out) matrix.

    Rows are points and a 1-D array is one column. Nothing is transposed,
    so a matrix whose rows are not the points is rejected, not guessed at.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] != n_points or (n_out is not None and y.shape[1] != n_out):
        raise ValueError(
            "label shape %s does not match %d points x %s outputs"
            % (np.shape(values), n_points, "any" if n_out is None else n_out)
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("labels contain non-finite entries")
    return y


@dataclass(frozen=True)
class ArchitectureConfig:
    """MLP architecture and learning-scale hyperparameters.

    depth counts weight layers, so depth L means L-1 hidden layers of
    width hidden_width plus a linear readout of dimension n_out.
    hidden_width and input_dim only matter for finite-width networks.
    """

    depth: int
    input_dim: int = 1
    hidden_width: int = 64
    n_out: int = 1
    lambda_b: float = 1.0
    lambda_w: float = 1.0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.n_out < 1:
            raise ValueError("n_out must be >= 1")
        if self.input_dim < 1 or self.hidden_width < 1:
            raise ValueError("widths must be >= 1")
        # Written so that NaN fails them too.
        if not 0 < self.lambda_w < np.inf:
            raise ValueError("lambda_w must be > 0 and finite")
        if not 0 <= self.lambda_b < np.inf:
            raise ValueError("lambda_b must be >= 0 and finite")


def _symmetric(M, name, tol):
    """M if exactly symmetric (as a view, not a copy), else (M + M^T)/2 within tol."""
    if np.array_equal(M, M.T):
        return M.view()
    if np.max(np.abs(M - M.T), initial=0.0) > tol:
        raise ValueError("%s is not symmetric within %g" % (name, tol))
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class KernelPair:
    """Layer-L kernel K and NTK Theta over a fixed ordering of inputs, as in the kernel file."""

    K: np.ndarray
    Theta: np.ndarray

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        Theta = np.asarray(self.Theta, dtype=float)
        if K.shape != Theta.shape or K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("K and Theta must be square matrices of equal shape")
        if not (np.all(np.isfinite(K)) and np.all(np.isfinite(Theta))):
            raise ValueError("K or Theta contains non-finite entries")
        K = _symmetric(K, "K", 1e-12)
        Theta = _symmetric(Theta, "Theta", 1e-12)
        if np.any(np.diag(K) < 0):
            raise ValueError("K has negative diagonal entries")
        K.setflags(write=False)
        Theta.setflags(write=False)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "Theta", Theta)

    @property
    def count(self):
        return self.K.shape[0]


def _diag_factors(diag):
    """d = 1 + 2 K_aa, the row and column factors of the erf closed forms."""
    if diag.min() < 0:
        raise ValueError("diagonal covariance entries must be >= 0")
    return 1.0 + 2.0 * diag


def _erf_pair(K, d_rows, d_cols):
    """Both erf pair expectations, S = E[erf erf] and Sdot = E[erf' erf'], per entry of K.

    d_rows and d_cols are the factors 1 + 2 K_aa of each entry's row and
    column, broadcast against K: (r, 1) and (c,) for an r x c block, or
    vectors of K's length when K is a diagonal. Raises ValueError on a
    discriminant (1 + 2 K_aa)(1 + 2 K_bb) - 4 K_ab^2 <= 0 (equivalently, an
    arcsine argument of magnitude >= 1); for a PSD K the discriminant is >= 1.
    """
    # Each result is built in one buffer by in-place steps; once Sdot is
    # done, the outer product of the factors becomes S's denominator in place.
    outer = d_rows * d_cols
    Sdot = np.multiply(4.0, K)
    Sdot *= K
    np.subtract(outer, Sdot, out=Sdot)
    if not Sdot.min() > 0:
        raise ValueError("non-positive discriminant %g (covariance not PSD)" % Sdot.min())
    np.sqrt(Sdot, out=Sdot)
    np.divide(4.0 / np.pi, Sdot, out=Sdot)
    S = np.multiply(2.0, K)
    S /= np.sqrt(outer, out=outer)
    np.clip(S, -1.0, 1.0, out=S)  # rounding guard only: |S| < 1 where the discriminant is > 0
    np.arcsin(S, out=S)
    S *= 2.0 / np.pi
    return S, Sdot


def _erf_pair_matrices(K):
    """_erf_pair over a whole square K, its factors taken from K's diagonal.

    Raises ValueError on a negative diagonal entry or a non-positive
    discriminant.
    """
    d = _diag_factors(np.diag(K))
    return _erf_pair(K, d[:, None], d)


def _erf_pair_2x2(k_aa, k_ab, k_bb):
    if k_ab * k_ab > k_aa * k_bb + _ARCSIN_CLAMP_TOL:
        raise ValueError(
            "2x2 covariance [%g, %g; %g, %g] is not positive semidefinite"
            % (k_aa, k_ab, k_ab, k_bb)
        )
    return _erf_pair_matrices(np.array([[k_aa, k_ab], [k_ab, k_bb]], dtype=float))


def erf_pair_expectation(k_aa, k_ab, k_bb):
    """Gaussian expectation of erf(u_a) erf(u_b) under a 2x2 covariance.

    Closed form: (2/pi) * arcsin(2 k_ab / sqrt((1 + 2 k_aa)(1 + 2 k_bb))).
    """
    return _erf_pair_2x2(k_aa, k_ab, k_bb)[0][0, 1]


def erf_deriv_pair_expectation(k_aa, k_ab, k_bb):
    """Gaussian expectation of erf'(u_a) erf'(u_b) under a 2x2 covariance.

    Closed form: (4/pi) / sqrt((1 + 2 k_aa)(1 + 2 k_bb) - 4 k_ab^2).
    """
    return _erf_pair_2x2(k_aa, k_ab, k_bb)[1][0, 1]


def build_kernel_pair(inputs, arch):
    """Build the depth-L kernel and NTK matrices over all input pairs.

    Layer 1: K = X X^T / n_0, Theta = lambda_b + lambda_w * K.
    Each recursion step ell -> ell+1 (ell = 1 .. L-1) applies the erf
    pair expectations and adds the per-layer bias scale lambda_b / ell.

    Entry (a, b) of layer ell+1 needs only K_ab, K_aa and K_bb of layer
    ell, so after the layer-1 Gram the recursion runs on the diagonal as
    vectors and then on one block of _BLOCK_ROWS rows of the upper
    triangle at a time, through every layer, in contiguous buffers; each
    block is written back with its transpose. The entries get the bits of
    the whole-matrix recursion, and the build peaks at about 1.2x the pair
    it returns.
    """
    if not isinstance(inputs, InputSet):
        inputs = InputSet(inputs)
    X = inputs.points
    n0 = inputs.input_dim
    K = X @ X.T / n0  # X is C-contiguous, so this is a BLAS syrk: exactly symmetric
    Theta = arch.lambda_b + arch.lambda_w * K
    factors = []  # d = 1 + 2 K_aa at layers 1 .. L-1
    diag = np.diag(K).copy()
    for _ in range(1, arch.depth):
        factors.append(_diag_factors(diag))
        diag = _erf_pair(diag, factors[-1], factors[-1])[0]
    n = inputs.count
    # Depth 1 has no recursion, so no blocks.
    for i0 in range(0, n if factors else 0, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, n)
        K_blk = K[i0:i1, i0:].copy()
        Th_blk = Theta[i0:i1, i0:].copy()
        for ell, d in enumerate(factors, start=1):
            S, Sdot = _erf_pair(K_blk, d[i0:i1, None], d[i0:])
            # Theta <- (lambda_b / ell + lambda_w * S) + Sdot * Theta, in place:
            # Sdot * Theta first, then the bias-and-S term into Sdot's buffer.
            Th_blk *= Sdot
            np.multiply(arch.lambda_w, S, out=Sdot)
            Sdot += arch.lambda_b / ell
            Th_blk += Sdot
            K_blk = S
        for M, blk in ((K, K_blk), (Theta, Th_blk)):
            M[i0:i1, i0:] = blk
            M[i1:, i0:i1] = blk[:, i1 - i0 :].T
    return KernelPair(K=K, Theta=Theta)


def save_kernel_pair(kp, path):
    """Write a KernelPair to a flat binary file.

    Layout: u64 little-endian count N, then N*N f64 little-endian values
    row-major for K, then N*N for Theta.
    """
    n = kp.count
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", n))
        f.write(np.ascontiguousarray(kp.K, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(kp.Theta, dtype="<f8").tobytes())


def _check_end(f, kind):
    """ValueError naming the file kind unless f has no bytes left."""
    if f.read(1):
        raise ValueError("%s has bytes after the payload its header gives" % kind)


def load_kernel_pair(path):
    """Read a KernelPair from the flat binary layout of save_kernel_pair.

    A file shorter or longer than its count header promises raises ValueError.
    """
    with open(path, "rb") as f:
        header = f.read(8)
        if len(header) != 8:
            raise ValueError("truncated kernel file: missing count header")
        (n,) = struct.unpack("<Q", header)
        payload = f.read(2 * n * n * 8)
        if len(payload) != 2 * n * n * 8:
            raise ValueError("truncated kernel file: expected %d matrix bytes" % (2 * n * n * 8))
        _check_end(f, "kernel file")
    flat = np.frombuffer(payload, dtype="<f8")
    K = flat[: n * n].reshape(n, n).copy()
    Theta = flat[n * n :].reshape(n, n).copy()
    return KernelPair(K=K, Theta=Theta)
