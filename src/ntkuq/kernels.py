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


@dataclass(frozen=True)
class InputSet:
    """A set of input vectors, rows = examples, columns = features."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError("points must be a 2D array with >= 1 feature")
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
        if self.lambda_w <= 0:
            raise ValueError("lambda_w must be > 0")
        if self.lambda_b < 0:
            raise ValueError("lambda_b must be >= 0")


def _symmetric(M, name, tol):
    """M if exactly symmetric (as a view, not a copy), else (M + M^T)/2 within tol."""
    if np.array_equal(M, M.T):
        return M.view()
    if np.max(np.abs(M - M.T), initial=0.0) > tol:
        raise ValueError("%s is not symmetric within %g" % (name, tol))
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class KernelPair:
    """Layer-L kernel K and NTK Theta over a fixed ordering of inputs."""

    K: np.ndarray
    Theta: np.ndarray
    layer: int

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


def _check_pair_covariance(k_aa, k_ab, k_bb):
    if k_aa < 0 or k_bb < 0:
        raise ValueError("diagonal covariance entries must be >= 0")
    if k_ab * k_ab > k_aa * k_bb + _ARCSIN_CLAMP_TOL:
        raise ValueError(
            "2x2 covariance [%g, %g; %g, %g] is not positive semidefinite"
            % (k_aa, k_ab, k_ab, k_bb)
        )


def erf_pair_expectation(k_aa, k_ab, k_bb):
    """Gaussian expectation of erf(u_a) erf(u_b) under a 2x2 covariance.

    Closed form: (2/pi) * arcsin(2 k_ab / sqrt((1 + 2 k_aa)(1 + 2 k_bb))).
    """
    _check_pair_covariance(k_aa, k_ab, k_bb)
    arg = 2.0 * k_ab / np.sqrt((1.0 + 2.0 * k_aa) * (1.0 + 2.0 * k_bb))
    if abs(arg) > 1.0:
        if abs(arg) > 1.0 + _ARCSIN_CLAMP_TOL:
            raise ValueError("arcsine argument %g outside [-1, 1]" % arg)
        arg = np.clip(arg, -1.0, 1.0)
    return (2.0 / np.pi) * np.arcsin(arg)


def erf_deriv_pair_expectation(k_aa, k_ab, k_bb):
    """Gaussian expectation of erf'(u_a) erf'(u_b) under a 2x2 covariance.

    Closed form: (4/pi) / sqrt((1 + 2 k_aa)(1 + 2 k_bb) - 4 k_ab^2).
    """
    _check_pair_covariance(k_aa, k_ab, k_bb)
    disc = (1.0 + 2.0 * k_aa) * (1.0 + 2.0 * k_bb) - 4.0 * k_ab * k_ab
    if disc <= 0:
        raise ValueError("non-positive discriminant %g (covariance not PSD)" % disc)
    return (4.0 / np.pi) / np.sqrt(disc)


def _erf_pair_matrices(K):
    # Vectorized erf_pair_expectation and erf_deriv_pair_expectation, each
    # built in one buffer by in-place steps in the scalar forms' order; once
    # Sdot is done, their shared outer product becomes S's denominator in place.
    d = 1.0 + 2.0 * np.diag(K)
    outer = np.outer(d, d)
    # Round-off on degenerate pairs (duplicated points) can push the
    # discriminant slightly below its exact positive value.
    Sdot = np.multiply(4.0, K)
    Sdot *= K
    np.subtract(outer, Sdot, out=Sdot)
    np.maximum(Sdot, 1e-300, out=Sdot)
    np.sqrt(Sdot, out=Sdot)
    np.divide(4.0 / np.pi, Sdot, out=Sdot)
    S = np.multiply(2.0, K)
    S /= np.sqrt(outer, out=outer)
    np.clip(S, -1.0, 1.0, out=S)
    np.arcsin(S, out=S)
    S *= 2.0 / np.pi
    return S, Sdot


def build_kernel_pair(inputs, arch):
    """Build the depth-L kernel and NTK matrices over all input pairs.

    Layer 1: K = X X^T / n_0, Theta = lambda_b + lambda_w * K.
    Each recursion step ell -> ell+1 (ell = 1 .. L-1) applies the erf
    pair expectations and adds the per-layer bias scale lambda_b / ell.
    """
    if not isinstance(inputs, InputSet):
        inputs = InputSet(inputs)
    X = inputs.points
    n0 = inputs.input_dim
    K = X @ X.T / n0
    # Only a BLAS gemm (some strided X), not syrk, can make X X^T asymmetric.
    gram_symmetric = np.array_equal(K, K.T)
    Theta = arch.lambda_b + arch.lambda_w * K
    for ell in range(1, arch.depth):
        S, Sdot = _erf_pair_matrices(K)
        # Theta <- (lambda_b / ell + lambda_w * S) + Sdot * Theta, in place:
        # Sdot * Theta first, then the bias-and-S term into Sdot's buffer.
        Theta *= Sdot
        np.multiply(arch.lambda_w, S, out=Sdot)
        Sdot += arch.lambda_b / ell
        Theta += Sdot
        del Sdot  # freed before the next layer allocates its temporaries
        K = S
    if not gram_symmetric:
        K, Theta = 0.5 * (K + K.T), 0.5 * (Theta + Theta.T)
    return KernelPair(K=K, Theta=Theta, layer=arch.depth)


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


def load_kernel_pair(path, layer=0):
    """Read a KernelPair from the flat binary layout of save_kernel_pair."""
    with open(path, "rb") as f:
        header = f.read(8)
        if len(header) != 8:
            raise ValueError("truncated kernel file: missing count header")
        (n,) = struct.unpack("<Q", header)
        payload = f.read(2 * n * n * 8)
    if len(payload) != 2 * n * n * 8:
        raise ValueError("truncated kernel file: expected %d matrix bytes" % (2 * n * n * 8))
    flat = np.frombuffer(payload, dtype="<f8")
    K = flat[: n * n].reshape(n, n).copy()
    Theta = flat[n * n :].reshape(n, n).copy()
    return KernelPair(K=K, Theta=Theta, layer=layer)
