import dataclasses
import inspect
import struct
import tracemalloc

import numpy as np
import pytest

from ntkuq import (
    ArchitectureConfig,
    InputSet,
    KernelPair,
    build_kernel_pair,
    erf_deriv_pair_expectation,
    erf_pair_expectation,
    load_kernel_pair,
    save_kernel_pair,
)
from ntkuq import kernels
from ntkuq.finite_width import forward, init_network
from ntkuq.kernels import _erf_pair_matrices

from oracles import erf_deriv_product, erf_product, gauss_hermite_pair


def test_pair_expectation_independent_zero_mean():
    assert erf_pair_expectation(1.0, 0.0, 1.0) == 0.0


def test_pair_expectation_third():
    # quadrature oracle gives exactly 1/3 for this covariance
    assert erf_pair_expectation(0.5, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_pair_expectation_degenerate_unit():
    # frozen from the Gauss-Hermite oracle at (1, 1, 1)
    assert erf_pair_expectation(1.0, 1.0, 1.0) == pytest.approx(0.4645590544, abs=1e-9)


def test_pair_expectation_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(0, 3, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        v = erf_pair_expectation(a, c, b)
        assert -1.0 <= v <= 1.0


def test_pair_expectation_rejects_bad_covariance():
    with pytest.raises(ValueError):
        erf_pair_expectation(-0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        erf_pair_expectation(0.1, 1.0, 0.1)


def test_deriv_expectation_at_zero():
    assert erf_deriv_pair_expectation(0.0, 0.0, 0.0) == pytest.approx(4.0 / np.pi, abs=1e-14)


def test_deriv_expectation_uncorrelated():
    assert erf_deriv_pair_expectation(0.5, 0.0, 0.5) == pytest.approx(2.0 / np.pi, abs=1e-12)


def test_deriv_expectation_degenerate_unit():
    # frozen from the Gauss-Hermite oracle at (1, 1, 1)
    assert erf_deriv_pair_expectation(1.0, 1.0, 1.0) == pytest.approx(0.5694100347, abs=1e-9)


def test_deriv_expectation_rejects_nonpsd():
    with pytest.raises(ValueError):
        erf_deriv_pair_expectation(0.0, 0.6, 0.0)


def test_quadrature_equivalence_grid():
    for k_aa in (0.1, 0.5, 1.0, 2.0):
        for k_bb in (0.1, 0.5, 1.0, 2.0):
            for rho in (-0.9, 0.0, 0.9):
                k_ab = rho * np.sqrt(k_aa * k_bb)
                assert erf_pair_expectation(k_aa, k_ab, k_bb) == pytest.approx(
                    gauss_hermite_pair(erf_product, k_aa, k_ab, k_bb), abs=1e-8
                )
                assert erf_deriv_pair_expectation(k_aa, k_ab, k_bb) == pytest.approx(
                    gauss_hermite_pair(erf_deriv_product, k_aa, k_ab, k_bb), abs=1e-8
                )



def test_erf_pair_matrices_reject_negative_diagonal():
    # Every discriminant here is positive, so only the diagonal rule can fire.
    with pytest.raises(ValueError, match="diagonal"):
        _erf_pair_matrices(np.array([[-0.1, 0.0], [0.0, 1.0]]))


def test_erf_pair_matrices_reject_nonpositive_discriminant():
    # (1 + 0.2)^2 - 4 < 0: an arcsine argument beyond 1, raised, not clipped.
    bad = np.array([[0.1, 1.0], [1.0, 0.1]])
    embedded = np.eye(3)
    embedded[:2, :2] = bad
    for K in (bad, embedded):
        with pytest.raises(ValueError, match="discriminant"):
            _erf_pair_matrices(K)


def test_scalar_forms_are_the_matrix_entries():
    # Criterion 1's grid, as 2x2 blocks of one block-diagonal K: each scalar
    # form must give the bits of its entry in the matrix path.
    grid = [
        (k_aa, rho * np.sqrt(k_aa * k_bb), k_bb)
        for k_aa in (0.2, 0.7, 1.5)
        for k_bb in (0.2, 0.7, 1.5)
        for rho in (-0.9, -0.3, 0.3, 0.9)
    ]
    K = np.zeros((2 * len(grid), 2 * len(grid)))
    for i, (k_aa, k_ab, k_bb) in enumerate(grid):
        K[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[k_aa, k_ab], [k_ab, k_bb]]
    S, Sdot = _erf_pair_matrices(K)
    for i, (k_aa, k_ab, k_bb) in enumerate(grid):
        assert erf_pair_expectation(k_aa, k_ab, k_bb) == S[2 * i, 2 * i + 1]
        assert erf_deriv_pair_expectation(k_aa, k_ab, k_bb) == Sdot[2 * i, 2 * i + 1]

def test_first_layer_single_input():
    kp = build_kernel_pair(
        InputSet([[1.0, 1.0]]),
        ArchitectureConfig(depth=1, input_dim=2, lambda_b=10.0, lambda_w=1.0),
    )
    assert kp.K[0, 0] == pytest.approx(1.0)
    assert kp.Theta[0, 0] == pytest.approx(11.0)


def test_first_layer_orthogonal_inputs():
    X = np.array([[1.0, 0.0], [0.0, 1.0]]) * np.sqrt(2.0)
    kp = build_kernel_pair(
        InputSet(X), ArchitectureConfig(depth=1, input_dim=2, lambda_b=3.0, lambda_w=2.0)
    )
    assert kp.K[0, 1] == pytest.approx(0.0)
    assert kp.Theta[0, 1] == pytest.approx(3.0)


@pytest.mark.slow
def test_depth3_kernel_matches_wide_network_sampling():
    # Monte Carlo oracle: per-network estimate (1/n) sum_i s(z_i^(2),a) s(z_i^(2),b)
    # over 200 random width-4096 networks
    from scipy.special import erf as erf_fn

    rng = np.random.default_rng(3)
    d = 6
    X = rng.standard_normal((3, d))
    arch = ArchitectureConfig(depth=3, input_dim=d, hidden_width=4096, n_out=1)
    kp = build_kernel_pair(InputSet(X), arch)

    n_nets = 200
    estimates = np.empty((n_nets, 3, 3))
    for s in range(n_nets):
        net = init_network(arch, 9000 + s)
        z1 = X @ net.weights[0].T + net.biases[0]
        z2 = erf_fn(z1) @ net.weights[1].T + net.biases[1]
        a2 = erf_fn(z2)
        estimates[s] = a2 @ a2.T / arch.hidden_width
    emp = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(n_nets)
    assert np.all(np.abs(emp - kp.K) <= 3.0 * se)


def test_symmetry_and_psd_random_inputs():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 7))
    kp = build_kernel_pair(InputSet(X), ArchitectureConfig(depth=4, input_dim=7))
    assert np.array_equal(kp.K, kp.K.T)
    assert np.array_equal(kp.Theta, kp.Theta.T)
    w = np.linalg.eigvalsh(kp.K)
    assert w.min() >= -1e-9 * w.max()


def test_ntk_diagonal_lower_bound():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((8, 5))
    arch = ArchitectureConfig(depth=3, input_dim=5, lambda_b=2.0, lambda_w=1.5)
    prev = build_kernel_pair(InputSet(X), ArchitectureConfig(depth=2, input_dim=5, lambda_b=2.0, lambda_w=1.5))
    kp = build_kernel_pair(InputSet(X), arch)
    # step from layer 2 to 3 adds lambda_b/2 plus the two nonnegative terms
    lower = 2.0 / 2 + 1.5 * np.diag(kp.K)
    assert np.all(np.diag(kp.Theta) >= lower - 1e-12)
    assert np.all(np.diag(kp.Theta) >= np.diag(prev.Theta) * 0)  # sanity: finite


def test_duplicate_point_consistency():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((5, 4))
    Xdup = np.vstack([X, X[2]])
    kp = build_kernel_pair(InputSet(Xdup), ArchitectureConfig(depth=3, input_dim=4))
    np.testing.assert_array_equal(kp.K[2], kp.K[5])
    np.testing.assert_array_equal(kp.Theta[:, 2], kp.Theta[:, 5])


def test_kernel_pair_validation():
    with pytest.raises(ValueError):
        KernelPair(K=np.array([[0.0, 1.0], [0.5, 0.0]]), Theta=np.eye(2))
    with pytest.raises(ValueError):
        KernelPair(K=-np.eye(2), Theta=np.eye(2))


def test_kernel_pair_symmetry_tolerance():
    K = np.array([[1.0, 0.5], [0.5, 1.0]])
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="K is not symmetric"):
        KernelPair(K=K + 2e-12 * skew, Theta=K)
    with pytest.raises(ValueError, match="Theta is not symmetric"):
        KernelPair(K=K, Theta=K + 2e-12 * skew)
    near = K + 5e-13 * skew
    kp = KernelPair(K=near, Theta=near)
    for M in (kp.K, kp.Theta):
        np.testing.assert_array_equal(M, 0.5 * (near + near.T))
        assert np.array_equal(M, M.T)
    # an exactly symmetric matrix is kept as given; the caller's array stays writable
    kp = KernelPair(K=K, Theta=K)
    np.testing.assert_array_equal(kp.K, K)
    assert K.flags.writeable and not kp.K.flags.writeable and not kp.Theta.flags.writeable


@pytest.mark.parametrize("layout", ["C", "F", "column_slice", "column_step"])
def test_built_kernels_exactly_symmetric(layout):
    # For a column-step view, X X^T can come from a BLAS gemm rather than
    # syrk and need not be exactly symmetric (seen at 300 rows); scaled by
    # 100, its asymmetry exceeds KernelPair's 1e-12 tolerance at depth 1,
    # so build_kernel_pair must repair it, not pass it on.
    view = {
        "C": lambda B: np.ascontiguousarray(B[:, :16]),
        "F": lambda B: np.asfortranarray(B[:, :16]),
        "column_slice": lambda B: B[:, :16],
        "column_step": lambda B: B[:, ::3],
    }[layout]
    big = np.random.default_rng(12).standard_normal((300, 48))
    for scale in (1.0, 100.0):
        for depth in (1, 3):
            X = view(scale * big)
            kp = build_kernel_pair(InputSet(X), ArchitectureConfig(depth=depth, input_dim=16))
            assert np.array_equal(kp.K, kp.K.T) and np.array_equal(kp.Theta, kp.Theta.T)


def test_kernel_pair_rejects_nonfinite(tmp_path):
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    for K, Theta in ((nan, np.eye(2)), (np.eye(2), nan), (np.eye(2), np.diag([1.0, np.inf]))):
        with pytest.raises(ValueError, match="non-finite"):
            KernelPair(K=K, Theta=Theta)
    path = tmp_path / "nan.bin"
    path.write_bytes(struct.pack("<Q", 2) + np.concatenate([nan, np.eye(2)]).astype("<f8").tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        load_kernel_pair(path)


def test_kernel_build_in_place():
    # The in-place recursion gives the bits of the plain expressions below
    # and peaks below 3x the memory of the pair it returns.
    X = np.random.default_rng(14).standard_normal((300, 16))
    arch = ArchitectureConfig(depth=3, input_dim=16, lambda_b=0.5, lambda_w=2.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kp = build_kernel_pair(InputSet(X), arch)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3 * (kp.K.nbytes + kp.Theta.nbytes)
    K = X @ X.T / 16
    Theta = arch.lambda_b + arch.lambda_w * K
    for ell in (1, 2):
        outer = np.outer(1.0 + 2.0 * np.diag(K), 1.0 + 2.0 * np.diag(K))
        Sdot = (4.0 / np.pi) / np.sqrt(np.maximum(outer - 4.0 * K * K, 1e-300))
        S = (2.0 / np.pi) * np.arcsin(np.clip(2.0 * K / np.sqrt(outer), -1.0, 1.0))
        Theta = arch.lambda_b / ell + arch.lambda_w * S + Sdot * Theta
        K = S
    assert np.array_equal(kp.K, K) and np.array_equal(kp.Theta, Theta)


def _untiled_reference(X, arch):
    # The whole-matrix recursion, layer by layer, in plain expressions.
    K = X @ X.T / X.shape[1]
    Theta = arch.lambda_b + arch.lambda_w * K
    for ell in range(1, arch.depth):
        outer = np.outer(1.0 + 2.0 * np.diag(K), 1.0 + 2.0 * np.diag(K))
        Sdot = (4.0 / np.pi) / np.sqrt(outer - 4.0 * K * K)
        S = (2.0 / np.pi) * np.arcsin(np.clip(2.0 * K / np.sqrt(outer), -1.0, 1.0))
        Theta = arch.lambda_b / ell + arch.lambda_w * S + Sdot * Theta
        K = S
    return K, Theta


def test_tiled_build_matches_the_untiled_recursion():
    # Row counts around the block edges: one point, a partial block, exact
    # blocks, and a last block of one row.
    block = kernels._BLOCK_ROWS
    rng = np.random.default_rng(15)
    for n in (1, block - 1, block, block + 1, 2 * block + 1):
        X = rng.standard_normal((n, 6))
        for depth in range(1, 6):
            arch = ArchitectureConfig(depth=depth, input_dim=6, lambda_b=0.7, lambda_w=1.3)
            kp = build_kernel_pair(InputSet(X), arch)
            K, Theta = _untiled_reference(X, arch)
            assert np.array_equal(kp.K, K) and np.array_equal(kp.Theta, Theta), (n, depth)


def test_tiled_build_peaks_near_the_pair_it_returns():
    # The whole-matrix recursion peaked at 2.5x the pair; one block of rows
    # at a time holds only a few row blocks beyond it.
    X = np.random.default_rng(16).standard_normal((1296, 16))
    arch = ArchitectureConfig(depth=3, input_dim=16)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kp = build_kernel_pair(InputSet(X), arch)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * (kp.K.nbytes + kp.Theta.nbytes)


def test_input_set_rejects_nonfinite():
    with pytest.raises(ValueError):
        InputSet([[1.0, np.nan]])


def test_input_set_takes_2d_arrays_only():
    # rows are points: a 1-D array is neither one point nor a column, it is rejected
    for shape in [(40,), (2, 3, 4), (5, 0)]:
        with pytest.raises(ValueError, match=r"points shape \(%s" % shape[0]):
            InputSet(np.zeros(shape))


def test_kernel_pair_is_what_the_kernel_file_holds():
    assert [f.name for f in dataclasses.fields(KernelPair)] == ["K", "Theta"]
    assert list(inspect.signature(load_kernel_pair).parameters) == ["path"]


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 3))
    kp = build_kernel_pair(InputSet(X), ArchitectureConfig(depth=2, input_dim=3))
    path = tmp_path / "kernel.bin"
    save_kernel_pair(kp, path)
    loaded = load_kernel_pair(path)
    np.testing.assert_array_equal(loaded.K, kp.K)
    np.testing.assert_array_equal(loaded.Theta, kp.Theta)


def test_binary_truncation_detected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x03" + b"\x00" * 7 + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_kernel_pair(path)
    # A whole 3-point file followed by bytes its header does not promise.
    path.write_bytes(struct.pack("<Q", 3) + np.eye(3).tobytes() * 2 + b"\x00" * 64)
    with pytest.raises(ValueError, match="kernel file has bytes after"):
        load_kernel_pair(path)
