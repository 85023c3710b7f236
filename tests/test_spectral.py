"""Clustered spectra and minimal-polynomial multiplicities."""

import warnings

import numpy as np
import pytest

from matfn import (
    SpectralData,
    SpectralError,
    analyze,
    matrix_function,
    minimal_polynomial,
    parse_field,
)
from matfn.funcalc import jordan_matrix
from matfn.spectral import DEFAULT_RANK_TOL, _rank_ladder


def companion(coeffs):
    """Companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0."""
    n = len(coeffs)
    C = np.zeros((n, n))
    C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = [-c for c in coeffs]
    return C


def test_cluster_merges_defective_double_root():
    # (x-1)^2 (x-3) = x^3 - 5x^2 + 7x - 3; the QR eigenvalues of its
    # companion matrix split the double root by a few 1e-8, which the
    # scale-relative threshold absorbs
    C = companion([-3.0, 7.0, -5.0])
    data = analyze(C)
    assert len(data.eigenvalues) == 2
    assert data.eigenvalues[0] == pytest.approx(1.0, abs=1e-7)
    assert data.eigenvalues[1] == pytest.approx(3.0, abs=1e-7)
    assert data.alg_mult == (2, 1)


def test_minimal_multiplicities_companion():
    C = companion([-3.0, 7.0, -5.0])
    data = analyze(C)
    assert data.alg_mult == (2, 1)
    assert data.min_mult == (2, 1)  # companion matrices are nonderogatory
    assert not data.is_diagonalizable


def test_minimal_vs_algebraic_on_block_diagonal():
    M = np.zeros((3, 3))
    M[0, 0] = M[1, 1] = M[2, 2] = 1.0
    M[0, 1] = 1.0
    data = analyze(M)
    assert data.eigenvalues == (1.0 + 0j,)
    assert data.alg_mult == (3,)
    assert data.min_mult == (2,)


def test_identity_is_diagonalizable():
    data = analyze(np.eye(4))
    assert data.alg_mult == (4,)
    assert data.min_mult == (1,)
    assert data.is_diagonalizable


def test_analyze_sorts_by_real_then_imag():
    M = np.diag([2.0, -1.0, 2.0, 0.5])
    data = analyze(M)
    assert data.eigenvalues == (-1.0 + 0j, 0.5 + 0j, 2.0 + 0j)
    assert data.alg_mult == (1, 1, 2)
    assert data.grid_entries() == [(-1.0 + 0j, 1), (0.5 + 0j, 1), (2.0 + 0j, 1)]


def test_conjugated_jordan_needs_looser_clustering():
    rng = np.random.default_rng(11)
    J = jordan_matrix([(1.0, 3)])
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    M = Q @ J @ Q.T
    # a triple defective eigenvalue splits by roughly the cube root of
    # machine precision under similarity; 1e-4 relative recovers it
    data = analyze(M, cluster_tol=1e-4)
    assert data.eigenvalues[0] == pytest.approx(1.0, abs=1e-6)
    assert data.alg_mult == (3,)
    assert data.min_mult == (3,)


def test_merged_cluster_is_one_eigenvalue():
    # 1e-9 apart is inside the cluster threshold 1e-8 * ||M||; the rank
    # ladder admits the cluster's own spread, so the centroid is an
    # eigenvalue of multiplicity one, decided without a fragility warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = analyze(np.diag([0.6, 0.6 + 1e-9, 2.0]))
    assert data.alg_mult == (2, 1)
    assert data.min_mult == (1, 1)
    assert data.eigenvalues[0] == pytest.approx(0.6, abs=1e-9)


def test_split_defective_eigenvalue_is_a_spectral_error():
    # 1e-14 in the corner of J4(1) splits it into four eigenvalues about
    # 3e-4 apart; each stays its own cluster and its rank ladder reads 2
    M = jordan_matrix([(1.0, 4), (2.5, 1)])
    M[3, 0] = 1e-14
    with pytest.warns(RuntimeWarning, match="within 10x"):
        with pytest.raises(SpectralError, match="holds 1 eigenvalue.*multiplicity 2"):
            analyze(M)


def test_nearby_simple_eigenvalues_stay_eigenvalues():
    # sigma_max(M - I) is only 1e-7, so a threshold relative to it alone
    # falls below the rounding residual of the computed eigenvalue and the
    # shift read as full rank; the eps ||M|| floor keeps it singular
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
    lams = np.array([1.0, 1.0 + 1e-7])
    M = Q @ np.diag(lams) @ Q.T
    data = analyze(M)
    assert data.alg_mult == (1, 1) and data.min_mult == (1, 1)
    assert np.allclose(data.eigenvalues, lams, rtol=0, atol=1e-14)
    F = matrix_function(parse_field("exp(x1)"), M)
    want = Q @ np.diag(np.exp(lams)) @ Q.T
    # a difference quotient across the gap loses eps/gap: about 2e-9
    assert np.linalg.norm(F - want) <= 2.2e-9 * np.linalg.norm(want)


def test_minimal_multiplicities_rejects_non_eigenvalue():
    # the rank ladder's guard: a centroid where M - c I has full rank
    A = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(SpectralError, match="not an eigenvalue"):
        _rank_ladder(A, [(5.0, 0.0)], DEFAULT_RANK_TOL)


def test_eigen_cluster_swap_matrix():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    data = analyze(M)
    assert data.alg_mult == (1, 1)
    assert data.eigenvalues[0] == pytest.approx(-1.0)
    assert data.eigenvalues[1] == pytest.approx(1.0)


def test_spectral_data_invariants():
    with pytest.raises(ValueError):
        SpectralData(
            eigenvalues=(1.0 + 0j,), alg_mult=(1,), min_mult=(2,), dim=1
        )
    with pytest.raises(ValueError):
        SpectralData(
            eigenvalues=(1.0 + 0j, 2.0 + 0j),
            alg_mult=(1, 1),
            min_mult=(1, 1),
            dim=3,
        )


def test_minimal_polynomial_coefficients():
    M = np.zeros((3, 3))
    M[0, 0] = M[1, 1] = 1.0
    M[0, 1] = 1.0
    M[2, 2] = 3.0
    mu = minimal_polynomial(analyze(M))
    # (x-1)^2 (x-3) = x^3 - 5x^2 + 7x - 3
    assert mu.coeffs[(3,)] == pytest.approx(1.0)
    assert mu.coeffs[(2,)] == pytest.approx(-5.0)
    assert mu.coeffs[(1,)] == pytest.approx(7.0)
    assert mu.coeffs[(0,)] == pytest.approx(-3.0)
    # and it annihilates the matrix
    P = mu.coeffs[(3,)] * np.linalg.matrix_power(M, 3)
    P += mu.coeffs[(2,)] * np.linalg.matrix_power(M, 2)
    P += mu.coeffs[(1,)] * M + mu.coeffs[(0,)] * np.eye(3)
    assert np.linalg.norm(P) < 1e-12


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        analyze(np.ones((2, 3)))
