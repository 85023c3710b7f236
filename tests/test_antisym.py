"""Antisymmetric projector, distinct-index spectral sums, determinant identities."""

import itertools
import math

import numpy as np
import pytest

from matfn import (
    antisym_projector,
    det_from_traces,
    distinct_tuple_sum,
    parse_field,
    wedge_basis,
    wedge_restrict,
)
from matfn.errors import MatfnError
from matfn.funcalc import jordan_matrix

rng = np.random.default_rng(83)


def brute_distinct_sum(f, eigvals, k):
    """Direct sum over ordered k-tuples of pairwise distinct indices."""
    total = 0.0 + 0.0j
    for combo in itertools.permutations(range(len(eigvals)), k):
        total += f(*(eigvals[i] for i in combo))
    return total


# ---------------------------------------------------------------- projector


@pytest.mark.parametrize("dim,k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_projector_idempotent_selfadjoint(dim, k):
    P = antisym_projector(dim, k).as_matrix()
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P, P.conj().T, atol=1e-12)


@pytest.mark.parametrize("dim,k", [(2, 2), (3, 2), (4, 2), (4, 4), (5, 3)])
def test_projector_trace_counts_subspace(dim, k):
    P = antisym_projector(dim, k).as_matrix()
    assert np.trace(P).real == pytest.approx(math.comb(dim, k), abs=1e-10)


@pytest.mark.parametrize("dim,k", [(2, 3), (3, 2), (3, 3), (4, 3)])
def test_projector_matches_signed_permutation_sum(dim, k):
    # (1/k!) sum_sigma sign(sigma) P_sigma, each P_sigma permuting the
    # tensor factors of the identity on (C^dim)^(x k)
    eye = np.eye(dim**k).reshape((dim,) * (2 * k))
    want = np.zeros((dim**k, dim**k))
    for perm in itertools.permutations(range(k)):
        sign = round(np.linalg.det(np.eye(k)[list(perm)]))
        P = eye.transpose(list(range(k)) + [k + p for p in perm])
        want += sign * P.reshape(dim**k, dim**k)
    want /= math.factorial(k)
    got = antisym_projector(dim, k).as_matrix()
    assert np.allclose(got, want, atol=1e-12)


def test_projector_zero_above_dimension():
    P = antisym_projector(2, 3).as_matrix()
    assert np.max(np.abs(P)) < 1e-14


def test_projector_kills_symmetric_vectors():
    P = antisym_projector(3, 2).as_matrix()
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.max(np.abs(P @ np.kron(v, v))) < 1e-12


# ------------------------------------------------------------- wedge basis


@pytest.mark.parametrize("dim,k", [(3, 2), (4, 2), (4, 3), (2, 3)])
def test_wedge_basis_orthonormal_and_spans_projector(dim, k):
    B = wedge_basis(dim, k)
    assert B.shape == (dim**k, math.comb(dim, k))
    assert np.allclose(B.conj().T @ B, np.eye(B.shape[1]), atol=1e-12)
    P = antisym_projector(dim, k).as_matrix()
    assert np.allclose(B @ B.conj().T, P, atol=1e-12)


# -------------------------------------------------------- distinct sums


def test_distinct_sum_known_values():
    # diag(1,2), f = x1*x2: 1*2 + 2*1 = 4
    got = distinct_tuple_sum(parse_field("x1*x2"), np.diag([1.0, 2.0]), 2)
    assert got == pytest.approx(4.0, abs=1e-10)
    # diag(1,2,3), f = x1+x2: sum over 6 ordered pairs = 2*2*(1+2+3) = 24
    got = distinct_tuple_sum(parse_field("x1 + x2"), np.diag([1.0, 2.0, 3.0]), 2)
    assert got == pytest.approx(24.0, abs=1e-10)
    # diag(1,2,3), f = x1*x2: 2*(1*2 + 1*3 + 2*3) = 22
    got = distinct_tuple_sum(parse_field("x1*x2"), np.diag([1.0, 2.0, 3.0]), 2)
    assert got == pytest.approx(22.0, abs=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_distinct_sum_matches_enumeration_random(k):
    M = rng.normal(size=(3, 3))
    eigvals = np.linalg.eigvals(M)
    f = parse_field({1: "x1^2", 2: "x1*x2 + x1", 3: "x1*x2*x3"}[k])
    got = distinct_tuple_sum(f, M, k)
    want = brute_distinct_sum(f, eigvals, k)
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_distinct_sum_repeated_eigenvalues():
    # Indices stay distinct even when the values coincide.
    M = np.diag([3.0, 3.0, 1.0])
    f = parse_field("x1*x2")
    want = brute_distinct_sum(f, [3.0, 3.0, 1.0], 2)  # 2*(9 + 3 + 3) = 30
    assert want == pytest.approx(30.0)
    got = distinct_tuple_sum(f, M, 2)
    assert got == pytest.approx(want, abs=1e-8)


def test_distinct_sum_defective_matrix():
    J = jordan_matrix([(0.8, 2), (2.0, 1)])
    Q = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    M = Q @ J @ np.linalg.inv(Q)
    f = parse_field("x1*x2 + x2")
    want = brute_distinct_sum(f, [0.8, 0.8, 2.0], 2)
    got = distinct_tuple_sum(f, M, 2)
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_distinct_sum_zero_above_dimension():
    got = distinct_tuple_sum(parse_field("x1*x2*x3"), np.diag([1.0, 2.0]), 3)
    assert got == 0


def test_distinct_sum_arity_guard():
    with pytest.raises(ValueError, match="arity"):
        distinct_tuple_sum(parse_field("x1*x2"), np.diag([1.0, 2.0]), 1)


# ----------------------------------------------------------- wedge matrix


def test_wedge_restrict_two_by_two():
    # On C^2 wedge C^2 the restriction is 1x1: the symmetrized value at
    # the increasing pair (lambda_1, lambda_2).
    W = wedge_restrict(parse_field("x1*x2"), np.diag([1.0, 2.0]), 2)
    assert W.shape == (1, 1)
    assert W[0, 0] == pytest.approx(2.0, abs=1e-10)


def test_wedge_restrict_eigenvalues_are_symmetrized_values():
    D = np.diag([1.0, 2.0, 4.0])
    # a non-normal but diagonalizable input with the same spectrum
    S = np.array([[1.0, 0.7, -0.4], [0.0, 1.0, 0.9], [0.3, 0.0, 1.0]])
    want = sorted([1 + 2, 1 + 4, 2 + 4])
    for M in (D, S @ D @ np.linalg.inv(S)):
        W = wedge_restrict(parse_field("x1 + x2"), M, 2)
        got = sorted(np.linalg.eigvals(W).real)
        assert np.allclose(got, want, atol=1e-10)


def test_wedge_restrict_k_above_dimension_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        wedge_restrict(parse_field("x1*x2*x3"), np.diag([1.0, 2.0]), 3)


# ------------------------------------------------------------ determinant


def test_det_from_traces_two_by_two_closed_form():
    M = rng.normal(size=(2, 2))
    want = 0.5 * (np.trace(M) ** 2 - np.trace(M @ M))
    assert det_from_traces(M) == pytest.approx(complex(want), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_det_from_traces_matches_numpy(d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    want = np.linalg.det(M)
    got = det_from_traces(M)
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_det_from_traces_singular():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert abs(det_from_traces(M)) < 1e-12


def test_wedge_basis_is_shared_and_read_only():
    B = wedge_basis(4, 2)
    assert wedge_basis(4, 2) is B
    with pytest.raises(ValueError):
        B[0, 0] = 1.0
    with pytest.raises(ValueError):
        B.real[:] = 0.0
    # a caller's copy is theirs to change; the shared basis is untouched
    C = np.array(B)
    C[:] = 0.0
    assert np.allclose(B.conj().T @ B, np.eye(math.comb(4, 2)))


def test_det_from_traces_beyond_the_float_range():
    # the traces are taken on M scaled by a power of two, which is exact
    assert det_from_traces(np.diag([1e100, 3e100])) == pytest.approx(3e200, rel=1e-15)
    assert det_from_traces(np.diag([1e-100, 3e-100])) == pytest.approx(3e-200, rel=1e-15)
    with pytest.raises(MatfnError, match="beyond the float range"):
        det_from_traces(np.diag([1e200, 1e200]))
