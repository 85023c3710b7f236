"""The antisymmetrizer and what the tensor extension does on it.

Pairing the extension of a symmetric function against the antisymmetric
projector turns sums over distinct eigenvalue index tuples into a single
contraction, and restricting to the antisymmetric subspace diagonalizes
the extension over increasing index combinations. Both rest on the
orthonormal wedge basis B, whose projector is B B^H. The determinant
expansion in power-sum traces drops out of the top exterior power.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import MatfnError
from .funcalc import f_otimes
from .scalarfield import ScalarField
from .spectral import _binary_exponent, analyze, as_square_matrix
from .tensor import OperatorTensor, _sandwich, from_matrix


def _perm_sign(perm) -> int:
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def wedge_basis(dim: int, k: int) -> np.ndarray:
    """Orthonormal wedge vectors as columns, one per increasing tuple.

    Column order is lexicographic in the index tuples; each column lives
    in C^(dim^k) with the row index running over plain product tuples.
    For k > dim there are no increasing tuples and the shape is
    (dim^k, 0). The basis is built once per (dim, k) and shared, so it is
    read-only.
    """
    if dim < 1 or k < 1:
        raise ValueError("dim and k must be positive")
    return _wedge_basis(dim, k)


@functools.lru_cache(maxsize=64)
def _wedge_basis(dim: int, k: int) -> np.ndarray:
    strides = [dim ** (k - 1 - l) for l in range(k)]
    norm = 1.0 / math.sqrt(math.factorial(k))
    perms = [(perm, _perm_sign(perm)) for perm in itertools.permutations(range(k))]
    B = np.zeros((dim**k, math.comb(dim, k)), dtype=complex)
    for col, combo in enumerate(itertools.combinations(range(dim), k)):
        for perm, sign in perms:
            B[sum(combo[p] * s for p, s in zip(perm, strides)), col] = sign * norm
    B.setflags(write=False)
    return B


def antisym_projector(dim: int, k: int) -> OperatorTensor:
    """Orthogonal projector of (C^dim)^(x k) onto the antisymmetric part.

    Built as B B^H from the orthonormal columns B of :func:`wedge_basis`.
    Idempotent, self-adjoint in the matrix view, with trace binom(dim, k);
    identically zero for k > dim.
    """
    B = wedge_basis(dim, k)
    return from_matrix(B @ B.conj().T, (dim,) * k)


def _wedge_block(f: ScalarField, A: np.ndarray, k: int):
    """B^H T B: the extension T of f at k copies of A, on the wedge basis B.

    The projector is B B^H and fixes B, so this is also B^H Pi T Pi B.
    """
    if f.arity != k:
        raise ValueError(f"field arity {f.arity} does not match k = {k}")
    sd = analyze(A)
    T = f_otimes(f, [A] * k, spectra=[sd] * k)
    return _sandwich(T, wedge_basis(A.shape[0], k))


def distinct_tuple_sum(f: ScalarField, M, k: int) -> complex:
    """sum of f over k-tuples of distinct eigenvalue indices of M.

    Eigenvalues are counted with algebraic multiplicity and the indices,
    not the values, are pairwise distinct. Computed as k! times the full
    pairing of the tensor extension at k copies of M with the
    antisymmetric projector, which is k! tr(B^H T B) for the columns B of
    :func:`wedge_basis`; 0 for k > dim.
    """
    A = as_square_matrix(M)
    W = _wedge_block(f, A, k)
    return math.factorial(k) * complex(np.trace(W))


def wedge_restrict(f: ScalarField, M, k: int) -> np.ndarray:
    """Matrix of the projected extension on the antisymmetric subspace.

    Rows and columns follow the lexicographic increasing-tuple basis of
    :func:`wedge_basis`. For diagonalizable M the eigenvalues of the
    result are the symmetrized values of f over increasing eigenvalue
    tuples.
    """
    A = as_square_matrix(M)
    if k > A.shape[0]:
        raise ValueError(f"k = {k} exceeds the dimension {A.shape[0]}")
    return _wedge_block(f, A, k)


def det_from_traces(M) -> complex:
    """Determinant from the power-sum traces Tr M, Tr M^2, ..., Tr M^d.

    The expansion runs over multisets of cycle lengths: each exponent
    vector (a_1, ..., a_d) with sum i a_i = d contributes
    (-1)^(d - sum a_i) / prod(a_i! i^{a_i}) prod Tr(M^i)^{a_i}.
    It runs on M times 2^-e, whose largest entry is below 1, and scales the
    sum back by 2^(ed). Both steps are exact, so the scaling only turns an
    overflow into a value or, for a determinant beyond the float range,
    into a :class:`MatfnError`.
    """
    A = as_square_matrix(M)
    d = A.shape[0]
    e = _binary_exponent(A)
    A = A * math.ldexp(1.0, -e)
    traces = []
    P = np.eye(d, dtype=complex)
    for _ in range(d):
        P = P @ A
        traces.append(complex(np.trace(P)))

    total = 0j
    for counts in _cycle_type_vectors(d):
        weight = 1.0
        power = 1.0 + 0j
        parts = 0
        for i, a in enumerate(counts, start=1):
            weight *= math.factorial(a) * i**a
            power *= traces[i - 1] ** a
            parts += a
        total += (-1) ** (d - parts) / weight * power
    try:
        return complex(math.ldexp(total.real, e * d), math.ldexp(total.imag, e * d))
    except OverflowError:
        raise MatfnError(
            f"the determinant of the {d}x{d} matrix is beyond the float range"
        ) from None


def _cycle_type_vectors(d: int):
    """All (a_1, ..., a_d) with sum i a_i = d."""

    def rec(i, remaining):
        if i > d:
            if remaining == 0:
                yield ()
            return
        for a in range(remaining // i + 1):
            for rest in rec(i + 1, remaining - a * i):
                yield (a,) + rest

    yield from rec(1, d)
