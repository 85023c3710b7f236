"""The antisymmetrizer and what the tensor extension does on it.

Pairing the extension of a symmetric function against the antisymmetric projector
turns sums over distinct eigenvalue index tuples into one contraction, and restricting
to the antisymmetric subspace diagonalizes the extension over increasing index
combinations. Both rest on the orthonormal wedge basis B, whose projector is B B^H.
Newton's identities take the determinant, the top exterior power, from the traces.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import MatfnError
from .funcalc import f_otimes
from .scalarfield import ScalarField
from .spectral import _binary_exponent, as_square_matrix
from .tensor import OperatorTensor, _sandwich, from_matrix

_DET_TOL = 1e-3  # det_from_traces refuses an error bound past this times its scale


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
    T = f_otimes(f, [A] * k)
    return _sandwich(T, wedge_basis(A.shape[0], k))


def distinct_tuple_sum(f: ScalarField, M, k: int) -> complex:
    """sum of f over k-tuples of distinct eigenvalue indices of M.

    Eigenvalues are counted with algebraic multiplicity and the indices,
    not the values, are pairwise distinct. Computed as k! times the full
    pairing of the extension T at k copies of M with the antisymmetric
    projector, which is k! tr(B^H T B) for the columns B of
    :func:`wedge_basis`; 0 for k > dim. :func:`~matfn.funcalc.f_otimes`
    routes T: a normal M takes its unitary eigenbasis, any other M the
    interpolation route, its spectrum analysed once for all k slots.
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
    """Determinant from the power-sum traces p_i = Tr M^i, i = 1, ..., d.

    Newton's identities k e_k = sum_{i<=k} (-1)^(i-1) e_{k-i} p_i, e_0 = 1,
    give det M = e_d in O(d^2) steps (Macdonald, ch. I sec. 2), on M times
    2^-e, whose largest entry is below 1, scaled back by 2^(ed), exactly. A
    running bound b_k on e_k's error comes along (Higham, *Accuracy and
    Stability*, 2002, sec. 3.3): p_i is off by at most delta_i = gamma (alpha
    sum_{0<j<i} ||M^j||_F ||M^(i-1-j)||_F + sum |diag M^i|), gamma = (d + 2)
    eps, alpha >= || |M| ||_2, and d e_k / d p_i = (-1)^(i-1) e_{k-i} / i, so
    b_k = sum_i (|e_{k-i}| + b_{k-i}) delta_i / i plus the step's rounding.
    A :class:`MatfnError` refuses b_d above ``_DET_TOL`` times a scale: the
    first term |e_{d-j}| t^j of det(M + tI) that the bounds keep from 0, t =
    max_i ((|p_i| - delta_i) / d)^(1/i) / d <= rho(M) / d. With j = 0 it is
    |det M| and the bound is relative; with j > 0 M may be singular, and the
    bound is absolute on that term's scale. Where no trace is kept from 0
    (t = 0, as for a nilpotent M) the scale is alpha^d >= |det M|. A
    determinant beyond the float range is refused too.
    """
    A = as_square_matrix(M)
    d = A.shape[0]
    e = _binary_exponent(A)
    A = A * math.ldexp(1.0, -e)
    n = np.arange(1, d + 1)
    gamma = (d + 2) * np.finfo(float).eps
    absA = np.abs(A)
    alpha = math.sqrt(absA.sum(axis=0).max(initial=0.0) * absA.sum(axis=1).max(initial=0.0))
    p = np.empty(d, complex)  # p[i] = (-1)^i p_(i+1)
    delta = np.empty(d)  # delta[i] = delta_(i+1) / (i + 1)
    norms = np.empty(d)  # norms[i] = ||A^i||_F
    P = np.eye(d, dtype=complex)
    E = np.ones(d + 1, complex)
    b = np.zeros(d + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(d):
            norms[i] = np.linalg.norm(P)
            P = P @ A
            diag = np.diagonal(P)
            carried = alpha * norms[1 : i + 1] @ norms[i::-1][1:]
            p[i] = diag.sum() * (-1) ** i
            delta[i] = gamma * (carried + abs(diag).sum()) / (i + 1)
        for k in range(1, d + 1):
            terms = E[k - 1 :: -1] * p[:k]
            E[k] = terms.sum() / k
            b[k] = (abs(E[k - 1 :: -1]) + b[k - 1 :: -1]) @ delta[:k] + gamma * abs(terms).sum() / k
        t = (((abs(p) - n * delta).clip(0.0) / d) ** (1 / n)).max(initial=0.0) / d
        certain = np.maximum(abs(E) - b, 0.0)[::-1] * t ** np.arange(d + 1)
        certain = certain[certain > 0]
        scale = certain[0] if certain.size else np.float64(alpha) ** d
        det = complex(np.ldexp(E[d:].view(float), e * d).view(complex)[0])  # e_d times 2^(ed)
    if not b[d] <= _DET_TOL * scale:
        raise MatfnError(f"the determinant of the {d}x{d} matrix from its traces has an error "
                         f"bound of {b[d]:.1e} at a value of {abs(E[d]):.1e}, past {_DET_TOL:g}")
    if not np.isfinite(det):
        raise MatfnError(f"the determinant of the {d}x{d} matrix is beyond the float range")
    return det
