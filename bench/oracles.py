"""Reference values computed without the package's construction routes.

Each oracle returns ``(value, kappa)``: the reference and an estimate of
its own rounding-error amplification, so that a tolerance can be fixed
as a multiple of the oracle's accuracy (see ``tolerance``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS = float(np.finfo(float).eps)

#: A result passes when its relative error is within this many times the
#: oracle's own estimated rounding error (eps * kappa).
TOL_FACTOR = 1e7


def tolerance(kappa: float) -> float:
    return TOL_FACTOR * EPS * max(kappa, 1.0)


def rel_err(got, ref) -> float:
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if got.shape != ref.shape:
        return math.inf
    if not np.all(np.isfinite(got)):
        return math.inf
    return float(np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300))


# ---------------------------------------------------------------------------
# tensor extensions of structured arguments


def _slot_factors(st):
    """Per-functional eigenvalue, order and embedded matrix S N^j S^-1."""
    lams, orders, mats = [], [], []
    d = st.dim
    S, Sinv = st.S, st.S_inv()
    at = 0
    for lam, size in st.blocks:
        for j in range(size):
            E = np.zeros((d, d), dtype=complex)
            for i in range(size - j):
                E[at + i, at + i + j] = 1.0
            if S is not None:
                E = S @ E @ Sinv
            lams.append(lam)
            orders.append(j)
            mats.append(E)
        at += size
    return lams, orders, np.array(mats)


def tensor_extension(family, structs):
    """f^(x)(M_1, ..., M_k) for M_l = S_l J_l S_l^-1, entrywise closed forms.

    On a Jordan block the extension is sum_j f^(j)(lam)/j! N^j per slot,
    so the tensor is the sum over functional tuples of the scaled mixed
    partial times the outer product of the embedded nilpotent powers.
    """
    factors = [_slot_factors(st) for st in structs]
    shape = tuple(len(f[0]) for f in factors)
    D = np.empty(shape, dtype=complex)
    for idx in itertools.product(*(range(n) for n in shape)):
        orders = tuple(factors[l][1][a] for l, a in enumerate(idx))
        pts = tuple(factors[l][0][a] for l, a in enumerate(idx))
        scale = 1.0
        for j in orders:
            scale *= math.factorial(j)
        D[idx] = family.partial(orders, pts) / scale
    T = D
    for l, (_, _, mats) in enumerate(factors):
        # contract the leading functional axis with slot l's matrices; the
        # new (up, down) pair goes to the back, which after k steps leaves
        # the axes in slot order
        T = np.tensordot(T, mats, axes=([0], [0]))
    kappa = 1.0
    for st in structs:
        kappa *= st.dim * st.condition()
    return T, kappa


def matrix_view(T) -> np.ndarray:
    k = T.ndim // 2
    perm = [2 * l for l in range(k)] + [2 * l + 1 for l in range(k)]
    n = int(np.prod([T.shape[2 * l] for l in range(k)]))
    return np.transpose(T, perm).reshape(n, n)


# ---------------------------------------------------------------------------
# derivatives along a line, for the resolvent family


def resolvent_curve(A, H, c: float, n: int):
    """d^n/dz^n (A + zH + c)^-1 at z = 0, which is (-1)^n n! R (H R)^n."""
    d = A.shape[0]
    B = A + c * np.eye(d)
    R = np.linalg.inv(B)
    out = R
    for _ in range(n):
        out = out @ H @ R
    kappa = float(np.linalg.cond(B)) ** (n + 1) * d
    return (-1) ** n * math.factorial(n) * out, kappa


# ---------------------------------------------------------------------------
# eigenvalue and projector derivatives by contour integrals

CONTOUR_POINTS = 64


def _contour_terms(A, H, lam, radius, n):
    """The contour points w and the weighted terms R(w) (H R(w))^n, stacked."""
    d = A.shape[0]
    e = np.exp(2j * np.pi * np.arange(CONTOUR_POINTS) / CONTOUR_POINTS)
    w = lam + radius * e
    R = np.linalg.inv(w[:, None, None] * np.eye(d) - A)
    X = R
    for _ in range(n):
        X = X @ H @ R
    # dw / (2 pi i) = radius e dt / (2 pi) for the trapezoid step
    return w, X * (radius * e / CONTOUR_POINTS)[:, None, None]


def projector_derivative(A, H, lam, radius, n):
    """d^n/dz^n of the spectral projector of the simple eigenvalue ``lam``.

    P(z) = (1/2 pi i) closed integral of (w - A - zH)^-1 dw, and the n-th
    derivative of the resolvent is n! R (H R)^n. The trapezoid rule on a
    circle converges geometrically; radius is half the gap to the nearest
    other eigenvalue, so the error decays like 2^-points.
    """
    _, terms = _contour_terms(A, H, lam, radius, n)
    total = terms.sum(axis=0)
    kappa = np.linalg.norm(terms, axis=(1, 2)).sum() / max(np.linalg.norm(total), 1e-300)
    return math.factorial(n) * total, kappa * A.shape[0]


def eigenvalue_derivative(A, H, lam, radius, n):
    """d^n/dz^n of the simple eigenvalue: (1/2 pi i) closed integral of w Tr R(w, z)."""
    w, X = _contour_terms(A, H, lam, radius, n)
    terms = w * np.trace(X, axis1=1, axis2=2)
    total = terms.sum()
    kappa = np.abs(terms).sum() / max(abs(total), 1e-300)
    return math.factorial(n) * total, kappa * A.shape[0]


# ---------------------------------------------------------------------------
# antisymmetric pairings


def distinct_tuple_sum(family, eigenvalues, k):
    """Brute force over ordered k-tuples of distinct eigenvalue indices."""
    total = 0j
    mags = 0.0
    for idx in itertools.permutations(range(len(eigenvalues)), k):
        v = complex(family(*(eigenvalues[i] for i in idx)))
        total += v
        mags += abs(v)
    return total, mags / max(abs(total), 1e-300) * len(eigenvalues)


def wedge_basis(d: int, k: int) -> np.ndarray:
    """Orthonormal antisymmetrized basis vectors, increasing tuples in lexicographic order."""
    strides = [d ** (k - 1 - l) for l in range(k)]
    cols = []
    for combo in itertools.combinations(range(d), k):
        v = np.zeros(d**k, dtype=complex)
        for perm in itertools.permutations(range(k)):
            inversions = sum(
                1 for a, b in itertools.combinations(range(k), 2) if perm[a] > perm[b]
            )
            v[sum(combo[perm[l]] * s for l, s in enumerate(strides))] += (-1) ** inversions
        cols.append(v / math.sqrt(math.factorial(k)))
    return np.column_stack(cols)


def wedge_restrict(T, d: int, k: int):
    """B^H T B on the wedge space; B spans the antisymmetric subspace."""
    B = wedge_basis(d, k)
    return B.conj().T @ matrix_view(T) @ B
