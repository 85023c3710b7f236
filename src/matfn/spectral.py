"""Eigenvalue clustering and minimal-polynomial multiplicities.

Computed spectra of nearby-defective matrices scatter; every consumer in
this package goes through the clustering here so that one tolerance
discipline decides what counts as a single eigenvalue.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SpectralError
from .scalarfield import MultiPoly

#: Eigenvalues within this times ||M||_F are one (:func:`cluster_threshold`);
#: ``derived_spectrum`` merges its values with the same relative tolerance.
DEFAULT_CLUSTER_TOL = 1e-8
#: The package's relative zero. The rank ladder counts singular values of
#: (M - c I)^j below this times sigma_max^j as zero, and
#: ``commuting_swap_check`` counts a commutator below this times
#: ||M_p|| ||M_q|| as zero; changing it moves both decisions.
DEFAULT_RANK_TOL = 1e-10


def as_square_matrix(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def hs_norm(A) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(A)))


def _describe(M: np.ndarray) -> str:
    return np.array2string(M, precision=4, suppress_small=True, threshold=16)


@dataclass(frozen=True)
class SpectralData:
    """Clustered spectrum of one matrix.

    ``eigenvalues`` are cluster centroids sorted by (real, imag);
    ``alg_mult`` counts computed eigenvalues per cluster; ``min_mult`` is
    the multiplicity of each eigenvalue in the minimal polynomial (1 for
    every eigenvalue iff the matrix is diagonalizable).
    """

    eigenvalues: tuple[complex, ...]
    alg_mult: tuple[int, ...]
    min_mult: tuple[int, ...]
    dim: int

    def __post_init__(self):
        if not (len(self.eigenvalues) == len(self.alg_mult) == len(self.min_mult)):
            raise ValueError("spectral data fields have mismatched lengths")
        if sum(self.alg_mult) != self.dim:
            raise ValueError("algebraic multiplicities must sum to the dimension")
        for s, r in zip(self.alg_mult, self.min_mult):
            if not 1 <= r <= s:
                raise ValueError(f"minimal multiplicity {r} outside [1, {s}]")

    @property
    def is_diagonalizable(self) -> bool:
        return all(r == 1 for r in self.min_mult)

    def grid_entries(self) -> list[tuple[complex, int]]:
        """(eigenvalue, multiplicity) pairs in the stored order."""
        return list(zip(self.eigenvalues, self.min_mult))


def merge_clusters(values, threshold: float) -> list[list[int]]:
    """Index groups of ``values`` whose centroids are pairwise beyond ``threshold``.

    Starting from singletons, the first pair of clusters (in index order)
    whose centroids lie within ``threshold`` is merged and the scan
    restarts, until no pair is that close.
    """
    groups = [[i] for i in range(len(values))]
    merged = True
    while merged and len(groups) > 1:
        merged = False
        cents = [sum(values[i] for i in g) / len(g) for g in groups]
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                if abs(cents[a] - cents[b]) <= threshold:
                    groups[a].extend(groups[b])
                    del groups[b]
                    merged = True
                    break
            if merged:
                break
    return groups


def cluster_threshold(A, tol: float = DEFAULT_CLUSTER_TOL) -> float:
    """Distance within which eigenvalues of ``A`` are one: ``tol * ||A||_HS``."""
    return float(tol) * hs_norm(A)


def _clusters(A: np.ndarray, tol: float) -> list[tuple[complex, int, float]]:
    """(centroid, count, radius) of each eigenvalue cluster, sorted by (real, imag).

    The radius is the largest distance of a member from its centroid.
    """
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(
            f"eigenvalue iteration failed for matrix\n{_describe(A)}"
        ) from exc
    rows = []
    for g in merge_clusters(w, cluster_threshold(A, tol)):
        c = complex(sum(w[i] for i in g) / len(g))
        rows.append((c, len(g), max(abs(w[i] - c) for i in g)))
    return sorted(rows, key=lambda p: (p[0].real, p[0].imag))


def _rank_ladder(A: np.ndarray, clusters, rank_tol: float) -> tuple[int, ...]:
    """Minimal multiplicity of each (centroid, radius) pair in ``clusters``.

    For each centroid c the rank of (A - c I)^j is tracked until it
    stabilizes; the first stable power is the multiplicity. Ranks count
    singular values above ``rank_tol * sigma_max(A - c I)^j``, the scale a
    j-fold product can reach, so that numerically nilpotent powers read as
    rank zero, floored at the rounding residual 100 eps ||A||_F
    sigma_max^(j-1), so that a shift with a tiny sigma_max (an eigenvalue
    near another) still reads as singular. A singular value within a
    factor 10 of the threshold triggers a warning since the decision is
    then fragile.
    """
    d = A.shape[0]
    residual = 100 * np.finfo(float).eps * hs_norm(A)
    out = []
    for lam, radius in clusters:
        B = A - complex(lam) * np.eye(d)
        s = np.linalg.svd(B, compute_uv=False)
        sigma1 = float(s[0])
        if sigma1 == 0.0:
            out.append(1)  # B = 0, the eigenvalue is the whole spectrum
            continue

        def rank_of(s, j):
            # A cluster of spread ``radius`` is one eigenvalue, so its own
            # singular values, about radius^j at power j, count as zero.
            thr = max(rank_tol * sigma1**j, residual * sigma1 ** (j - 1), (100 * radius) ** j)
            fragile = np.any((s > thr / 10) & (s < thr * 10))
            if fragile:
                warnings.warn(
                    f"rank decision for eigenvalue {lam} at power {j} is within "
                    f"10x of the threshold {thr:.3e}",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return int(np.count_nonzero(s > thr))

        prev = rank_of(s, 1)
        if prev == d:
            raise SpectralError(
                f"{lam} is not an eigenvalue of the matrix (full-rank shift)"
            )
        P = B
        r = None
        for j in range(1, d + 1):
            P = P @ B
            cur = rank_of(np.linalg.svd(P, compute_uv=False), j + 1)
            if cur == prev:
                r = j
                break
            prev = cur
        out.append(r if r is not None else d)
    return tuple(out)


def analyze(
    M,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> SpectralData:
    """Cluster the spectrum and attach minimal-polynomial multiplicities.

    This is the one place where the package decides what counts as a
    single eigenvalue; every other routine takes that decision from here
    or from ``spectra=`` data built with it. The rank threshold of a
    cluster is at least (100 radius)^j at power j; since the smallest
    singular value of M - c I is at most the radius, a merged cluster
    always reads as an eigenvalue. A cluster whose rank ladder still
    exceeds its algebraic multiplicity raises :class:`SpectralError`.
    """
    A = as_square_matrix(M)
    rows = _clusters(A, cluster_tol)
    mins = _rank_ladder(A, [(c, radius) for c, _, radius in rows], rank_tol)
    for (lam, s, _), r in zip(rows, mins):
        if r > s:
            raise SpectralError(
                f"cluster at {lam:.6g} holds {s} eigenvalue(s) but its rank ladder "
                f"gives minimal multiplicity {r}; a defective eigenvalue was split"
            )
    return SpectralData(
        eigenvalues=tuple(c for c, _, _ in rows),
        alg_mult=tuple(n for _, n, _ in rows),
        min_mult=mins,
        dim=A.shape[0],
    )


def minimal_polynomial(data: SpectralData) -> MultiPoly:
    """prod_m (x - lam_m)^{r_m} as a univariate polynomial."""
    poly = MultiPoly(1, {(0,): 1.0})
    for lam, r in zip(data.eigenvalues, data.min_mult):
        factor = MultiPoly(1, {(1,): 1.0, (0,): -lam})
        for _ in range(r):
            poly = poly * factor
    return poly
