"""Eigenvalue clustering and minimal-polynomial multiplicities.

Computed spectra of nearby-defective matrices scatter; every consumer in
this package goes through the clustering here so that one tolerance
discipline decides what counts as a single eigenvalue.
"""

from __future__ import annotations

import itertools
import os
import sys
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

# the code objects of the package's modules carry this prefix as co_filename
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


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


def _eigvals(A: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(
            f"eigenvalue iteration failed for matrix\n{_describe(A)}"
        ) from exc


def _clusters(A: np.ndarray, w, tol: float) -> list[tuple[complex, int, float]]:
    """(centroid, count, radius) of each cluster of the eigenvalues ``w`` of ``A``.

    Sorted by (real, imag); the radius is the largest distance of a
    member from its centroid.
    """
    rows = []
    for g in merge_clusters(w, cluster_threshold(A, tol)):
        c = complex(sum(w[i] for i in g) / len(g))
        rows.append((c, len(g), max(abs(w[i] - c) for i in g)))
    return sorted(rows, key=lambda p: (p[0].real, p[0].imag))


def _outside_package() -> int:
    """The ``stacklevel`` that names the first frame outside this package.

    Counted as ``warnings.warn`` counts it when called by the caller of
    this function (level 1).
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def _power_svals(A: np.ndarray, lam: complex, start: int):
    """Singular values of (A - lam I)^j, as lists, for j = start, start + 1, ..."""
    B = A - complex(lam) * np.eye(A.shape[0])
    P = B
    for _ in range(start - 1):
        P = P @ B
    while True:
        yield np.linalg.svd(P, compute_uv=False).tolist()
        P = P @ B


def _rank_ladder(A: np.ndarray, clusters, rank_tol: float, known=None) -> tuple[int, ...]:
    """Minimal multiplicity of each (centroid, radius) pair in ``clusters``.

    For each centroid c the rank of (A - c I)^j is tracked until it
    stabilizes; the first stable power is the multiplicity. Ranks count
    singular values above ``rank_tol * sigma_max(A - c I)^j``, the scale a
    j-fold product can reach, so that numerically nilpotent powers read as
    rank zero, floored at the rounding residual 100 eps ||A||_F
    sigma_max^(j-1), so that a shift with a tiny sigma_max (an eigenvalue
    near another) still reads as singular. A singular value within a
    factor 10 of the threshold triggers a warning since the decision is
    then fragile; it names the first caller outside this package.

    ``known[m]``, if given, lists the singular values of the first powers
    of cluster m (:func:`_analyze_all` computes powers 1 ... count + 1 of
    every cluster in one call); any further power is computed here, one
    at a time, so the decisions and warnings are those of a ladder that
    computes every power itself.
    """
    d = A.shape[0]
    residual = 100 * np.finfo(float).eps * hs_norm(A)
    out = []
    for m, (lam, radius) in enumerate(clusters):
        rows = () if known is None else known[m]
        svals = itertools.chain(rows, _power_svals(A, lam, len(rows) + 1))
        s = next(svals)
        sigma1 = s[0]
        if sigma1 == 0.0:
            out.append(1)  # B = 0, the eigenvalue is the whole spectrum
            continue

        def rank_of(s, j):
            # A cluster of spread ``radius`` is one eigenvalue, so its own
            # singular values, about radius^j at power j, count as zero.
            thr = max(rank_tol * sigma1**j, residual * sigma1 ** (j - 1), (100 * radius) ** j)
            rank, fragile = 0, False
            for x in s:
                rank += x > thr
                fragile = fragile or thr / 10 < x < thr * 10
            if fragile:
                warnings.warn(
                    f"rank decision for eigenvalue {lam} at power {j} is within "
                    f"10x of the threshold {thr:.3e}",
                    RuntimeWarning,
                    stacklevel=_outside_package(),
                )
            return rank

        prev = rank_of(s, 1)
        if prev == d:
            raise SpectralError(
                f"{lam} is not an eigenvalue of the matrix (full-rank shift)"
            )
        r = None
        for j in range(1, d + 1):
            cur = rank_of(next(svals), j + 1)
            if cur == prev:
                r = j
                break
            prev = cur
        out.append(r if r is not None else d)
    return tuple(out)


def _ladder_svals(arrs, rows):
    """Singular values of the ladder powers of every cluster, one svd call per size.

    ``out[i][m]`` lists the singular values of (A - c I)^j for
    j = 1 ... s + 1, where A = ``arrs[i]`` and (c, s, _) = ``rows[i][m]``:
    every power a ladder reads unless its cluster is a split eigenvalue.
    Matrices whose ``rows`` are None, and every matrix of a size whose
    stacked svd fails, get None and compute their powers one at a time.
    """
    out = [None] * len(arrs)
    by_dim = {}
    for i, clusters in enumerate(rows):
        for m, (c, s, _) in enumerate(clusters or ()):
            by_dim.setdefault(arrs[i].shape[0], []).append((s + 1, i, m, c))
    for d, items in by_dim.items():
        # deepest first: the items that need power j are then a prefix
        items.sort(key=lambda t: -t[0])
        owned = np.array([arrs[t[1]] for t in items])
        B = owned - np.array([t[3] for t in items])[:, None, None] * np.eye(d)
        levels = [B]
        for j in range(1, items[0][0]):
            n = sum(t[0] > j for t in items)
            levels.append(levels[-1][:n] @ B[:n])
        try:
            S = np.linalg.svd(np.concatenate(levels), compute_uv=False).tolist()
        except np.linalg.LinAlgError:
            continue
        starts = [0, *itertools.accumulate(len(P) for P in levels[:-1])]
        for t, (D, i, m, _) in enumerate(items):
            if out[i] is None:
                out[i] = [None] * len(rows[i])
            out[i][m] = [S[o + t] for o in starts[:D]]
    return out


def _analyze_all(arrs, cluster_tol=DEFAULT_CLUSTER_TOL, rank_tol=DEFAULT_RANK_TOL):
    """Yield :func:`analyze` of each square complex array in ``arrs``, in order.

    Matrices of one size share one ``eigvals`` call, and the ladder powers
    of all their clusters one ``svd`` call. The decisions are then
    replayed matrix by matrix, cluster by cluster, as :func:`analyze`
    takes them: a matrix's warnings are issued, and its
    :class:`SpectralError` raised, only when its result is due, after
    those of the matrices before it. A stacked call that fails leaves its
    matrices to be computed one at a time, so a failure also surfaces at
    its own matrix.
    """
    eigs = [None] * len(arrs)
    by_dim = {}
    for i, A in enumerate(arrs):
        by_dim.setdefault(A.shape[0], []).append(i)
    for idx in by_dim.values():
        try:
            w = np.linalg.eigvals(np.array([arrs[i] for i in idx]))
        except np.linalg.LinAlgError:
            continue
        for i, wi in zip(idx, w):
            eigs[i] = wi
    rows = [None if w is None else _clusters(A, w, cluster_tol) for A, w in zip(arrs, eigs)]
    known = _ladder_svals(arrs, rows)
    for A, clusters, svals in zip(arrs, rows, known):
        if clusters is None:
            clusters = _clusters(A, _eigvals(A), cluster_tol)
        mins = _rank_ladder(A, [(c, radius) for c, _, radius in clusters], rank_tol, svals)
        for (lam, s, _), r in zip(clusters, mins):
            if r > s:
                raise SpectralError(
                    f"cluster at {lam:.6g} holds {s} eigenvalue(s) but its rank ladder "
                    f"gives minimal multiplicity {r}; a defective eigenvalue was split"
                )
        yield SpectralData(
            eigenvalues=tuple(c for c, _, _ in clusters),
            alg_mult=tuple(n for _, n, _ in clusters),
            min_mult=mins,
            dim=A.shape[0],
        )


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
    This is the one-matrix case of :func:`_analyze_all`, which analyses
    the slots of one call together and decides exactly as this does.
    """
    [data] = _analyze_all([as_square_matrix(M)], cluster_tol, rank_tol)
    return data


def minimal_polynomial(data: SpectralData) -> MultiPoly:
    """prod_m (x - lam_m)^{r_m} as a univariate polynomial."""
    roots = np.repeat(np.array(data.eigenvalues, dtype=complex), data.min_mult)
    return MultiPoly(1, np.polynomial.polynomial.polyfromroots(roots))
