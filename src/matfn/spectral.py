"""Eigenvalue clustering, the blocks of the grid, and minimal-polynomial multiplicities.

Computed spectra of nearby-defective matrices scatter; every consumer in
this package goes through the clustering here so that one tolerance
discipline decides what counts as a single eigenvalue. The tensor
extension reads the blocks, which need one eigenvalue call; the rank
ladder that decides minimal multiplicities runs only for the callers
that read them.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import warnings

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
#: Clusters within this times min(||M||_F, 10 max(1, rho(M))) are one block
#: of the tensor extension's grid (:attr:`SpectralData.blocks`). A defective
#: eigenvalue of index m splits by about eps^(1/m) ||M||; the value sits
#: between the widest such split and the narrowest genuine gap measured.
BLOCK_TOL = 5e-3

# the code objects of the package's modules carry this prefix as co_filename
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def as_square_matrix(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_slot_matrices(mats) -> list[np.ndarray]:
    """:func:`as_square_matrix` of each slot's matrix, named "slot l matrix".

    An object that fills several slots is checked once, at its first.
    """
    seen, arrs = {}, []  # seen: id -> (object, array), the object held so its id stays its own
    for l, M in enumerate(mats):
        if id(M) not in seen:
            seen[id(M)] = (M, as_square_matrix(M, f"slot {l} matrix"))
        arrs.append(seen[id(M)][1])
    return arrs


def hs_norm(A) -> float:
    """Hilbert-Schmidt (Frobenius) norm.

    Where the sum of squares may have left the float range, the norm of A
    times 2^-e is taken and scaled back, both exact."""
    A = np.asarray(A)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(A))
    if 2.0**-500 < norm < 2.0**500:
        return norm
    s = math.ldexp(1.0, -_binary_exponent(A))
    return float(np.linalg.norm(A * s)) / s


def _binary_exponent(A) -> int:
    """The e with A's largest entry in [2^(e-1), 2^e), at least -1000; 0 if A
    is 0 or not finite. Scaling by 2^-e is exact above the subnormal range."""
    return max(math.frexp(float(np.abs(A).max(initial=0.0)))[1], -1000)


class SpectralData:
    """Clustered spectrum of one matrix.

    ``eigenvalues`` are cluster centroids sorted by (real, imag);
    ``alg_mult`` counts computed eigenvalues per cluster and ``radii``
    bounds their distance from the centroid; ``min_mult`` is the
    multiplicity of each eigenvalue in the minimal polynomial (1 for
    every eigenvalue iff the matrix is diagonalizable). Data from
    :func:`analyze` holds its matrix and runs the rank ladder, with its
    warnings and errors, on the first read of ``min_mult``.

    ``blocks`` holds the (centre, size, radius) of each node of the
    tensor extension's grid, which reads nothing else: with an explicit
    ``min_mult``, each eigenvalue at that size and radius 0; with a
    ``matrix``, the groups of its computed eigenvalues within ``BLOCK_TOL``
    times its scale of each other, clustered as the spectrum is clustered
    (:func:`_clusters`): at their mean (the value itself if all are equal),
    with their largest distance from it as radius, built on the first read.
    So a defective eigenvalue that rounding split is one block again.
    Equality and hash read ``min_mult``, so they run the ladder of such
    data once.
    """

    def __init__(self, eigenvalues, alg_mult, min_mult, dim, *, radii=None, matrix=None):
        self.eigenvalues, self.alg_mult, self.dim = tuple(eigenvalues), tuple(alg_mult), dim
        self.radii = (0.0,) * len(self.alg_mult) if radii is None else tuple(radii)
        if not (len(self.eigenvalues) == len(self.alg_mult) == len(self.radii)):
            raise ValueError("spectral data fields have mismatched lengths")
        if sum(self.alg_mult) != dim:
            raise ValueError("algebraic multiplicities must sum to the dimension")
        # _raw: the matrix's computed eigenvalues, which blocks group; set by _analyze_all
        self._matrix, self._min_mult, self._blocks, self._raw = matrix, None, None, None
        if matrix is None:
            if len(min_mult) != len(self.alg_mult):
                raise ValueError("spectral data fields have mismatched lengths")
            for s, r in zip(self.alg_mult, min_mult):
                if not 1 <= r <= s:
                    raise ValueError(f"minimal multiplicity {r} outside [1, {s}]")
            self._min_mult = tuple(min_mult)
            self._blocks = tuple((c, r, 0.0) for c, r in zip(self.eigenvalues, self._min_mult))

    @property
    def blocks(self) -> tuple[tuple[complex, int, float], ...]:
        if self._blocks is None:
            w = self._raw
            scale = min(hs_norm(self._matrix), 10 * max(1.0, max(map(abs, w), default=0.0)))
            self._blocks = tuple(_clusters(w, BLOCK_TOL * scale))
        return self._blocks

    @property
    def min_mult(self) -> tuple[int, ...]:
        if self._min_mult is None:
            mins = _rank_ladder(self._matrix, list(zip(self.eigenvalues, self.radii)))
            for lam, s, r in zip(self.eigenvalues, self.alg_mult, mins):
                if r > s:
                    raise SpectralError(
                        f"cluster at {lam:.6g} holds {s} eigenvalue(s) but its rank ladder "
                        f"gives minimal multiplicity {r}; a defective eigenvalue was split"
                    )
            self._min_mult = mins
        return self._min_mult

    @property
    def is_diagonalizable(self) -> bool:
        return all(r == 1 for r in self.min_mult)

    def _key(self):
        return self.eigenvalues, self.alg_mult, self.min_mult, self.dim

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, SpectralData) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        mins = "<rank ladder, on first read>" if self._min_mult is None else self._min_mult
        return (f"SpectralData(eigenvalues={self.eigenvalues}, alg_mult={self.alg_mult}, "
                f"min_mult={mins}, dim={self.dim})")


def merge_clusters(values, threshold: float) -> list[list[int]]:
    """Index groups of ``values`` whose centroids are pairwise beyond ``threshold``.

    Starting from singletons, the first pair of clusters (in index order)
    whose centroids lie within ``threshold`` is merged and the scan
    restarts, until no pair is that close.
    """
    groups = [[i] for i in range(len(values))]
    while True:
        cents = [sum(values[i] for i in g) / len(g) for g in groups]
        for a, b in itertools.combinations(range(len(groups)), 2):
            if abs(cents[a] - cents[b]) <= threshold:
                groups[a].extend(groups.pop(b))
                break
        else:
            return groups


def cluster_threshold(A, tol: float = DEFAULT_CLUSTER_TOL) -> float:
    """Distance within which eigenvalues of ``A`` are one: ``tol * ||A||_HS``."""
    return float(tol) * hs_norm(A)


def _eigvals(A: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigenvalue iteration failed for a {A.shape} matrix: {exc}") from exc


def _clusters(w, threshold: float) -> list[tuple[complex, int, float]]:
    """(centroid, count, radius) of each cluster of the eigenvalues ``w``.

    Sorted by (real, imag); the radius is the largest distance of a
    member from its centroid. A cluster of equal values sits at the value
    itself, with radius 0: their mean can be an ulp off it.
    """
    rows = []
    for g in merge_clusters(w, threshold):
        vals = [complex(w[i]) for i in g]
        c = vals[0] if vals.count(vals[0]) == len(vals) else sum(vals) / len(vals)
        rows.append((c, len(g), max(abs(v - c) for v in vals)))
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


def _rank_ladder(A: np.ndarray, clusters) -> tuple[int, ...]:
    """Minimal multiplicity of each (centroid, radius) pair in ``clusters``.

    For each centroid c the rank of (A - c I)^j is tracked until it
    stabilizes; the first stable power is the multiplicity. Ranks count
    singular values above ``DEFAULT_RANK_TOL * sigma_max(A - c I)^j``, the
    scale a j-fold product can reach, so that numerically nilpotent powers
    read as rank zero, floored at the rounding residual 100 eps ||A||_F
    sigma_max^(j-1), so that a shift with a tiny sigma_max (an eigenvalue
    near another) still reads as singular. A singular value within a
    factor 10 of the threshold triggers a warning since the decision is
    then fragile; it names the first caller outside this package. The
    first two powers of every cluster, all a simple eigenvalue reads, take
    one stacked ``svd`` call.
    """
    d, m = A.shape[0], len(clusters)
    # Where sigma_max^j, up to j = d + 1, could leave the float range, the ladder
    # runs on A times 2^-e: every threshold and singular value of power j
    # scales by 2^-ej, so each decision stays as it was.
    e = _binary_exponent(A)
    unit = 1.0 if (abs(e) + d.bit_length() + 2) * (d + 1) <= 1000 else math.ldexp(1.0, -e)
    scaled = "" if unit == 1.0 else f" (the matrix scaled by 2^{-e})"
    residual = 100 * np.finfo(float).eps * hs_norm(A) * unit
    lams = np.array([complex(lam) * unit for lam, _ in clusters])
    Bs = A * unit - lams[:, None, None] * np.eye(d)
    first = np.linalg.svd(np.concatenate([Bs, Bs @ Bs]), compute_uv=False) if m else None
    out = []
    for i, (lam, radius) in enumerate(clusters):
        B, s = Bs[i], first[i]
        sigma1 = float(s[0])
        if sigma1 == 0.0:
            out.append(1)  # B = 0, the eigenvalue is the whole spectrum
            continue

        def rank_of(s, j):
            # A cluster of spread ``radius`` is one eigenvalue, so its own
            # singular values, about radius^j at power j, count as zero.
            thr = max(DEFAULT_RANK_TOL * sigma1**j, residual * sigma1 ** (j - 1),
                      (100 * unit * radius) ** j)
            rank, fragile = 0, False
            for x in s.tolist():
                rank += x > thr
                fragile = fragile or thr / 10 < x < thr * 10
            if fragile:
                warnings.warn(
                    f"rank decision for eigenvalue {lam} at power {j} is within "
                    f"10x of the threshold {thr:.3e}{scaled}",
                    RuntimeWarning,
                    stacklevel=_outside_package(),
                )
            return rank

        prev = rank_of(s, 1)
        if prev == d:
            raise SpectralError(
                f"{lam} is not an eigenvalue of the matrix (full-rank shift)"
            )
        P, r = B @ B, d
        for j in range(1, d + 1):
            if j > 1:
                P = P @ B
            cur = rank_of(first[m + i] if j == 1 else np.linalg.svd(P, compute_uv=False), j + 1)
            if cur == prev:
                r = j
                break
            prev = cur
        out.append(r)
    return tuple(out)


def _analyze_all(arrs, cluster_tol=DEFAULT_CLUSTER_TOL):
    """Yield :func:`analyze` of each square complex array in ``arrs``, in order.

    Matrices of one size share one ``eigvals`` call. A stacked call that
    fails leaves its matrices to one call each, so a failure surfaces at
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
    for A, w in zip(arrs, eigs):
        w = _eigvals(A) if w is None else w
        if not np.isfinite(w).all():
            raise SpectralError(f"the matrix has the non-finite eigenvalue {w[~np.isfinite(w)][0]}")
        w = w.tolist()  # Python complex: cheap scalar arithmetic
        rows = _clusters(w, cluster_threshold(A, cluster_tol))
        data = SpectralData([c for c, _, _ in rows], [n for _, n, _ in rows], None, A.shape[0],
                            radii=[r for _, _, r in rows], matrix=A)
        data._raw = w
        yield data


def analyze(M, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralData:
    """Cluster the spectrum; minimal multiplicities follow on first read.

    This is the one place where the package decides what counts as a
    single eigenvalue; every other routine takes that decision from here
    or from ``spectra=`` data built with it. It costs one ``eigvals``
    call. The rank ladder runs only when ``min_mult`` is first read
    (:func:`minimal_polynomial`, ``is_diagonalizable``, the eigenbasis
    route, derived spectra): the rank threshold of a cluster is at least
    (100 radius)^j at power j, and since the smallest singular value of
    M - c I is at most the radius, a merged cluster always reads as an
    eigenvalue. A cluster whose ladder still exceeds its algebraic
    multiplicity raises :class:`SpectralError` on that read. The tensor
    extension reads :attr:`SpectralData.blocks` instead, which needs no
    ladder. This is the one-matrix case of :func:`_analyze_all`.
    """
    [data] = _analyze_all([as_square_matrix(M)], cluster_tol)
    return data


def minimal_polynomial(data: SpectralData) -> MultiPoly:
    """prod_m (x - lam_m)^{r_m} as a univariate polynomial."""
    roots = np.repeat(np.array(data.eigenvalues, dtype=complex), data.min_mult)
    return MultiPoly(1, np.polynomial.polynomial.polyfromroots(roots))
