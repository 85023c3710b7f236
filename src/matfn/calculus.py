"""Derivatives of matrix functions through divided differences.

The directional derivative of the tensor extension is itself a tensor
extension: differentiating slot p along H equals the extension of the
difference quotient in that slot, with the duplicated slot contracted
through H. Higher derivatives along a line A + zH reduce the same way to
chains of divided-difference fields; the paper's route, the extension and
its contractions, stays public as ``verify``'s oracle. The chain itself is
n! times block (0, n) of f(B), B = I (x) A + N (x) H (Mathias, "A chain
rule for matrix functions and applications", SIMAX 17(3), 1996). The last
section implements the perturbation series of simple eigenvalues and
their projectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldDomainError, SpectralError
from .funcalc import _padded_nodes, f_otimes
from .interp import _leja
from .scalarfield import ProjKernel, ScalarField, SlotDividedDifference, divided_difference_matrix
from .spectral import _analyze_all, analyze, as_slot_matrices, as_square_matrix, cluster_threshold
from .tensor import OperatorTensor, contract_adjacent_through


# ---------------------------------------------------------------------------
# divided differences of one-variable fields


@dataclass(frozen=True)
class DividedDifferenceTable:
    """Newton table of a one-variable field.

    ``nodes`` are the nodes as given, sorted (real part, then imaginary
    part); ``levels[s][i]`` is the difference over nodes[i : i+s+1].
    ``value`` is the full difference over all nodes.
    """

    nodes: tuple[complex, ...]
    levels: tuple[tuple[complex, ...], ...]

    @property
    def value(self) -> complex:
        return self.levels[-1][0]


def divided_difference_table(f: ScalarField, nodes) -> DividedDifferenceTable:
    """The table over ``nodes``, repeated ones allowed: the bands of f at their Opitz matrix."""
    z = np.sort(np.array([complex(x) for x in nodes]))
    F = divided_difference_matrix(f, z)
    levels = tuple(tuple(np.diagonal(F, -s).tolist()) for s in range(z.size))
    return DividedDifferenceTable(nodes=tuple(z.tolist()), levels=levels)


def divided_difference(f: ScalarField, nodes) -> complex:
    """f[x_0, ..., x_n]; repeated nodes take derivative values."""
    return divided_difference_table(f, nodes).value


# ---------------------------------------------------------------------------
# difference-quotient fields


def first_difference_field(f: ScalarField, slot: int) -> ScalarField:
    """The two-node difference quotient of ``f`` in one slot.

    Arity grows by one; the two nodes sit at positions ``slot`` and
    ``slot + 1``. Off the diagonal the value is
    (f(..., y, ...) - f(..., x, ...)) / (y - x); on it, the slot partial.
    """
    if not 0 <= slot < f.arity:
        raise ValueError(f"slot {slot} out of range for arity {f.arity}")
    return ScalarField(
        f.arity + 1, SlotDividedDifference(f.root, f.arity, slot, (1, 1))
    )


def divided_difference_field(f: ScalarField, n: int) -> ScalarField:
    """f[x_1, ..., x_{n+1}] as a field of n + 1 variables (f univariate)."""
    if f.arity != 1:
        raise ValueError("needs a one-variable field")
    if n < 0:
        raise ValueError("order must be nonnegative")
    return ScalarField(n + 1, SlotDividedDifference(f.root, 1, 0, (1,) * (n + 1)))


def doubled_node_difference_field(f: ScalarField, n: int, double_at: int) -> ScalarField:
    """n-variable field f[x_1, ..., x_n, x_d]: one node entered twice."""
    if f.arity != 1:
        raise ValueError("needs a one-variable field")
    if not 0 <= double_at < n:
        raise ValueError(f"double_at {double_at} out of range for {n} variables")
    mults = tuple(2 if t == double_at else 1 for t in range(n))
    return ScalarField(n, SlotDividedDifference(f.root, 1, 0, mults))


# ---------------------------------------------------------------------------
# directional and curve derivatives


def frechet_derivative(f: ScalarField, mats, slot: int, H) -> OperatorTensor:
    """Derivative of the tensor extension in one slot along H.

    Built as the tensor extension of the difference quotient in that
    slot, with the doubled slot contracted through H. The result has the
    same slots as the original tensor.
    """
    arrs = as_slot_matrices(mats)
    if f.arity != len(arrs):
        raise ValueError(f"field of arity {f.arity} applied to {len(arrs)} matrices")
    if not 0 <= slot < f.arity:
        raise ValueError(f"slot {slot} out of range for arity {f.arity}")
    Hm = as_square_matrix(H, "direction")
    if Hm.shape != arrs[slot].shape:
        raise ValueError("direction must match the differentiated slot's shape")
    g = first_difference_field(f, slot)
    doubled = arrs[: slot + 1] + [arrs[slot]] + arrs[slot + 1 :]
    data = [analyze(M) for M in arrs]
    spectra = data[: slot + 1] + [data[slot]] + data[slot + 1 :]
    T = f_otimes(g, doubled, spectra=spectra)
    return contract_adjacent_through(T, slot, Hm)


def nth_derivative_curve(f: ScalarField, M, H, n: int, at: float = 0.0) -> np.ndarray:
    """d^n/dz^n f(M + zH) at z = ``at``, for a one-variable field: n! times block (0, n) of f(B).

    The same value as the paper's route, the extension of the n-th
    divided-difference field of f at n + 1 copies of A = M + at H with
    every adjacent pair of slots contracted through H, which is not formed.
    """
    row = _block_row(f, M, H, n, at)  # checks n before n! is taken
    return math.factorial(n) * row[n]


def trace_derivative(f: ScalarField, M, H, n: int, at: float = 0.0) -> complex:
    """d^n/dz^n Tr f(M + zH) at z = ``at``: n! times the trace of block (0, n) of f(B).

    The curve's arithmetic; ``verify``'s oracle for it is the paper's
    route, the extension of f[x_1, ..., x_n, x_n] closed by the trace.
    """
    row = _block_row(f, M, H, n, at)
    return math.factorial(n) * complex(np.trace(row[n]))


def _block_row(f: ScalarField, M, H, n: int, at) -> np.ndarray:
    """The first block row of f(B), B = I (x) A + N (x) H for A = M + at H with n + 1 blocks.

    f(B) is block upper-triangular Toeplitz, so that row, an (n+1, d, d)
    stack, is all of it. f(B) is p(B), p = sum_i c_i prod_{j<i} (x - w_j)
    the interpolant at A's blocks (:func:`~matfn.funcalc._padded_nodes`) in
    Leja order, each node of order o taken (n + 1) o times in a row; the
    c_i are column 0 of f at the Opitz matrix of w. Horner's step maps the
    row P to (A - w_i I) P_k + H P_(k-1) and adds c_i I to block 0.
    """
    if f.arity != 1:
        raise ValueError("needs a one-variable field")
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    A, Hm = _line_point(M, H, at)
    [sd] = _analyze_all([A])
    try:
        [nodes] = _padded_nodes(f, [sd.blocks], 0)
        w = np.array([nodes[m][0] for m in _leja(nodes) for _ in range((n + 1) * nodes[m][1])])
        c = divided_difference_matrix(f, w)[:, 0]
        if not np.isfinite(c).all():
            raise FieldDomainError(f"a divided difference over the nodes {nodes} is not finite")
    except FieldDomainError as exc:
        raise FieldDomainError(
            f"field is not defined on the spectral grid of the arguments: {exc}"
        ) from exc
    P = np.zeros((n + 1,) + A.shape, dtype=complex)
    P[0] = c[-1] * np.eye(len(A))
    for i in reversed(range(w.size - 1)):
        Q = A @ P - w[i] * P
        Q[1:] += Hm @ P[:-1]
        Q[0] += c[i] * np.eye(len(A))
        P = Q
    return P


def _line_point(M, H, at):
    """(A, H) as complex arrays, A = M + at H: M nonempty, H of its shape, at and A finite."""
    Hm, Mm = as_square_matrix(H, "direction"), as_square_matrix(M)
    if Hm.shape != Mm.shape:
        raise ValueError("direction must match the matrix's shape")
    if Mm.size == 0:
        raise ValueError("matrix must not be empty")
    if not np.isfinite(at):
        raise ValueError(f"the point {at} on the line is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        A = Mm + complex(at) * Hm
    if not np.isfinite(A).all():
        raise ValueError(f"M + {at} H has non-finite entries")
    return A, Hm


# ---------------------------------------------------------------------------
# perturbation series for simple spectra


def u_function(anchor: complex, n: int) -> ScalarField:
    """The order-n kernel of the projector perturbation series.

    A symmetric function of n + 1 arguments attached to one eigenvalue.
    With m of the arguments equal to ``anchor`` and the others z_h, the
    value is the (m-1)-st Taylor coefficient of prod_h 1/(z - z_h) at the
    anchor, and 0 when m = 0. Arguments confluent with the anchor (see
    :func:`~matfn.scalarfield.confluent`) without being equal to it are
    rejected as ambiguous.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    return ScalarField(n + 1, ProjKernel(complex(anchor), n))


def _simple_spectrum_frame(M, H, which: int, at):
    """(eigenvalues, V, W, H) with A = M + at H = V diag(eigenvalues) W, W = V^-1.

    One ``eig`` of A, its eigenvalues in (real, imag) order. The spectrum
    is simple when every gap exceeds 10x the clustering threshold.
    """
    A, Hm = _line_point(M, H, at)
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # a SpectralError, with numpy's message
        raise SpectralError(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    threshold = cluster_threshold(A)
    gap = min((abs(a - b) for a, b in itertools.combinations(w, 2)), default=math.inf)
    if gap <= 10 * threshold:
        raise SpectralError(
            f"perturbation series needs a simple spectrum: eigenvalue gap {gap:.3e} is "
            f"within 10x of the clustering threshold {threshold:.3e}"
        )
    if not 0 <= which < w.size:
        raise ValueError(f"eigenvalue index {which} out of range")
    return w[order], V[:, order], np.linalg.inv(V)[order], Hm


def projector_derivative(M, H, which: int, n: int, at: float = 0.0) -> np.ndarray:
    """d^n/dz^n of the spectral projector of the ``which``-th eigenvalue.

    Taken along M + zH at z = ``at``; eigenvalues are indexed in
    (real, imag) order. Requires a simple spectrum. The order-n term
    is n! sum over (n+1)-tuples of eigenvalue indices of
    u(lam_{k_0}, ..., lam_{k_n}) P_{k_0} H P_{k_1} H ... H P_{k_n}, with
    P_k = v_k w_k the rank-one projectors. It is summed in the
    eigenbasis: n! V K W, where K[k_0, k_n] folds the kernel values over
    the middle indices against G = W H V, one consecutive pair at a time.
    """
    lams, V, W, Hm = _simple_spectrum_frame(M, H, which, at)
    return _projector_series(lams, V, W, Hm, which, n)


def _projector_series(lams, V, W, Hm, which: int, n: int) -> np.ndarray:
    """The order-n projector derivative from a simple-spectrum frame."""
    axes = [lams.reshape((-1,) + (1,) * (n - l)) for l in range(n + 1)]
    K = u_function(lams[which], n)(*axes)  # K[k_0, ..., k_n]
    if n == 0:
        K = np.diag(K)
    else:
        G = W @ Hm @ V
        K = K * G.reshape(G.shape + (1,) * (n - 1))
        for _ in range(n - 1):
            # sum out k_1 against G[k_1, k_2]; k_0 stays in front
            K = np.einsum("abc...,bc->ac...", K, G)
    return math.factorial(n) * (V @ K @ W)


def eigenvalue_derivative(M, H, which: int, n: int, at: float = 0.0) -> complex:
    """d^n/dz^n of the ``which``-th eigenvalue along M + zH at z = ``at``.

    Eigenvalues are indexed in (real, imag) order; requires a simple
    spectrum. Order n >= 1 is the trace of the order
    n-1 projector derivative against H:
    (n-1)! sum over n-tuples of u(lam_{k_0}, ..., lam_{k_{n-1}})
    Tr(P_{k_0} H P_{k_1} H ... P_{k_{n-1}} H).
    """
    lams, V, W, Hm = _simple_spectrum_frame(M, H, which, at)
    if n == 0:
        return complex(lams[which])
    return complex(np.trace(_projector_series(lams, V, W, Hm, which, n - 1) @ Hm))
