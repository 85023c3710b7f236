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

from .errors import FieldDomainError, MatfnError, SpectralError
from .funcalc import _padded_nodes, _slot_matrices, f_otimes
from .interp import _leja
from .scalarfield import ProjKernel, ScalarField, SlotDividedDifference, divided_difference_matrix
from .spectral import _analyze_all, analyze, as_square_matrix, cluster_threshold
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
    arrs = _slot_matrices(f, mats)
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
    Any order n >= 0; a derivative beyond the float range is a MatfnError.
    """
    return _derivative(_block_row(f, M, H, n, at)[n], n)


def trace_derivative(f: ScalarField, M, H, n: int, at: float = 0.0) -> complex:
    """d^n/dz^n Tr f(M + zH) at z = ``at``: n! times the trace of block (0, n) of f(B).

    The curve's arithmetic; ``verify``'s oracle for it is the paper's
    route, the extension of f[x_1, ..., x_n, x_n] closed by the trace.
    """
    return complex(_derivative(np.trace(_block_row(f, M, H, n, at)[n]), n))


def _derivative(x, n: int, order: int | None = None) -> np.ndarray:
    """n! x as a complex array: the order-n derivative whose Taylor coefficients are x.

    n! = m 2^e, m in [1, 2) rounded once, so m ldexp(x, e) rounds as float(n!) x does
    for n <= 170, and no float of n! is formed at any order. A non-finite result
    raises :class:`MatfnError` naming ``order`` (default n), the order asked for.
    """
    fact, y = math.factorial(n), np.array(x, dtype=complex)
    e, parts = fact.bit_length() - 1, y.reshape(-1).view(float)  # y's real and imaginary parts
    with np.errstate(over="ignore", invalid="ignore"):
        np.ldexp(parts, e, out=parts)
        y *= fact / (1 << e)
    return _finite(y, n if order is None else order)


def _finite(value, order: int):
    if not np.isfinite(value).all():
        raise MatfnError(f"the order-{order} derivative is not finite: beyond the float range")
    return value


def _block_row(f: ScalarField, M, H, n: int, at) -> np.ndarray:
    """The first block row of f(B), B = I (x) A + N (x) H for A = M + at H with n + 1 blocks.

    f(B) is block upper-triangular Toeplitz, so that row, an (n+1, d, d)
    stack, is all of it. f(B) is p(B), p = sum_i c_i prod_{j<i} (x - w_j)
    the interpolant at A's blocks (:func:`~matfn.funcalc._padded_nodes`),
    each node of order o taken (n + 1) o times: in rounds, round r taking in
    Leja order each node whose count exceeds r, which spreads a node's
    copies apart. The c_i are column 0 of f at the Opitz matrix of w.
    Horner's step maps the row P to (A - w_i I) P_k + H P_(k-1) and adds
    c_i I to block 0.
    """
    if f.arity != 1:
        raise ValueError("needs a one-variable field")
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    A, Hm = _line_point(M, H, at)
    [sd] = _analyze_all([A])
    try:
        [nodes] = _padded_nodes(f, [sd.blocks], 0)
        order, top = _leja(nodes), (n + 1) * max(o for _, o in nodes)
        w = np.array([nodes[m][0] for r in range(top) for m in order if (n + 1) * nodes[m][1] > r])
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


def _simple_spectrum_frame(M, H, which: int, n: int, at):
    """(eigenvalues, V, W, H) with A = M + at H = V diag(eigenvalues) W, W = V^-1.

    n and ``which`` are checked before one ``eig`` of A, its eigenvalues in
    (real, imag) order. The spectrum is simple when every gap exceeds 10x
    the clustering threshold.
    """
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    A, Hm = _line_point(M, H, at)
    if not 0 <= which < len(A):
        raise ValueError(f"eigenvalue index {which} out of range")
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
    return w[order], V[:, order], np.linalg.inv(V)[order], Hm


def projector_derivative(M, H, which: int, n: int, at: float = 0.0) -> np.ndarray:
    """d^n/dz^n of the spectral projector of the ``which``-th eigenvalue.

    Taken along M + zH at z = ``at``; eigenvalues are indexed in (real, imag) order.
    Requires a simple spectrum. The order-n term is n! sum over (n+1)-tuples of
    eigenvalue indices of u(lam_{k_0}, ..., lam_{k_n}) P_{k_0} H P_{k_1} H ... H P_{k_n},
    with u = :func:`u_function` and P_k = v_k w_k the rank-one projectors, summed by the
    recursion of :func:`_perturbation_series`; one beyond the float range is a MatfnError.
    """
    return _perturbation_series(M, H, which, n, at, eigenvalue=False)[1]


def eigenvalue_derivative(M, H, which: int, n: int, at: float = 0.0) -> complex:
    """d^n/dz^n of the ``which``-th eigenvalue along M + zH at z = ``at``.

    Eigenvalues are indexed in (real, imag) order; requires a simple spectrum.
    Order n >= 1 is the trace of the order n-1 projector derivative against H:
    (n-1)! sum over n-tuples of u(lam_{k_0}, ..., lam_{k_{n-1}})
    Tr(P_{k_0} H P_{k_1} H ... P_{k_{n-1}} H), by :func:`_perturbation_series`;
    one beyond the float range is a MatfnError.
    """
    return _perturbation_series(M, H, which, n, at, projector=False)[0]


def _perturbation_series(M, H, which: int, n: int, at, eigenvalue=True, projector=True):
    """The order-n (eigenvalue, projector) derivatives from one frame and one recursion.

    A part not asked for is None and costs nothing. With G = W H V, X_j is
    block (0, j) of the spectral projector at lam_k, k = ``which``, of
    T = I (x) diag(lams) + N (x) G (Kato, *Perturbation Theory for Linear
    Operators*, ch. II), X_0 = e_k e_k^T: chi T = T chi gives X_j off the
    diagonal, chi^2 = chi on it. The projector's is n! V X_n W, the
    eigenvalue's the trace of (n-1)! V X_{n-1} W H.
    """
    lams, V, W, Hm = _simple_spectrum_frame(M, H, which, n, at)
    X, top = [np.zeros((lams.size,) * 2, dtype=complex)], n if projector else n - 1
    X[0][which, which] = 1
    if top > 0:
        G = W @ Hm @ V
        gaps = lams[:, None] - lams + np.eye(lams.size)  # its diagonal is overwritten
    for j in range(1, top + 1):
        Xj = (X[-1] @ G - G @ X[-1]) / gaps
        # the diagonal of S_j = sum_{0<a<j} X_a X_{j-a}, negated at k
        s = sum((np.einsum("il,li->i", X[a], X[j - a]) for a in range(1, j)), np.zeros(len(G)))
        s[which] = -s[which]
        np.fill_diagonal(Xj, s)
        X.append(Xj)
    lam = complex(lams[which]) if eigenvalue and n == 0 else None
    if eigenvalue and n > 0:
        lam = complex(_finite(np.trace(_derivative(V @ X[n - 1] @ W, n - 1, n) @ Hm), n))
    return lam, _derivative(V @ X[n] @ W, n) if projector else None
