"""Derivatives of matrix functions through divided differences.

The directional derivative of the tensor extension is itself a tensor
extension: differentiating slot p along H equals the extension of the
difference quotient in that slot, with the duplicated slot contracted
through H. Higher derivatives along a line M + zH reduce the same way to
divided-difference fields of higher order. The last section implements
the perturbation series of simple eigenvalues and their projectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpectralError
from .funcalc import _interpolant, f_otimes
from .scalarfield import (
    ProjKernel,
    ScalarField,
    SlotDividedDifference,
    divided_difference_levels,
)
from .spectral import analyze, as_square_matrix, cluster_threshold
from .tensor import OperatorTensor, _chain_fold, contract_adjacent_through


# ---------------------------------------------------------------------------
# divided differences of one-variable fields


@dataclass(frozen=True)
class DividedDifferenceTable:
    """Confluent Newton table of a one-variable field.

    ``nodes`` are the merged nodes in evaluation order; ``levels[s][i]``
    is the difference over nodes[i : i+s+1]. ``value`` is the full
    difference over all nodes.
    """

    nodes: tuple[complex, ...]
    levels: tuple[tuple[complex, ...], ...]

    @property
    def value(self) -> complex:
        return self.levels[-1][0]


def divided_difference_table(f: ScalarField, nodes) -> DividedDifferenceTable:
    if f.arity != 1:
        raise ValueError("divided differences need a one-variable field")
    derivs = [f]

    def deriv(x, m, mask):
        while len(derivs) <= m:
            derivs.append(derivs[-1].partial(0))
        return derivs[m](x if mask is None else x[mask])

    zs, levels = divided_difference_levels(deriv, np.array([complex(z) for z in nodes]))
    return DividedDifferenceTable(
        nodes=tuple(zs.tolist()), levels=tuple(tuple(row.tolist()) for row in levels)
    )


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
    arrs = [as_square_matrix(M, f"slot {l} matrix") for l, M in enumerate(mats)]
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
    """d^n/dz^n f(M + zH) at z = ``at``, for a one-variable field.

    n! times the extension of the n-th divided-difference field of f at
    n + 1 copies of A = M + at H, chained through H between consecutive
    copies. The chain is folded slot by slot from the interpolant, so
    only d x d matrices are formed, never the d^(2(n+1)) tensor.
    """
    if f.arity != 1:
        raise ValueError("needs a one-variable field")
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    Hm = as_square_matrix(H, "direction")
    A = as_square_matrix(M) + complex(at) * Hm
    g = f if n == 0 else divided_difference_field(f, n)
    return math.factorial(n) * _chain(g, A, Hm)


def trace_derivative(f: ScalarField, M, H, n: int, at: float = 0.0) -> complex:
    """d^n/dz^n Tr f(M + zH) at z = ``at``.

    Uses the n-argument field with one doubled node instead of the full
    (n+1)-argument field: the cyclic symmetry of the trace closes the
    chain, so one slot fewer is needed than for the matrix derivative.
    """
    if f.arity != 1:
        raise ValueError("needs a one-variable field")
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    Hm = as_square_matrix(H, "direction")
    A = as_square_matrix(M) + complex(at) * Hm
    if n == 0:
        return complex(np.trace(_chain(f, A, Hm)))
    R = _chain(doubled_node_difference_field(f, n, n - 1), A, Hm)
    return math.factorial(n) * complex(np.trace(R @ Hm))


def _chain(g: ScalarField, A: np.ndarray, Hm: np.ndarray) -> np.ndarray:
    """The extension of ``g`` at copies of A, its adjacent slots chained through H."""
    poly = _interpolant(g, [A] * g.arity, [analyze(A)] * g.arity)
    return _chain_fold(poly, A, Hm)


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
    """(eigenvalues, V, W, H) with A = M + at H = V diag(eigenvalues) W, W = V^-1."""
    Hm = as_square_matrix(H, "direction")
    A = as_square_matrix(M) + complex(at) * Hm
    sd = analyze(A)
    if any(s != 1 for s in sd.alg_mult):
        raise SpectralError(
            f"perturbation series needs a simple spectrum; multiplicities {sd.alg_mult}"
        )
    lams = sd.eigenvalues
    threshold = cluster_threshold(A)
    gap = min(
        abs(a - b) for a, b in itertools.combinations(lams, 2)
    ) if len(lams) > 1 else math.inf
    if gap <= 10 * threshold:
        raise SpectralError(
            f"eigenvalue gap {gap:.3e} is within 10x of the clustering "
            f"threshold {threshold:.3e}; the series is not trustworthy here"
        )
    w, V = np.linalg.eig(A)
    order = [int(np.argmin(np.abs(w - lam))) for lam in lams]
    if len(set(order)) != len(order):
        raise SpectralError("could not match clustered eigenvalues to eigenvectors")
    if not 0 <= which < len(lams):
        raise ValueError(f"eigenvalue index {which} out of range")
    return np.array(lams), V[:, order], np.linalg.inv(V)[order], Hm


def projector_derivative(M, H, which: int, n: int, at: float = 0.0) -> np.ndarray:
    """d^n/dz^n of the spectral projector of the ``which``-th eigenvalue.

    Taken along M + zH at z = ``at``; eigenvalues are indexed in the
    sorted clustered order. Requires a simple spectrum. The order-n term
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

    Requires a simple spectrum. Order n >= 1 is the trace of the order
    n-1 projector derivative against H:
    (n-1)! sum over n-tuples of u(lam_{k_0}, ..., lam_{k_{n-1}})
    Tr(P_{k_0} H P_{k_1} H ... P_{k_{n-1}} H).
    """
    lams, V, W, Hm = _simple_spectrum_frame(M, H, which, at)
    if n == 0:
        return complex(lams[which])
    return complex(np.trace(_projector_series(lams, V, W, Hm, which, n - 1) @ Hm))
