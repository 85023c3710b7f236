"""Derivatives of matrix functions through divided differences.

The directional derivative of the tensor extension is itself a tensor
extension: differentiating slot p along H equals the extension of the
difference quotient in that slot, with the duplicated slot contracted
through H. Higher derivatives along a line M + zH reduce the same way to
divided-difference fields of higher order, whose extension at copies of
one matrix A has every adjacent pair of slots contracted through H. That
chain is summed without the extension: all slots share one Newton basis
on A's spectrum, and the sum over the divided-difference field's
coefficients C[i_0..i_n] of N_{i_0} H N_{i_1} ... H N_{i_n} is one
contraction. The paper's route, the extension and its contractions, stays
public and is the chain's oracle in ``verify``. The last section
implements the perturbation series of simple eigenvalues and their
projectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldDomainError, SpectralError
from .funcalc import _padded_nodes, f_otimes
from .interp import _coefficients, hermite_basis
from .scalarfield import (
    ProjKernel,
    ScalarField,
    SlotDividedDifference,
    _shared_spectrum_grid,
    derivative_grid,
    field_divided_difference_levels,
)
from .spectral import _analyze_all, analyze, as_square_matrix, cluster_threshold
from .tensor import (
    _LETTERS,
    OperatorTensor,
    _contract,
    _newton_stack,
    _pairs,
    contract_adjacent_through,
)


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
    """The table over ``nodes``; confluent groups take f's Taylor coefficients."""
    zs, levels = field_divided_difference_levels(f, np.array([complex(z) for z in nodes]))
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
    n + 1 copies of A = M + at H, with every adjacent pair of slots
    contracted through H: the chain sum C[i_0..i_n] N_{i_0} H N_{i_1} ... H N_{i_n}
    of :func:`_chain`, so neither the d^(2(n+1)) tensor nor the extension
    is formed.
    """
    if f.arity != 1:
        raise ValueError("needs a one-variable field")
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    Hm = as_square_matrix(H, "direction")
    A = as_square_matrix(M) + complex(at) * Hm
    return math.factorial(n) * _chain(f, A, Hm, (1,) * (n + 1))


def trace_derivative(f: ScalarField, M, H, n: int, at: float = 0.0) -> complex:
    """d^n/dz^n Tr f(M + zH) at z = ``at``.

    Uses the n-argument field with one doubled node, f[x_1, ..., x_n, x_n],
    instead of the full (n+1)-argument field: the cyclic symmetry of the
    trace closes the chain, so one slot fewer is needed than for the
    matrix derivative.
    """
    if f.arity != 1:
        raise ValueError("needs a one-variable field")
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    Hm = as_square_matrix(H, "direction")
    A = as_square_matrix(M) + complex(at) * Hm
    if n == 0:
        return complex(np.trace(_chain(f, A, Hm, (1,))))
    R = _chain(f, A, Hm, (1,) * (n - 1) + (2,))
    return math.factorial(n) * complex(np.trace(R @ Hm))


def _chain(f: ScalarField, A: np.ndarray, Hm: np.ndarray, mults) -> np.ndarray:
    """sum C[i_1..i_t] N_{i_1} H N_{i_2} ... H N_{i_t} for g = f[x_1^{m_1}, ..., x_t^{m_t}] at A.

    Every slot shares one Newton basis on A's blocks, each node at the
    largest order any slot's Taylor pad asks for (:func:`_padded_nodes`),
    with centres z and N_i = prod_{j<i} (A - z_j I). The grid of g comes
    from one walk of f at the nodes and the level recursion where every
    order is 1, from the jet walks otherwise; C is that grid with each
    axis mapped through the basis's transform, checked against it. For
    ``mults`` = (1, ..., 1), C[i_1..i_t] = f[z_0..z_{i_1} + ... + z_0..z_{i_t}],
    one divided difference over the merged multiset (de Boor, "Divided
    differences", Surveys in Approximation Theory 1, 2005). The sum is one
    contraction of C, the stack of the N_i and H, or a fold over the slots
    when it has more indices than einsum has letters.
    """
    [sd] = _analyze_all([A])
    t = len(mults)
    g = ScalarField(t, SlotDividedDifference(f.root, 1, 0, tuple(mults)))
    # g is symmetric in the node variables of one multiplicity, so only the
    # last of each walks its pad; the others take the blocks at radius 0
    unpadded = [(c, s, 0.0) for c, s, _ in sd.blocks]
    blocks = [unpadded if m in mults[l + 1 :] else sd.blocks for l, m in enumerate(mults)]
    try:
        padded = _padded_nodes(g, blocks, 0)
        nodes = [(e[0][0], max(o for _, o in e)) for e in zip(*padded)]
        G = None
        if all(o == 1 for _, o in nodes):
            G = _shared_spectrum_grid(g.root, [np.array([c for c, _ in nodes])] * t)
        if G is None:
            G = derivative_grid(g, [nodes] * t)
    except FieldDomainError as exc:
        raise FieldDomainError(
            f"field is not defined on the spectral grid of the arguments: {exc}"
        ) from exc
    basis = hermite_basis(nodes)
    C = _coefficients(G, [basis] * t)
    S = _newton_stack(A, basis.centres[:-1])  # N_0, ..., N_{r-1}
    if 3 * t <= len(_LETTERS):
        # the subscripts of poly_tensor_eval's network with every adjacent pair of
        # slots contracted through H, so the sums are the paper route's to the bit
        idx, pairs = _LETTERS[2 * t : 3 * t], _pairs(t)
        through = [pairs[l][1] + pairs[l + 1][0] for l in reversed(range(t - 1))]
        subs = [idx] + [i + p for i, p in zip(idx, pairs)] + through
        return _contract([C] + [S] * t + [Hm] * (t - 1), subs, pairs[0][0] + pairs[-1][1])
    # more indices than einsum has letters: fold from the last slot
    R, P = np.tensordot(C, S, axes=(t - 1, 0)), S @ Hm
    for _ in range(t - 1):
        R = np.einsum("iab,...ibc->...ac", P, R)
    return R


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
