"""Interpolation on spectra with derivative conditions, in Newton form.

For one variable with nodes lam_m of orders r_m, the interpolant is
sum_i c_i N_i(x) with the Newton basis N_i(x) = prod_{j<i} (x - z_j).
The centres z hold every node r_m times in a row, the distinct nodes in
Leja order: after the node farthest from their mean, each next one has
the largest product of distances to the centres already taken
(Reichel, "Newton interpolation at Leja points", BIT 30, 1990).
c_i = f[z_0, ..., z_i] is a confluent divided difference and linear in
the Taylor coefficients f^(j)(lam_m)/j! that a grid holds, so one matrix
D maps a grid axis to Newton coefficients (D = I at a single node). A
second matrix E, out of the Taylor coefficients of the N_i at each node,
maps them back to that unit, so E D = I; neither scales by j!. One pass
per node along the centres writes that node's grid rows of both; D is
stored as its transpose, a grid row per memory row, which fixes the order
in which BLAS sums its products. Products of one basis per variable
interpolate mixed derivative grids of several variables: such a grid is
one dense tensor, an axis per variable with its rows in the order of
:attr:`HermiteBasis.functionals`; the coefficient tensor is the
grid with each axis mapped through its D, a mode product per variable,
and the self-check maps it back through each E. No system is solved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InterpolationError
from .scalarfield import MultiPoly, confluent


@dataclass(frozen=True)
class HermiteBasis:
    """Newton basis for one variable's interpolation nodes.

    ``nodes`` holds the (value, order) pairs as given; ``functionals``
    lists the (node, Taylor order) of each row of this variable's axis of
    a derivative grid tensor: row (m, j) holds f^(j)(lam_m)/j!.
    ``centres`` is the Newton basis's node sequence z, ``size`` long.
    ``transform`` (D) maps grid rows to Newton coefficients, its row i
    giving f[z_0, ..., z_i]; ``evaluation`` (E) maps them back, E[t, i]
    being the t-th Taylor coefficient of N_i, at the node and order of
    functional t. ``condition``, ||D||_1 ||E||_1, is worked out when read;
    at one node both matrices are the identity and it is 1.
    """

    nodes: tuple[tuple[complex, int], ...]
    centres: np.ndarray
    transform: np.ndarray
    evaluation: np.ndarray

    @property
    def condition(self) -> float:
        D, E = np.abs(self.transform), np.abs(self.evaluation)
        return float(D.sum(axis=0).max() * E.sum(axis=0).max())

    @property
    def size(self) -> int:
        return self.centres.size

    @property
    def functionals(self) -> list[tuple[int, int]]:
        return [(m, j) for m, (_, r) in enumerate(self.nodes) for j in range(r)]


def hermite_basis(nodes) -> HermiteBasis:
    """The Newton basis on ``nodes`` = [(value, order), ...].

    Distinct nodes that are :func:`~matfn.scalarfield.confluent` with
    floor 0.01 are rejected; merging them (one node, higher order) is the
    caller's decision. The floor keeps the window absolute, 1e-12, only
    near zero, so the well-separated spectrum of a small matrix is
    accepted.
    """
    cleaned = []
    for lam, r in nodes:
        r = int(r)
        if r < 1:
            raise ValueError("node orders must be at least 1")
        cleaned.append((complex(lam), r))
    if not cleaned:
        raise ValueError("at least one node is required")
    for (a, _), (b, _) in itertools.combinations(cleaned, 2):
        if confluent(a, b, floor=0.01):
            raise InterpolationError(
                f"nodes {a} and {b} are confluent; merge them into one node of higher order"
            )
    with np.errstate(all="ignore"):
        centres, D, E = _newton_matrices(cleaned, _leja(cleaned))
    if not (np.isfinite(D).all() and np.isfinite(E).all()):
        raise InterpolationError(f"the Newton basis on nodes {cleaned} overflows")
    return HermiteBasis(tuple(cleaned), centres, D, E)


def _leja(nodes) -> list[int]:
    """The indices of the (value, order) ``nodes`` in Leja order.

    The first node is the farthest from the nodes' mean; each next one has
    the largest sum of order * log distance to the nodes taken, so that a
    node counts as often as the centres repeat it. Ties go to the lower
    index. Distinct nodes are never equal, so every logarithm is finite.
    """
    lam = [v for v, _ in nodes]
    mean = sum(lam) / len(lam)
    taken = max(range(len(lam)), key=lambda i: abs(lam[i] - mean))
    order, score = [taken], {i: 0.0 for i in range(len(lam)) if i != taken}
    while score:
        weight, at = nodes[taken][1], lam[taken]
        for i in score:
            score[i] += weight * math.log(abs(lam[i] - at))
        taken = max(score, key=score.__getitem__)
        order.append(taken)
        del score[taken]
    return order


def _newton_matrices(nodes, order):
    """The centres z, D and E on ``nodes`` taken in Leja ``order``.

    Grid row (m, j) holds f^(j)(lam_m)/j!; D[i, (m, j)] is its weight in
    f[z_0..z_i]. By residues,
    f[z_0..z_i] = sum over the nodes lam of sum_{j<c} f^(j)(lam)/j! w_{c-1-j},
    with c the copies of lam among z_0..z_i and w_s the Taylor coefficient
    of order s at lam of the product of 1/(x - z_q) over the other centres
    q <= i. E[(m, j), i] is the j-th Taylor coefficient at lam_m of N_i;
    N_i(lam + h) = prod_{q<i} (h + lam - z_q) is h^c, with c the copies of
    lam among z_0..z_{i-1}, times the product over the other centres. When
    every node has order 1 only the products' values enter, running
    products along each row of lam_m - z_q. Otherwise one pass per node
    along z carries S and T, the Taylor coefficients of the products of
    1/(h + lam - z_q) and of (h + lam - z_q), each to the node's order: a
    centre elsewhere divides S by its factor and multiplies T by it, a copy
    of lam bumps c, and column i reads D[i, (m, j)] = S_{c-1-j} and
    E[(m, j), i] = T_{j-c}, 0 where that index is negative. D is written
    one grid row at a time and returned transposed: :func:`_along_axes`
    multiplies by its transpose, and BLAS sums in an order that follows the
    memory layout, so a C-ordered D would move the coefficients' last bits.
    """
    owner = [m for m in order for _ in range(nodes[m][1])]  # the node of each centre
    z = np.array([nodes[m][0] for m in owner])
    n = z.size
    if n == len(nodes):
        at = np.array(order).argsort()  # the centre p_m of each node
        d = np.array([lam for lam, _ in nodes])[:, None] - z  # [m, q]: lam_m - z_q
        v = np.ones((n, n), dtype=complex)  # [m, i]: the product over q < i, 0 from i > p_m on
        np.cumprod(d[:, :-1], axis=1, out=v[:, 1:])
        d[np.arange(n), at] = 1.0
        w = np.cumprod(1.0 / d, axis=1)  # [m, i]: the product over q <= i, q != p_m
        w *= at[:, None] <= np.arange(n)
        return z, w.T, v
    Dt, E = [], []
    for m, (lam, r) in enumerate(nodes):
        S, T = [1.0] + [0.0] * (r - 1), [1.0] + [0.0] * (r - 1)
        wr, vr = [[0.0] * n for _ in range(r)], [[0.0] * n for _ in range(r)]
        c = 0
        for i, (g, k) in enumerate(zip((lam - z).tolist(), owner)):
            for j in range(c, r):
                vr[j][i] = T[j - c]
            if k == m:
                c += 1
            else:
                y = 1.0 / g
                S[0] *= y
                for s in range(1, r):
                    S[s] = (S[s] - S[s - 1]) * y
                    T[r - s] = T[r - s] * g + T[r - s - 1]
                T[0] *= g
            for j in range(c):
                wr[j][i] = S[c - 1 - j]
        Dt += wr
        E += vr
    return z, np.array(Dt, dtype=complex).T, np.array(E, dtype=complex)


def interpolate(G, bases: list[HermiteBasis]) -> MultiPoly:
    """The polynomial matching a mixed derivative grid, in the bases' Newton form.

    ``G`` is the grid tensor of :func:`~matfn.scalarfield.derivative_grid`:
    one axis per variable, of length ``bases[l].size``, its rows in the
    order of ``bases[l].functionals``, so that the entry at rows
    (m_l, j_l) is the prescribed Taylor coefficient
    (prod_l d_l^{j_l} / j_l!) P at the node tuple. Any other shape is an
    :class:`InterpolationError`. The coefficient tensor, G with each axis
    mapped through its basis's ``transform``, is verified against G (an
    :class:`InterpolationError` carries the residual if the defining
    conditions are not met to within what the conditioning allows) and
    becomes the result's ``dense`` array as is, with each basis's
    ``centres``.
    """
    if not bases:
        raise ValueError("at least one variable is required")
    shape = tuple(b.size for b in bases)
    G = np.asarray(G, dtype=complex)
    if G.shape != shape:
        raise InterpolationError(
            f"derivative grid has shape {G.shape}, the bases need {shape}"
        )
    if not np.all(np.isfinite(G)):
        # NaN compares false against any allowance, so the self-check
        # below would let it through
        raise InterpolationError("derivative grid holds a non-finite value")
    dense = _along_axes(G, [b.transform for b in bases])
    _verify_against_grid(dense, G, bases)
    return MultiPoly(len(bases), dense, [b.centres for b in bases])


def _along_axes(T: np.ndarray, mats) -> np.ndarray:
    """Apply ``mats[l]`` to axis l of ``T``, for every axis.

    Each product consumes the leading axis and appends the new one, so
    after one round the axes are back in their original order. It is
    ``np.tensordot(T, A, axes=(0, 1))`` without that function's Python
    overhead, which dominated at these sizes.
    """
    for A in mats:
        T = (T.reshape(T.shape[0], -1).T @ A.T).reshape(T.shape[1:] + A.shape[:1])
    return T


def _verify_against_grid(dense: np.ndarray, G: np.ndarray, bases: list[HermiteBasis]):
    # Each variable's evaluation matrix applied to the coefficient tensor
    # evaluates every grid functional at once.
    values = _along_axes(dense, [b.evaluation for b in bases])
    scale = max(1.0, float(np.max(np.abs(G))))
    worst = float(np.max(np.abs(values - G)))
    if worst <= max(1e-10 * scale, 1e-12):  # within the allowance at any conditioning
        return
    kappa = 1.0
    for b in bases:
        kappa *= max(b.condition, 1.0)
    allowed = max(1e-10 * kappa * scale, 1e-12)
    if not worst <= allowed:  # a NaN residual fails too
        raise InterpolationError(
            f"interpolant misses its defining grid by {worst:.3e} "
            f"(allowed {allowed:.3e} at condition product {kappa:.3e})"
        )
