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
second matrix E, built apart from D out of the Taylor coefficients of
the N_i at each node, maps them back to that unit, so E D = I; neither
scales by j!. Products of one basis per variable interpolate mixed
derivative grids of several variables: such a
grid is one dense tensor, an axis per variable with its rows in the
order of :attr:`HermiteBasis.functionals`; the coefficient tensor is the
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
    order = _leja(cleaned)
    sizes = [cleaned[m][1] for m in order]
    ends = list(itertools.accumulate(sizes))
    runs = [(end - r, end - 1) for r, end in zip(sizes, ends)]  # each node's centres, in order
    starts = list(itertools.accumulate((r for _, r in cleaned), initial=0))
    grid = [t for m in order for t in range(starts[m], starts[m + 1])]  # each centre's grid row
    rows = sorted(range(len(grid)), key=grid.__getitem__)  # the centre of each grid row
    centres = np.array([cleaned[m][0] for m, r in zip(order, sizes) for _ in range(r)])
    with np.errstate(all="ignore"):
        D, E = _newton_matrices(centres, runs)
    if not (np.isfinite(D).all() and np.isfinite(E).all()):
        raise InterpolationError(f"the Newton basis on nodes {cleaned} overflows")
    return HermiteBasis(tuple(cleaned), centres, D[:, rows], E[rows])


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


def _newton_matrices(z: np.ndarray, runs):
    """D and E in centre order; ``runs`` holds each node's first and last centre.

    Centre p of a run from a stands for the grid row of Taylor order
    j = p - a at its node, f^(j)(lam)/j!. D[i, p] is that row's weight in
    f[z_0..z_i]. By residues,
    f[z_0..z_i] = sum over the nodes lam of sum_{j<c} f^(j)(lam)/j! w_{c-1-j},
    with c the copies of lam among z_0..z_i and w_s the Taylor coefficient
    of order s at lam of the product of 1/(x - z_q) over the other centres
    q <= i; it is 0 unless i >= p. E[p, i] is the j-th Taylor coefficient
    at z_p of N_i; N_i(z_p + h) = prod_{q<i} (h + z_p - z_q) is h^c, with c
    the copies of z_p among z_0..z_{i-1}, times the product over the other
    centres; it is 0 unless i <= p. When every node has order 1 only the
    products' values enter, running products along each row of z_p - z_q;
    otherwise each run's rows come from :func:`_run_rows`.
    """
    n = z.size
    if all(a == b for a, b in runs):
        d = z[:, None] - z  # [p, q]: z_p - z_q
        v = np.ones((n, n), dtype=complex)  # [p, i]: the product over q < i, 0 from i > p on
        np.cumprod(d[:, :-1], axis=1, out=v[:, 1:])
        d.flat[:: n + 1] = 1.0
        w = np.cumprod(1.0 / d, axis=1)  # [p, i]: the product over q <= i, q != p
        w *= np.arange(n)[:, None] <= np.arange(n)
        return w.T, v
    rows = [_run_rows((z[a] - z).tolist(), a, b) for a, b in runs]
    D = np.array([row for wr, _ in rows for row in wr], dtype=complex).T
    return D, np.array([row for _, vr in rows for row in vr], dtype=complex)


def _run_rows(gaps, a: int, b: int):
    """The rows a..b of D (transposed) and E for the run of centres a..b.

    ``gaps`` holds z_a - z_q. Along i, S holds the Taylor coefficients of
    the product of 1/(h + gaps[q]) over the other centres q <= i, and T
    those of the product of (h + gaps[q]) over the other centres q < i,
    each to the run's length; a factor more is a series division or
    product. Grid rows hold Taylor coefficients too, so row p = a + j of
    D reads S_{c-1-j} and row p of E reads T_{j-c}, with c as in
    :func:`_newton_matrices`, and 0 where that index is negative.
    """
    r, n = b - a + 1, len(gaps)
    S, T = [1.0] + [0.0] * (r - 1), [1.0] + [0.0] * (r - 1)
    wr, vr = [[0.0] * n for _ in range(r)], [[0.0] * n for _ in range(r)]
    for i in range(a):  # before the run: no copies of z_a, nothing of D
        for j in range(r):
            vr[j][i] = T[j]
        g = gaps[i]
        y = 1.0 / g
        S[0] *= y
        for s in range(1, r):
            S[s] = (S[s] - S[s - 1]) * y
            T[r - s] = T[r - s] * g + T[r - s - 1]
        T[0] *= g
    for i in range(a, b + 1):  # along it: i - a copies before i, i - a + 1 up to it
        for j in range(i - a, r):
            vr[j][i] = T[j - i + a]
        for j in range(i - a + 1):
            wr[j][i] = S[i - a - j]
    for i in range(b + 1, n):  # after it: all r copies, nothing of E
        y = 1.0 / gaps[i]
        S[0] *= y
        for s in range(1, r):
            S[s] = (S[s] - S[s - 1]) * y
        for j in range(r):
            wr[j][i] = S[r - 1 - j]
    return wr, vr


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
    return MultiPoly(len(bases), _coefficients(G, bases), [b.centres for b in bases])


def _coefficients(G, bases: list[HermiteBasis]) -> np.ndarray:
    """The coefficient tensor of :func:`interpolate`, checked against ``G``; untrimmed,
    axis l has ``bases[l].size`` rows."""
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
    return dense


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
