"""Interpolation on spectra with derivative conditions.

The dual basis solved for here consists of polynomials P_{mj} with

    d^{j'}/dx^{j'} P_{mj}(lam_{m'}) = 1 if (m, j) == (m', j') else 0,

one for every node m and derivative order j < r_m. Any function with
enough derivatives at the nodes then has the interpolant
sum f^{(j)}(lam_m) P_{mj}, and products of one such basis per variable
interpolate mixed derivative grids of several variables. Such a grid is
one dense tensor, an axis per variable with its rows in the order of
:attr:`HermiteBasis.functionals`; the coefficient tensor is that grid
with each variable's axis mapped through its basis, a mode product per
variable, and the self-check maps it back the same way.
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
    """Dual polynomial basis for one variable's interpolation nodes.

    ``nodes`` holds (value, order) pairs; ``coeff`` column t is the
    monomial coefficient vector of the t-th dual polynomial, columns
    ordered like ``functionals``, which is also the row order of this
    variable's axis of a derivative grid tensor. ``vandermonde`` is the
    confluent Vandermonde matrix that ``coeff`` inverts (row t evaluates
    the t-th functional on the monomials) and ``condition`` its
    condition number.
    """

    nodes: tuple[tuple[complex, int], ...]
    coeff: np.ndarray
    vandermonde: np.ndarray
    condition: float

    @property
    def size(self) -> int:
        return self.coeff.shape[0]

    @property
    def functionals(self) -> list[tuple[int, int]]:
        return [(m, j) for m, (_, r) in enumerate(self.nodes) for j in range(r)]


def _confluent_vandermonde(nodes) -> np.ndarray:
    functionals = [(lam, j) for lam, r in nodes for j in range(r)]
    n_total = len(functionals)
    A = np.zeros((n_total, n_total), dtype=complex)
    for row, (lam, j) in enumerate(functionals):
        for n in range(j, n_total):
            A[row, n] = math.perm(n, j) * lam ** (n - j)
    return A


def hermite_basis(nodes) -> HermiteBasis:
    """Solve for the dual basis on ``nodes`` = [(value, order), ...].

    Distinct nodes that are :func:`~matfn.scalarfield.confluent` with
    floor 0.01 are rejected; merging them (one node, higher order) is the
    caller's decision. The floor keeps the window absolute, 1e-12, only
    near zero, so the well-separated spectrum of a small matrix is
    accepted; the divided difference tables may still take such a pair as
    one node, and the grid then holds the derivative at its centroid.
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
    A = _confluent_vandermonde(cleaned)
    n_total = A.shape[0]
    try:
        C = np.linalg.solve(A, np.eye(n_total, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise InterpolationError(
            f"confluent Vandermonde system for nodes {cleaned} is singular"
        ) from exc
    condition = float(np.linalg.cond(A))
    return HermiteBasis(nodes=tuple(cleaned), coeff=C, vandermonde=A, condition=condition)


def interpolate(G, bases: list[HermiteBasis]) -> MultiPoly:
    """The polynomial matching a mixed derivative grid.

    ``G`` is the grid tensor of :func:`~matfn.scalarfield.derivative_grid`:
    one axis per variable, of length ``bases[l].size``, its rows in the
    order of ``bases[l].functionals``, so that the entry at rows
    (m_l, j_l) is the prescribed value of (prod_l d_l^{j_l}) P at the node
    tuple. Any other shape is an :class:`InterpolationError`. The
    coefficient tensor, G with each axis mapped through its basis, is
    verified against G (an :class:`InterpolationError` carries the
    residual if the defining conditions are not met to within what the
    conditioning allows) and becomes the result's ``dense`` array as is.
    """
    k = len(bases)
    if k == 0:
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
    dense = _along_axes(G, [b.coeff for b in bases])
    _verify_against_grid(dense, G, bases)
    return MultiPoly(k, dense)


def _along_axes(T: np.ndarray, mats) -> np.ndarray:
    """Apply ``mats[l]`` to axis l of ``T``, for every axis.

    Each tensordot consumes the leading axis and appends the new one, so
    after one round the axes are back in their original order.
    """
    for A in mats:
        T = np.tensordot(T, A, axes=(0, 1))
    return T


def _verify_against_grid(dense: np.ndarray, G: np.ndarray, bases: list[HermiteBasis]):
    # Applying each variable's confluent Vandermonde matrix to the
    # coefficient tensor evaluates every grid functional at once.
    values = _along_axes(dense, [b.vandermonde for b in bases])
    scale = max(1.0, float(np.max(np.abs(G))))
    kappa = 1.0
    for b in bases:
        kappa *= max(b.condition, 1.0)
    allowed = max(1e-10 * kappa * scale, 1e-12)

    worst = float(np.max(np.abs(values - G)))
    if worst > allowed:
        raise InterpolationError(
            f"interpolant misses its defining grid by {worst:.3e} "
            f"(allowed {allowed:.3e} at condition product {kappa:.3e})"
        )
