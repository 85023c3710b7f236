"""Tensor extensions of scalar functions to tuples of matrices.

The central construction: given f of k variables and square matrices
M_1, ..., M_k, build the interpolating polynomial P that matches f's
mixed derivatives on the product of the spectra (orders set by each
eigenvalue's multiplicity in the minimal polynomial) and evaluate

    sum_alpha c_alpha  M_1^{a_1} (x) ... (x) M_k^{a_k}.

The value does not depend on which matching polynomial is used, which is
what the independence-of-interpolant tests exercise. Two more routes
compute the same tensor: an eigenbasis sum for diagonalizable arguments
and a closed form for explicit Jordan matrices; they serve as mutual
cross-checks.
"""

from __future__ import annotations

import math
import string

import numpy as np

from .errors import FieldDomainError, NotDiagonalizableError
from .interp import hermite_basis, interpolate
from .scalarfield import MultiPoly, ScalarField, derivative_grid
# ``analyze`` stays bound for bench/tracer.py, which rebinds imported names
from .spectral import SpectralData, _analyze_all, analyze, as_square_matrix  # noqa: F401
from .tensor import OperatorTensor, contract_pair, poly_tensor_eval

_LETTERS = string.ascii_letters


def _slot_matrices(f: ScalarField, mats) -> list[np.ndarray]:
    arrs = [as_square_matrix(M, f"slot {l} matrix") for l, M in enumerate(mats)]
    if f.arity != len(arrs):
        raise ValueError(f"field of arity {f.arity} applied to {len(arrs)} matrices")
    if not arrs:
        raise ValueError("at least one matrix is required")
    return arrs


def f_otimes(
    f: ScalarField,
    mats,
    *,
    spectra: list[SpectralData] | None = None,
    extra_multiplicity: int = 0,
) -> OperatorTensor:
    """The tensor extension of ``f`` at ``mats`` via interpolation.

    ``spectra`` overrides the per-slot eigenvalue analysis; pass it when
    the spectra are known exactly or are over-provisioned upper bounds
    (matching on a finer grid still yields the same tensor, it only asks
    more smoothness of ``f``), or to loosen the spectral decision, e.g.
    ``spectra=[analyze(M, cluster_tol=1e-4)]``. ``extra_multiplicity``
    pads every grid order, which changes the interpolant but must not
    change the result; the invariance tests rely on that knob.
    """
    arrs = _slot_matrices(f, mats)
    return poly_tensor_eval(_interpolant(f, arrs, spectra, extra_multiplicity), arrs)


def _interpolant(f: ScalarField, arrs, spectra, extra_multiplicity=0) -> MultiPoly:
    """The polynomial that :func:`f_otimes` evaluates at ``arrs``."""
    if spectra is None:
        data = list(_analyze_all(arrs))
    else:
        data = list(spectra)
        if len(data) != len(arrs):
            raise ValueError(f"{len(arrs)} matrices but {len(data)} spectra given")
    pad = int(extra_multiplicity)
    if pad < 0:
        raise ValueError("extra_multiplicity must be nonnegative")
    grid_nodes = [
        [(lam, r + pad) for lam, r in sd.grid_entries()] for sd in data
    ]
    # one solve per distinct node list; repr, unlike ==, tells -0.0 from 0.0
    keys = [repr(nodes) for nodes in grid_nodes]
    solved = {key: hermite_basis(nodes) for key, nodes in dict(zip(keys, grid_nodes)).items()}
    bases = [solved[key] for key in keys]
    try:
        G = derivative_grid(f, grid_nodes)
    except FieldDomainError as exc:
        raise FieldDomainError(
            f"field is not defined on the spectral grid of the arguments: {exc}"
        ) from exc
    return interpolate(G, bases)


def f_otimes_diagonalizable(f: ScalarField, mats) -> OperatorTensor:
    """Eigenbasis route: T = sum_m f(lam_m) prod_l v_{l m_l} (x) w_{l m_l}.

    Every argument must be diagonalizable; defective input raises
    :class:`NotDiagonalizableError` (the interpolation route
    :func:`f_otimes` handles those). Because only point values of ``f``
    enter, evaluation-only fields such as ``abs`` are usable here.
    """
    arrs = _slot_matrices(f, mats)
    for l, sd in enumerate(_analyze_all(arrs)):
        if not sd.is_diagonalizable:
            raise NotDiagonalizableError(
                f"slot {l} matrix has minimal multiplicities {sd.min_mult}; "
                "use f_otimes, which handles defective matrices"
            )
    eigs = []
    vmats = []
    wmats = []
    for M in arrs:
        w, V = np.linalg.eig(M)
        eigs.append(w)
        vmats.append(V)
        wmats.append(np.linalg.inv(V))

    k = len(arrs)
    axes = [w.reshape((-1,) + (1,) * (k - 1 - l)) for l, w in enumerate(eigs)]
    values = f(*axes)

    # T[i1, j1, ..., ik, jk] = sum_m values[m] prod_l V_l[i_l, m_l] W_l[m_l, j_l]
    m, i, j = _LETTERS[:k], _LETTERS[k : 2 * k], _LETTERS[2 * k : 3 * k]
    inputs = [m] + [a + b for a, b in zip(i, m)] + [b + c for b, c in zip(m, j)]
    out = "".join(a + c for a, c in zip(i, j))
    spec = ",".join(inputs) + "->" + out
    total = np.einsum(spec, values, *vmats, *wmats, optimize=True)
    return OperatorTensor(total)


def jordan_matrix(blocks) -> np.ndarray:
    """Block-diagonal matrix with one Jordan block per (value, size) pair."""
    blocks = [(complex(lam), int(size)) for lam, size in blocks]
    if not blocks or any(size < 1 for _, size in blocks):
        raise ValueError("block sizes must be positive")
    dim = sum(size for _, size in blocks)
    J = np.zeros((dim, dim), dtype=complex)
    at = 0
    for lam, size in blocks:
        for i in range(size):
            J[at + i, at + i] = lam
            if i + 1 < size:
                J[at + i, at + i + 1] = 1.0
        at += size
    return J


def jordan_closed_form(f: ScalarField, mats, blocks_per_slot) -> OperatorTensor:
    """Entrywise formula for arguments in explicit Jordan form.

    ``blocks_per_slot`` declares each matrix's blocks as (value, size)
    pairs; the matrices must equal the declared structure entry for
    entry, with no tolerance. The tensor entry at (i_1, j_1, ..., i_k, j_k)
    vanishes unless every index pair lies upper-triangular in one block,
    and otherwise equals the mixed derivative
    prod_l (1/(j_l - i_l)!) d_l^{j_l - i_l} f at the block eigenvalues.
    Those derivatives are read from one derivative grid tensor whose
    orders are the block sizes, with one gather per slot.
    """
    arrs = _slot_matrices(f, mats)
    specs = [list(b) for b in blocks_per_slot]
    if len(specs) != len(arrs):
        raise ValueError(f"{len(arrs)} matrices but {len(specs)} block structures given")
    for l, (M, blocks) in enumerate(zip(arrs, specs)):
        expected = jordan_matrix(blocks)
        if expected.shape != M.shape or not np.array_equal(expected, M):
            raise ValueError(
                f"slot {l} matrix does not equal its declared Jordan structure"
            )

    # With the block sizes as grid orders, a block's rows along its axis
    # of G start where the block starts in the matrix, so entry (i, j) of
    # a block starting at s reads row s + (j - i).
    G = derivative_grid(f, [[(lam, size) for lam, size in blocks] for blocks in specs])
    k = len(arrs)
    index, inside = [], True
    for l, blocks in enumerate(specs):
        sizes = [size for _, size in blocks]
        start = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
        order = np.arange(len(start)) - start
        fact = np.array([math.factorial(j) for j in order], dtype=float)
        fact = fact.reshape((-1,) + (1,) * (k - 1 - l))
        # real and imaginary parts apart: numpy's complex division
        # multiplies by 1/fact, which is inexact from 3! on
        G = G.real / fact + 1j * (G.imag / fact)
        upper = order[None, :] - order[:, None]
        ok = (start[:, None] == start[None, :]) & (upper >= 0)
        # slot l owns axes 2l and 2l + 1 of the result
        shape = (1,) * (2 * l) + ok.shape + (1,) * (2 * (k - 1 - l))
        index.append(np.where(ok, start[:, None] + upper, 0).reshape(shape))
        inside = inside & ok.reshape(shape)
    return OperatorTensor(np.where(inside, G[tuple(index)], 0))


def chain_contract(T: OperatorTensor):
    """Contract neighbouring slots in sequence down to a single matrix.

    Every slot must have the same dimension. On a tensor built from a
    polynomial sum_alpha c_alpha M_1^{a_1} (x) ... (x) M_k^{a_k} the
    result is sum_alpha c_alpha M_1^{a_1} M_2^{a_2} ... M_k^{a_k}, the
    noncommutative ordered product.
    """
    dims = set(T.slot_dims)
    if len(dims) > 1:
        raise ValueError(f"chain contraction needs equal slot dims, got {T.slot_dims}")
    out = T
    while isinstance(out, OperatorTensor) and out.k > 1:
        out = contract_pair(out, 1, 0)
    return np.asarray(out.data)


def matrix_function(f: ScalarField, M, *, route: str = "interp") -> np.ndarray:
    """f(M) for a one-variable field; thin wrapper over the tensor routes."""
    if f.arity != 1:
        raise ValueError("matrix_function needs a one-variable field")
    if route == "interp":
        T = f_otimes(f, [M])
    elif route == "diag":
        T = f_otimes_diagonalizable(f, [M])
    else:
        raise ValueError(f"unknown route {route!r}")
    return np.asarray(T.data)
