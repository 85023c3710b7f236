"""Tensor extensions of scalar functions to tuples of matrices.

The central construction: given f of k variables and square matrices
M_1, ..., M_k, build the interpolating polynomial P that matches f's
mixed derivatives on the product of the spectra (a node per block of
eigenvalues, its order the block's size plus a Taylor pad) and evaluate

    sum_alpha c_alpha  M_1^{a_1} (x) ... (x) M_k^{a_k},

which is computed in P's Newton form, a product (M_l - z I) per centre z
of each slot's basis in place of each power. The value does not depend
on which matching polynomial is used, which is what the
independence-of-interpolant tests exercise. Normal arguments skip P:
their extension is a sum over a unitary eigenbasis of point values of f.
Two more routes compute the same tensor: an eigenbasis sum for
diagonalizable arguments and a closed form for explicit Jordan matrices;
they serve as mutual cross-checks.
"""

from __future__ import annotations

import math
import string

import numpy as np

from .errors import FieldDomainError, NotDiagonalizableError, SpectralError
from .interp import hermite_basis, interpolate
from .scalarfield import ScalarField, derivative_grid
# ``analyze`` stays bound for bench/tracer.py, which rebinds imported names
from .spectral import (SpectralData, _analyze_all, _binary_exponent, analyze,  # noqa: F401
                       as_slot_matrices)
from .tensor import OperatorTensor, _network, _pairs, contract_pair, poly_tensor_eval

_LETTERS = string.ascii_letters
#: The largest Taylor pad of a block (:func:`_padded_nodes`): radius rho at distance R
#: from f's nearest singularity needs about log(eps) / log(rho / R); 32 covers rho / R <= 1/3.
PAD_CAP = 32


def _slot_matrices(f: ScalarField, mats) -> list[np.ndarray]:
    arrs = as_slot_matrices(mats)
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
    """The tensor extension of ``f`` at ``mats``.

    With neither ``spectra`` nor a pad given and every slot normal, it is
    the eigenbasis sum of :func:`_unitary_extension`: f at the eigenvalues
    and each slot's unitary frame, with no grid, basis or Newton stack. A
    field that is evaluation-only, or has no Taylor pad near a cluster,
    may then return where interpolation refuses. Otherwise it interpolates.
    The grid of each slot has one node per block of its spectrum
    (:attr:`~matfn.spectral.SpectralData.blocks`), at the block's centre,
    with the order s + p for a block of size s: p is the Taylor pad of
    :func:`_padded_nodes`, 0 at radius 0. No rank ladder runs.
    ``spectra`` overrides the per-slot eigenvalue analysis; pass it when
    the spectra are known exactly or are over-provisioned upper bounds
    (matching on a finer grid still yields the same tensor, it only asks
    more smoothness of ``f``): data built with an explicit ``min_mult``
    takes those orders. ``extra_multiplicity`` pads every grid order,
    which changes the interpolant but must not change the result; the
    invariance tests rely on that knob.
    """
    arrs = _slot_matrices(f, mats)
    pad = int(extra_multiplicity)
    if pad < 0:
        raise ValueError("extra_multiplicity must be nonnegative")
    if spectra is None:
        unitary = None if pad else _unitary_extension(f, arrs)
        if unitary is not None:
            return unitary
        arr_keys, distinct = _distinct(arrs)
        by_key = dict(zip(distinct, _analyze_all(list(distinct.values()))))
        data = [by_key[key] for key in arr_keys]
    else:
        data = list(spectra)
        if len(data) != len(arrs):
            raise ValueError(f"{len(arrs)} matrices but {len(data)} spectra given")
    try:
        grid_nodes = _padded_nodes(f, [sd.blocks for sd in data], pad)
        G = derivative_grid(f, grid_nodes)
    except FieldDomainError as exc:
        raise FieldDomainError(
            f"field is not defined on the spectral grid of the arguments: {exc}"
        ) from exc
    # one solve per distinct node list; repr, unlike ==, tells -0.0 from 0.0
    keys = [repr(nodes) for nodes in grid_nodes]
    solved = {key: hermite_basis(nodes) for key, nodes in dict(zip(keys, grid_nodes)).items()}
    return poly_tensor_eval(interpolate(G, [solved[key] for key in keys]), arrs)


def _distinct(arrs):
    """Each slot's key, and the distinct matrices by key: equal matrices share one."""
    keys = [A.tobytes() for A in arrs]
    return keys, dict(zip(keys, arrs))


def _unitary_extension(f: ScalarField, arrs) -> OperatorTensor | None:
    """The network (values, Q_l, Q_l^H) if every slot is normal, else None.

    A normal M = Q diag(lam) Q^H has a unitary Q, and the extension is
    sum_m f(lam_{m_1}, ..., lam_{m_k}) (x)_l q_{l m_l} q_{l m_l}^H: point values
    of f only, with no node order, pad or transform D (Higham, *Functions of
    Matrices*, 2008, sec. 4.5). Each distinct matrix A is scaled by 2^-e
    (:func:`~matfn.spectral._binary_exponent`), exactly, to B, so no product
    overflows, and is normal when ||B^H B - B B^H||_F <= 100 eps ||B||_F^2;
    every test runs before any frame. Q is the QR factor of ``eig``'s
    eigenvectors and lam ``eig``'s eigenvalues, and the frame stands when
    ||BQ - Q diag(lam)||_F <= 100 eps sqrt(d) ||B||_F and 2^e lam is finite.
    """
    tol = 100 * np.finfo(float).eps
    keys, distinct = _distinct(arrs)
    scaled = {}
    for key, A in distinct.items():
        e = _binary_exponent(A)
        B = A * math.ldexp(1.0, -e)
        if not np.linalg.norm(B.conj().T @ B - B @ B.conj().T) <= tol * np.vdot(B, B).real:
            return None
        scaled[key] = e, B
    frames = {}
    for key, (e, B) in scaled.items():
        mu, V = np.linalg.eig(B)
        Q = np.linalg.qr(V)[0]
        with np.errstate(over="ignore"):
            lam = np.ldexp(mu.view(float), e).view(complex)  # B's eigenvalues times 2^e
        if not (np.linalg.norm(B @ Q - Q * mu) <= tol * math.sqrt(len(B)) * np.linalg.norm(B)
                and np.isfinite(lam).all()):
            return None
        frames[key] = lam, Q
    lams, Qs = zip(*(frames[key] for key in keys))
    k = len(arrs)
    try:
        values = f(*(lam.reshape((-1,) + (1,) * (k - 1 - l)) for l, lam in enumerate(lams)))
        if not np.isfinite(values).all():
            raise FieldDomainError("a value at the eigenvalues is not finite")
    except FieldDomainError as exc:
        raise FieldDomainError(
            f"field is not defined on the spectral grid of the arguments: {exc}"
        ) from exc
    if 3 * k > len(_LETTERS):  # more indices than einsum has letters: dense, as poly_tensor_eval
        for Q in Qs:
            values = np.tensordot(values, np.einsum("im,jm->mij", Q, Q.conj()), axes=(0, 0))
        return OperatorTensor(values)
    ms, pairs = _LETTERS[2 * k : 3 * k], _pairs(k)
    subs = [ms] + [up + m for m, (up, _) in zip(ms, pairs)]
    subs += [m + down for m, (_, down) in zip(ms, pairs)]
    return _network([values, *Qs, *(Q.conj().T for Q in Qs)], subs, pairs)


def _padded_nodes(f: ScalarField, blocks, pad: int) -> list[list[tuple[complex, int]]]:
    """Each slot's grid nodes on its blocks: (c, s, rho) is the node c of order s + ``pad`` + p.

    Radius 0 means p = 0. Otherwise p is the smallest pad past which every
    Taylor term rho^j |d^j f / j!| up to order s + ``pad`` + ``PAD_CAP`` is
    at most eps times the largest Taylor coefficient of order below the
    block sizes on the grid, the entries of f(J) at a Jordan block J; both
    are moduli of :func:`derivative_grid` entries, as it holds them. That
    tail bounds the remainder on eigenvalues within rho of c (Davies &
    Higham, SIMAX 25(2), 2003, sec. 2.3); one small term does not, since a
    coefficient can vanish, as sin's does at pi. The largest coefficient
    comes from one walk at the block sizes. The terms come from one walk
    per slot that holds such a block, its blocks of positive radius walked
    to the cap, its other nodes at their unpadded order and the other
    slots' nodes at order 1: the derivative is at its largest over the
    other slots' nodes. A term above the bound at the cap is a
    :class:`SpectralError`.
    """
    final = [[(c, s + pad) for c, s, _ in b] for b in blocks]
    padded = [l for l, b in enumerate(blocks) if any(rho > 0 for _, _, rho in b)]
    if not padded:
        return final
    G = derivative_grid(f, [[(c, s) for c, s, _ in b] for b in blocks])
    tol = np.finfo(float).eps * np.abs(G).max()
    for l in padded:
        nodes = [[(c, 1) for c, _, _ in b] for b in blocks]
        nodes[l] = [(c, o + PAD_CAP + 1 if rho > 0 else o)
                    for (c, o), (_, _, rho) in zip(final[l], blocks[l])]
        along = np.abs(np.moveaxis(derivative_grid(f, nodes), l, 0))
        along = along.reshape(sum(r for _, r in nodes[l]), -1)
        along, at = along.max(axis=1), 0
        for m, ((c, s, rho), (_, r)) in enumerate(zip(blocks[l], nodes[l])):
            o = s + pad
            big = np.flatnonzero(along[at + o : at + r] * rho ** np.arange(o, r) > tol)
            if big.size and big[-1] == r - o - 1:
                raise SpectralError(f"no Taylor pad up to {PAD_CAP} settles the block of {s} "
                                    f"eigenvalue(s) at {c:.6g} of radius {rho:.3e}")
            if big.size:  # empty at radius 0, where r = o
                final[l][m] = (c, o + int(big[-1]) + 1)
            at += r
    return final


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
    and otherwise equals the mixed Taylor coefficient
    prod_l (1/(j_l - i_l)!) d_l^{j_l - i_l} f at the block eigenvalues:
    an entry of the derivative grid tensor whose orders are the block
    sizes, gathered as it is, with one index per slot.
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
