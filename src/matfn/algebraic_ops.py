"""Structural identities of the tensor extension, packaged as checkers.

Each checker builds both sides of an identity independently and returns
the residual together with the scale it should be judged against, so
callers pick their own tolerances. Nothing here short-circuits: the two
routes stay separate so that agreement is evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcalc import _slot_matrices, f_otimes
from .scalarfield import ScalarField, merge_variables, substitute_value, compose
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_RANK_TOL,
    SpectralData,
    _analyze_all,
    as_square_matrix,
    hs_norm,
    merge_clusters,
)
from .tensor import OperatorTensor, contract_pair, trace_slot


@dataclass(frozen=True)
class ProductCheck:
    """Residuals of the product identity on one instance.

    ``product_residual`` = || Mbar_1 Mbar_2 - (f1 f2)bar ||_HS where the
    bars are matrix views of the tensor extensions; ``commutator_norm``
    = || Mbar_1 Mbar_2 - Mbar_2 Mbar_1 ||_HS (the extensions of functions
    of the same arguments commute); ``scale`` = || Mbar_1 Mbar_2 ||_HS.
    """

    product_residual: float
    commutator_norm: float
    scale: float


def product_identity_check(f1: ScalarField, f2: ScalarField, mats) -> ProductCheck:
    """Check (f1 f2)^tensor = f1^tensor f2^tensor in the matrix view."""
    if f1.arity != f2.arity:
        raise ValueError("both fields must have the same arity")
    arrs = _slot_matrices(f1, mats)
    spectra = list(_analyze_all(arrs))
    A = f_otimes(f1, arrs, spectra=spectra).as_matrix()
    B = f_otimes(f2, arrs, spectra=spectra).as_matrix()
    AB = f_otimes(f1 * f2, arrs, spectra=spectra).as_matrix()
    prod = A @ B
    return ProductCheck(
        product_residual=float(np.linalg.norm(prod - AB)),
        commutator_norm=float(np.linalg.norm(prod - B @ A)),
        scale=float(np.linalg.norm(prod)),
    )


# ---------------------------------------------------------------------------
# composition


@dataclass(frozen=True)
class DerivedSpectrum:
    """Spectrum bound for the matrix view of a tensor extension.

    ``values`` are the clustered values of the field on eigenvalue
    tuples of its arguments; ``mult_bounds`` bound each value's
    multiplicity in the minimal polynomial (1 + sum of the argument
    multiplicities minus one per slot, maximized over contributing
    tuples); ``alg_mults`` count eigenvalue tuples with algebraic
    weights, so they sum to the product of the argument dimensions.
    """

    values: tuple[complex, ...]
    mult_bounds: tuple[int, ...]
    alg_mults: tuple[int, ...]

    def as_spectral_data(self, dim: int) -> SpectralData:
        return SpectralData(
            eigenvalues=self.values,
            alg_mult=self.alg_mults,
            min_mult=self.mult_bounds,
            dim=dim,
        )


def derived_spectrum(f: ScalarField, spectra: list[SpectralData]) -> DerivedSpectrum:
    """Values of ``f`` on eigenvalue tuples, with multiplicity bounds.

    Values merge within ``DEFAULT_CLUSTER_TOL`` relative to the largest
    value magnitude (or 1 if all values are small), mirroring the matrix
    clustering rule.
    """
    if len(spectra) != f.arity:
        raise ValueError(f"field arity {f.arity} but {len(spectra)} spectra given")
    # one axis per slot, so that the tuples are the broadcast grid, in C order
    k = len(spectra)
    axes = [(-1,) + (1,) * (k - 1 - l) for l in range(k)]
    values = f(*(np.reshape(sd.eigenvalues, a) for sd, a in zip(spectra, axes)))
    bounds = 1 + sum(np.reshape(sd.min_mult, a) - 1 for sd, a in zip(spectra, axes))
    weights = math.prod(np.reshape(sd.alg_mult, a) for sd, a in zip(spectra, axes))
    shape = tuple(len(sd.eigenvalues) for sd in spectra)
    cols = (np.broadcast_to(x, shape).ravel().tolist() for x in (values, bounds, weights))
    raw = list(zip(*cols))

    scale = max(1.0, max(abs(v) for v, _, _ in raw))
    threshold = DEFAULT_CLUSTER_TOL * scale
    rows = []
    for g in merge_clusters([v for v, _, _ in raw], threshold):
        value = sum(raw[i][0] for i in g) / len(g)
        bound = max(raw[i][1] for i in g)
        weight = sum(raw[i][2] for i in g)
        rows.append((value, bound, weight))
    rows.sort(key=lambda r: (r[0].real, r[0].imag))
    return DerivedSpectrum(
        values=tuple(v for v, _, _ in rows),
        mult_bounds=tuple(b for _, b, _ in rows),
        alg_mults=tuple(w for _, _, w in rows),
    )


@dataclass(frozen=True)
class ComposeCheck:
    residual: float
    scale: float
    derived: tuple[DerivedSpectrum, ...]


def compose_identity_check(
    g: ScalarField,
    inner_fields: list[ScalarField],
    mats_groups: list[list],
) -> ComposeCheck:
    """Check g^tensor of the inner matrix views against the flat route.

    The left side applies ``g`` to the matrices Mbar_q obtained from each
    inner field's tensor extension, interpolating on the derived spectrum
    bounds (any grid at least as fine as the true one gives the same
    tensor). The right side extends g(f_1, ..., f_r) over all the
    original arguments at once. Both land in the same space after the
    matrix view; the residual is the HS distance.
    """
    if len(inner_fields) != g.arity:
        raise ValueError(f"outer arity {g.arity} but {len(inner_fields)} inner fields")
    if len(mats_groups) != len(inner_fields):
        raise ValueError("one matrix group per inner field is required")
    groups = [[as_square_matrix(M) for M in grp] for grp in mats_groups]
    flat_mats = [M for grp in groups for M in grp]
    flat_spectra = list(_analyze_all(flat_mats))
    unpack = iter(flat_spectra)
    spectra_groups = [[next(unpack) for _ in grp] for grp in groups]

    bars = []
    derived = []
    for fq, grp, specs in zip(inner_fields, groups, spectra_groups):
        T = f_otimes(fq, grp, spectra=specs)
        bars.append(T.as_matrix())
        derived.append(derived_spectrum(fq, specs))
    outer_spectra = [ds.as_spectral_data(bar.shape[0]) for ds, bar in zip(derived, bars)]
    lhs = f_otimes(g, bars, spectra=outer_spectra).as_matrix()

    h = compose(g, inner_fields)
    rhs = f_otimes(h, flat_mats, spectra=flat_spectra).as_matrix()

    return ComposeCheck(
        residual=float(np.linalg.norm(lhs - rhs)),
        scale=float(np.linalg.norm(lhs)),
        derived=tuple(derived),
    )


# ---------------------------------------------------------------------------
# contractions


@dataclass(frozen=True)
class TraceContractCheck:
    contracted: OperatorTensor | complex
    reduced_field: ScalarField
    residual: float
    scale: float


def contract_trace_theorem(f: ScalarField, mats, slot: int) -> TraceContractCheck:
    """Tracing one slot equals dropping it from the field.

    The reduced field is sum_m s_m f(..., lam_m, ...) over the traced
    slot's spectrum, algebraic multiplicities as weights; the residual
    compares the traced tensor against the reduced field's extension of
    the remaining arguments.
    """
    arrs = _slot_matrices(f, mats)
    if not 0 <= slot < len(arrs):
        raise ValueError(f"slot {slot} out of range")
    if len(arrs) < 2:
        raise ValueError("the trace reduction needs at least two slots")
    spectra = list(_analyze_all(arrs))
    T = f_otimes(f, arrs, spectra=spectra)
    lhs = trace_slot(T, slot)

    sd = spectra[slot]
    reduced = None
    for lam, s in zip(sd.eigenvalues, sd.alg_mult):
        term = s * substitute_value(f, slot, lam)
        reduced = term if reduced is None else reduced + term
    rest = arrs[:slot] + arrs[slot + 1 :]
    rest_spectra = spectra[:slot] + spectra[slot + 1 :]
    rhs = f_otimes(reduced, rest, spectra=rest_spectra)

    diff = lhs.data - rhs.data
    return TraceContractCheck(
        contracted=lhs,
        reduced_field=reduced,
        residual=float(np.linalg.norm(diff)),
        scale=float(np.linalg.norm(rhs.data)),
    )


@dataclass(frozen=True)
class EqualSlotsCheck:
    contracted: OperatorTensor | complex
    reduced_field: ScalarField
    order_residual: float
    reduced_residual: float
    scale: float


def contract_equal_slots_theorem(
    f: ScalarField,
    mats,
    keep: int,
    drop: int,
) -> EqualSlotsCheck:
    """Contracting two slots holding the same matrix merges the variables.

    Requires mats[keep] and mats[drop] entrywise equal and keep < drop
    (the merged slot sits at the kept position). Both contraction orders
    are formed; they must agree with each other and with the extension
    of f after identifying variable ``drop`` with ``keep``.
    """
    arrs = _slot_matrices(f, mats)
    if not keep < drop:
        raise ValueError("the kept slot must precede the dropped slot")
    if not np.array_equal(arrs[keep], arrs[drop]):
        raise ValueError("the contracted slots must hold the same matrix entrywise")
    spectra = list(_analyze_all(arrs))
    T = f_otimes(f, arrs, spectra=spectra)

    first = contract_pair(T, drop, keep)
    second = contract_pair(T, keep, drop)
    a = first.data if isinstance(first, OperatorTensor) else np.asarray(first)
    b = second.data if isinstance(second, OperatorTensor) else np.asarray(second)
    order_residual = float(np.linalg.norm(a - b))

    g = merge_variables(f, keep, drop)
    rest = [M for l, M in enumerate(arrs) if l != drop]
    rest_spectra = [sd for l, sd in enumerate(spectra) if l != drop]
    rhs = f_otimes(g, rest, spectra=rest_spectra)

    reduced_residual = float(np.linalg.norm(a - rhs.data))
    return EqualSlotsCheck(
        contracted=first,
        reduced_field=g,
        order_residual=order_residual,
        reduced_residual=reduced_residual,
        scale=float(np.linalg.norm(rhs.data)),
    )


@dataclass(frozen=True)
class SwapCheck:
    residual: float
    scale: float
    commutator_norm: float


def commuting_swap_check(f: ScalarField, mats, p: int, q: int) -> SwapCheck:
    """For commuting arguments the two mixed contractions agree.

    Contracting up(p) against down(q) and up(q) against down(p) give the
    same tensor when [M_p, M_q] = 0. A commutator above
    ``DEFAULT_RANK_TOL * scale``, the relative zero of the rank test, is
    an input error, reported with the measured norm.
    """
    arrs = _slot_matrices(f, mats)
    if p == q:
        raise ValueError("p and q must be different slots")
    if arrs[p].shape != arrs[q].shape:
        raise ValueError("slots p and q must have equal dimensions")
    comm = arrs[p] @ arrs[q] - arrs[q] @ arrs[p]
    comm_norm = float(np.linalg.norm(comm))
    scale = max(1.0, hs_norm(arrs[p]) * hs_norm(arrs[q]))
    if comm_norm > DEFAULT_RANK_TOL * scale:
        raise ValueError(
            f"arguments do not commute: ||[M_p, M_q]|| = {comm_norm:.3e} "
            f"exceeds {DEFAULT_RANK_TOL:.1e} * {scale:.3e}"
        )
    spectra = list(_analyze_all(arrs))
    T = f_otimes(f, arrs, spectra=spectra)
    first = contract_pair(T, q, p)
    second = contract_pair(T, p, q)
    a = first.data if isinstance(first, OperatorTensor) else np.asarray(first)
    b = second.data if isinstance(second, OperatorTensor) else np.asarray(second)
    return SwapCheck(
        residual=float(np.linalg.norm(a - b)),
        scale=float(max(np.linalg.norm(a), 1.0)),
        commutator_norm=comm_norm,
    )
