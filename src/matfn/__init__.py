"""Calculus of functions of several variables applied to matrices.

A field f(x_1, ..., x_k) and square matrices M_1, ..., M_k produce the
tensor extension: the unique evaluation of any polynomial matching f's
derivative grid on the spectra, taken slotwise. Everything else in the
package (contractions, products, compositions, derivative and
perturbation formulas, antisymmetric pairings) is built on top of it.

The public names below load their module on first use (PEP 562), so a
process imports only the layers it calls.
"""

import importlib

__version__ = "0.1.0"

#: module -> the public names it defines
_EXPORTS = {
    "errors": (
        "FieldDomainError",
        "FieldParseError",
        "InterpolationError",
        "MatfnError",
        "NotDiagonalizableError",
        "SpectralError",
    ),
    "scalarfield": (
        "MultiPoly",
        "ScalarField",
        "absval",
        "compose",
        "constant",
        "derivative_grid",
        "exp",
        "log",
        "merge_variables",
        "min_const",
        "parse_field",
        "poly_to_field",
        "substitute_value",
        "variable",
    ),
    "spectral": ("SpectralData", "analyze", "hs_norm", "minimal_polynomial"),
    "interp": ("HermiteBasis", "hermite_basis", "interpolate"),
    "tensor": (
        "OperatorTensor",
        "apply_vectors",
        "conjugate_slots",
        "contract_adjacent_through",
        "contract_pair",
        "from_matrix",
        "poly_tensor_eval",
        "tensor_product",
        "trace_slot",
        "transpose_slot",
    ),
    "funcalc": (
        "chain_contract",
        "f_otimes",
        "f_otimes_diagonalizable",
        "jordan_closed_form",
        "jordan_matrix",
        "matrix_function",
    ),
    "calculus": (
        "divided_difference",
        "divided_difference_field",
        "divided_difference_table",
        "doubled_node_difference_field",
        "eigenvalue_derivative",
        "first_difference_field",
        "frechet_derivative",
        "nth_derivative_curve",
        "projector_derivative",
        "trace_derivative",
        "u_function",
    ),
    "algebraic_ops": (
        "ComposeCheck",
        "DerivedSpectrum",
        "EqualSlotsCheck",
        "ProductCheck",
        "SwapCheck",
        "TraceContractCheck",
        "commuting_swap_check",
        "compose_identity_check",
        "contract_equal_slots_theorem",
        "contract_trace_theorem",
        "derived_spectrum",
        "product_identity_check",
    ),
    "antisym": (
        "antisym_projector",
        "det_from_traces",
        "distinct_tuple_sum",
        "wedge_basis",
        "wedge_restrict",
    ),
    "verify": ("CheckResult", "run_suites"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # looked up afresh on every access and never stored here, so the package
    # always hands out what the defining module holds now
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
