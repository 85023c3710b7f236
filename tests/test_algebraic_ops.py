"""Product, composition and contraction identities as checkable objects."""

import itertools
import math

import numpy as np
import pytest

from matfn import (
    analyze,
    commuting_swap_check,
    compose_identity_check,
    contract_equal_slots_theorem,
    contract_trace_theorem,
    derived_spectrum,
    f_otimes,
    parse_field,
    product_identity_check,
)
from matfn.funcalc import jordan_matrix
from matfn.spectral import DEFAULT_CLUSTER_TOL, merge_clusters

rng = np.random.default_rng(41)


def test_product_identity_basic():
    mats = [rng.normal(size=(3, 3)), rng.normal(size=(2, 2))]
    f1 = parse_field("x1 + x2")
    f2 = parse_field("x1*x2")
    check = product_identity_check(f1, f2, mats)
    assert check.product_residual < 1e-8 * check.scale
    assert check.commutator_norm < 1e-8
    assert check.scale > 0


def test_product_identity_on_defective_input():
    mats = [jordan_matrix([(1.5, 3)])]
    check = product_identity_check(parse_field("exp(x1)"), parse_field("x1^2"), [mats[0]])
    assert check.product_residual < 1e-8 * check.scale


def test_trace_contraction_theorem():
    A = rng.normal(size=(2, 2))
    B = np.diag([3.0, 4.0])
    f = parse_field("x1*x2")
    check = contract_trace_theorem(f, [A, B], 1)
    assert check.residual < 1e-10
    # tracing out x2 at eigenvalues {3, 4} leaves the field x1*3 + x1*4
    reduced = check.reduced_field
    assert reduced.arity == 1
    assert reduced(2.0) == pytest.approx(14.0)
    assert np.allclose(check.contracted.data, 7.0 * A, atol=1e-10)


def test_trace_contraction_with_multiplicity():
    A = rng.normal(size=(2, 2))
    B = np.diag([5.0, 5.0, 2.0])
    f = parse_field("x1 + x2")
    check = contract_trace_theorem(f, [A, B], 1)
    # sum over the spectrum with multiplicity: 3 x1 + (5 + 5 + 2)
    assert check.reduced_field(1.0) == pytest.approx(15.0)
    assert check.residual < 1e-10


def test_equal_slots_contraction():
    M = rng.normal(size=(3, 3))
    B = rng.normal(size=(2, 2))
    f = parse_field("x1*x2*x3")
    check = contract_equal_slots_theorem(f, [M, B, M], 0, 2)
    assert check.order_residual < 1e-8
    assert check.reduced_residual < 1e-8
    # merged field is x1^2 * x2 on (M, B)
    assert check.reduced_field(2.0, 3.0) == pytest.approx(12.0)


def test_equal_slots_on_defective_matrix():
    M = jordan_matrix([(0.5, 2), (2.0, 1)])
    f = parse_field("x1*x2")
    check = contract_equal_slots_theorem(f, [M, M], 0, 1)
    assert check.order_residual < 1e-9
    assert check.reduced_residual < 1e-9


def test_equal_slots_requires_keep_before_drop():
    M = rng.normal(size=(2, 2))
    with pytest.raises(ValueError):
        contract_equal_slots_theorem(parse_field("x1*x2"), [M, M], 1, 0)


def test_swap_check_commuting():
    M = rng.normal(size=(3, 3))
    N = M @ M - 2 * M
    check = commuting_swap_check(parse_field("x1 + x2^2"), [M, N], 0, 1)
    assert check.commutator_norm < 1e-10
    assert check.residual < 1e-8


def test_swap_check_rejects_noncommuting():
    M = rng.normal(size=(3, 3))
    N = rng.normal(size=(3, 3))
    with pytest.raises(ValueError, match="commut"):
        commuting_swap_check(parse_field("x1*x2"), [M, N], 0, 1)


def test_derived_spectrum_values():
    f = parse_field("x1 + 10*x2")
    spectra = [analyze(np.diag([1.0, 2.0])), analyze(np.diag([1.0, 2.0]))]
    derived = derived_spectrum(f, spectra)
    assert sorted(v.real for v in derived.values) == pytest.approx([11, 12, 21, 22])
    assert derived.mult_bounds == (1, 1, 1, 1)
    assert sum(derived.alg_mults) == 4


def test_derived_spectrum_bounds_honest():
    # the declared multiplicity bound must dominate what the matrix
    # view of the extension actually has
    f = parse_field("x1*x2")
    J = jordan_matrix([(2.0, 2)])
    spectra = [analyze(J), analyze(np.diag([3.0, 5.0]))]
    derived = derived_spectrum(f, spectra)
    ext = analyze(f_otimes(f, [J, np.diag([3.0, 5.0])]).as_matrix())
    for value, bound in zip(derived.values, derived.mult_bounds):
        (r_hat,) = [
            r for lam, r in zip(ext.eigenvalues, ext.min_mult) if abs(lam - value) < 1e-6
        ]
        assert r_hat <= bound


def _tuple_loop_spectrum(f, spectra):
    """derived_spectrum as one point call per eigenvalue tuple, the reference."""
    raw = []
    for m_tuple in itertools.product(*(range(len(sd.eigenvalues)) for sd in spectra)):
        value = f(*(spectra[l].eigenvalues[m] for l, m in enumerate(m_tuple)))
        bound = 1 + sum(spectra[l].min_mult[m] - 1 for l, m in enumerate(m_tuple))
        weight = math.prod(spectra[l].alg_mult[m] for l, m in enumerate(m_tuple))
        raw.append((value, bound, weight))
    scale = max(1.0, max(abs(v) for v, _, _ in raw))
    rows = [
        (sum(raw[i][0] for i in g) / len(g), max(raw[i][1] for i in g), sum(raw[i][2] for i in g))
        for g in merge_clusters([v for v, _, _ in raw], DEFAULT_CLUSTER_TOL * scale)
    ]
    rows.sort(key=lambda r: (r[0].real, r[0].imag))
    return tuple(zip(*rows))


@pytest.mark.parametrize(
    "text", ["x1 + x2", "exp(x1)*x2 + 1/(x1 + x2 + 4)", "x1*x2*x3 - log(x2 + 2)"]
)
def test_derived_spectrum_matches_the_tuple_loop(text):
    # Jordan-plus-diagonal slots: min_mult 2 and alg_mult 2 enter the bounds
    # and weights; "x1 + x2" has colliding sums (1 + 1.5 = 2 + 0.5)
    slots = [
        jordan_matrix([(1.0, 2), (2.0, 1)]),
        np.diag([0.5, 1.5, 3.0 + 0.5j]),
        jordan_matrix([(-0.5, 1), (0.25, 3)]),
    ]
    f = parse_field(text)
    spectra = [analyze(M) for M in slots[: f.arity]]
    derived = derived_spectrum(f, spectra)
    values, bounds, weights = _tuple_loop_spectrum(f, spectra)
    assert [(v.real.hex(), v.imag.hex()) for v in derived.values] == [
        (v.real.hex(), v.imag.hex()) for v in values
    ]
    assert derived.mult_bounds == bounds
    assert derived.alg_mults == weights
    assert all(type(b) is int for b in derived.mult_bounds + derived.alg_mults)
    assert max(bounds) > 1 and max(weights) > 1


def test_derived_spectrum_merges_collisions():
    f = parse_field("x1 + x2")
    spectra = [analyze(np.diag([1.0, 2.0])), analyze(np.diag([1.0, 2.0]))]
    derived = derived_spectrum(f, spectra)
    # sums 2, 3, 3, 4 collapse to three values with weights 1, 2, 1
    assert len(derived.values) == 3
    assert sorted(derived.alg_mults) == [1, 1, 2]


def test_compose_identity_scalar_outer():
    g = parse_field("x1^2")
    inner = parse_field("x1 + x2")
    mats = [rng.normal(size=(2, 2)), rng.normal(size=(2, 2))]
    check = compose_identity_check(g, [inner], [mats])
    assert check.residual < 1e-7


def test_compose_identity_two_bars():
    g = parse_field("x1*x2")
    inners = [parse_field("x1^2"), parse_field("x1 + 1")]
    groups = [[rng.normal(size=(2, 2))], [rng.normal(size=(3, 3))]]
    check = compose_identity_check(g, inners, groups)
    assert check.residual < 1e-7
    assert len(check.derived) == 2


def test_compose_identity_defective_inner():
    g = parse_field("exp(x1)")
    inner = parse_field("x1^2")
    J = jordan_matrix([(0.5, 2)])
    check = compose_identity_check(g, [inner], [[J]])
    assert check.residual < 1e-7


def test_checks_take_their_slots_as_f_otimes_does(monkeypatch):
    import matfn.algebraic_ops as ops
    import matfn.spectral as spectral

    A = rng.normal(size=(3, 3))
    f = parse_field("x1*x2 + x3")
    checks = [
        lambda mats: product_identity_check(f, f, mats),
        lambda mats: contract_trace_theorem(f, mats, 1),
        lambda mats: contract_equal_slots_theorem(f, mats, 0, 1),
        lambda mats: commuting_swap_check(f, mats, 0, 1),
    ]
    names = []
    check = spectral.as_square_matrix

    def counting(M, name="matrix"):
        names.append(name)
        return check(M, name)

    for module in (spectral, ops):
        monkeypatch.setattr(module, "as_square_matrix", counting)
    bad = np.ones((2, 3))
    for run in checks:
        names.clear()
        run([A, A, A])
        # one matrix object in three slots is checked once, at slot 0, by
        # each layer that takes the slots
        assert set(names) == {"slot 0 matrix"}
        with pytest.raises(ValueError, match=r"^slot 2 matrix must be square, got shape \(2, 3\)$"):
            run([A, A, bad])
        with pytest.raises(ValueError, match="arity 3 applied to 2 matrices"):
            run([A, A])
