"""Dual bases on spectra and the grid-matching interpolant."""

import numpy as np
import pytest

from matfn import (
    InterpolationError,
    derivative_grid,
    hermite_basis,
    interpolate,
    parse_field,
)
from matfn.scalarfield import CONFLUENCE_TOL, field_divided_difference_levels

_EXP = parse_field("exp(x1)")


@pytest.mark.parametrize("base", [1.0, 2.0, -3.0 + 4.0j])
def test_close_nodes_rejected_exactly_where_tables_merge(base):
    # from magnitude 1 up both windows are CONFLUENCE_TOL relative
    window = CONFLUENCE_TOL * abs(base)
    for factor, inside in [(0.5, True), (0.99, True), (1.01, False), (2.0, False)]:
        nodes = [base, base + factor * window]
        zs, _ = field_divided_difference_levels(_EXP, np.array(nodes, dtype=complex))
        assert (zs[0] == zs[1]) == inside
        if inside:
            with pytest.raises(InterpolationError, match="confluent"):
                hermite_basis([(z, 1) for z in nodes])
        else:
            assert hermite_basis([(z, 1) for z in nodes]).size == 2


def test_first_confluent_pair_is_named():
    # two confluent pairs; the message names the first in the order of
    # itertools.combinations over the nodes as given
    a, b = 1.0, 5.0
    cases = [
        ([a, b, b + 1e-12, a + 1e-12], "(1+0j) and (1.000000000001+0j)"),  # (0, 3) before (1, 2)
        ([b, a, a + 1e-12, b + 1e-12], "(5+0j) and (5.000000000001+0j)"),
        ([a + 1e-12, b + 1e-12, b, a], "(1.000000000001+0j) and (1+0j)"),  # in the order given
        ([b, a, b + 1e-12, a + 1e-12], "(5+0j) and (5.000000000001+0j)"),  # (0, 2) before (1, 3)
    ]
    for nodes, pair in cases:
        with pytest.raises(InterpolationError) as info:
            hermite_basis([(z, 1) for z in nodes])
        assert str(info.value).startswith(f"nodes {pair} are confluent"), (nodes, str(info.value))


def test_small_well_separated_nodes_are_accepted():
    # the spectrum of 1e-11 * diag(1, 2): the tables merge it (absolute
    # window below magnitude 1), the basis is unchanged by scaling its
    # nodes and keeps them apart
    nodes = [1e-11, 2e-11]
    zs, _ = field_divided_difference_levels(_EXP, np.array(nodes, dtype=complex))
    assert zs[0] == zs[1]
    basis = hermite_basis([(z, 1) for z in nodes])
    assert np.allclose(basis.coeff[:, 0] * [1, 1e-11], [2.0, -1.0])


def test_lagrange_pair():
    basis = hermite_basis([(0.0, 1), (2.0, 1)])
    # P_0 = 1 - x/2 picks out the node at 0, P_1 = x/2 the node at 2
    assert basis.functionals == [(0, 0), (1, 0)]
    assert np.allclose(basis.coeff[:, 0], [1.0, -0.5])
    assert np.allclose(basis.coeff[:, 1], [0.0, 0.5])


def test_dual_property_random_nodes():
    rng = np.random.default_rng(3)
    nodes = [(complex(rng.normal(), rng.normal()), r) for r in (2, 1, 3)]
    basis = hermite_basis(nodes)
    for t, (m, j) in enumerate(basis.functionals):
        p = np.polynomial.Polynomial(basis.coeff[:, t])
        for m2, (lam, r2) in enumerate(nodes):
            for j2 in range(r2):
                want = 1.0 if (m2, j2) == (m, j) else 0.0
                # differentiate the monomial form j2 times and evaluate
                assert p.deriv(j2)(lam) == pytest.approx(want, abs=1e-8)


def test_basis_rejects_near_coincident_nodes():
    with pytest.raises(InterpolationError):
        hermite_basis([(0.0, 1), (1e-13, 1)])


def test_exp_osculating_line():
    basis = hermite_basis([(0.0, 2)])
    grid = derivative_grid(parse_field("exp(x1)"), [[(0.0, 2)]])
    poly = interpolate(grid, [basis])
    assert poly.coeffs[(0,)] == pytest.approx(1.0)
    assert poly.coeffs[(1,)] == pytest.approx(1.0)
    assert len(poly.coeffs) == 2


def test_product_grid_reduces_degree():
    f = parse_field("x1*x2")
    b1 = hermite_basis([(1.0, 1), (2.0, 1)])
    b2 = hermite_basis([(3.0, 1)])
    grid = derivative_grid(f, [[(1.0, 1), (2.0, 1)], [(3.0, 1)]])
    poly = interpolate(grid, [b1, b2])
    # with a single node in x2 the interpolant collapses to 3 x1
    assert poly(1.0, 99.0) == pytest.approx(3.0)
    assert poly(2.0, -1.0) == pytest.approx(6.0)
    assert poly.degree(1) == 0


def test_interpolation_is_projection_on_polynomials():
    # a polynomial of degree below the grid total comes back unchanged
    f = parse_field("x1^2 - 3*x1 + 2")
    nodes = [(0.5, 2), (2.5, 1)]
    basis = hermite_basis(nodes)
    grid = derivative_grid(f, [nodes])
    poly = interpolate(grid, [basis])
    assert poly.coeffs[(2,)] == pytest.approx(1.0)
    assert poly.coeffs[(1,)] == pytest.approx(-3.0)
    assert poly.coeffs[(0,)] == pytest.approx(2.0)


def test_incomplete_grid_is_rejected():
    # a grid missing a row, carrying an extra row or an extra axis does not
    # have the shape of the bases' functionals
    basis = hermite_basis([(0.0, 2)])
    for bad in (np.ones(1), np.ones(3), np.ones((2, 1))):
        with pytest.raises(InterpolationError, match=r"shape .* need \(2,\)"):
            interpolate(bad, [basis])
    assert interpolate(np.ones(2), [basis]).coeffs == {(0,): 1.0, (1,): 1.0}


def test_non_finite_grid_is_rejected():
    basis = hermite_basis([(0.0, 1), (1.0, 1)])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InterpolationError, match="non-finite"):
            interpolate(np.array([bad, 1.0]), [basis])


def test_condition_number_reported():
    tight = hermite_basis([(0.0, 1), (1e-3, 1)])
    wide = hermite_basis([(0.0, 1), (1.0, 1)])
    assert tight.condition > wide.condition > 0
