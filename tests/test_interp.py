"""Newton bases on spectra and the grid-matching interpolant."""

import math

import numpy as np
import pytest

from matfn import (
    InterpolationError,
    derivative_grid,
    hermite_basis,
    interpolate,
    parse_field,
)
from matfn.scalarfield import CONFLUENCE_TOL


@pytest.mark.parametrize("base", [1.0, 2.0, -3.0 + 4.0j])
def test_close_nodes_rejected_exactly_where_tables_merge(base):
    # from magnitude 1 up the basis's window is CONFLUENCE_TOL relative
    window = CONFLUENCE_TOL * abs(base)
    for factor, inside in [(0.5, True), (0.99, True), (1.01, False), (2.0, False)]:
        nodes = [base, base + factor * window]
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
    # the spectrum of 1e-11 * diag(1, 2): the basis is unchanged by
    # scaling its nodes and keeps them apart
    nodes = [1e-11, 2e-11]
    basis = hermite_basis([(z, 1) for z in nodes])
    # f[z0, z1] = (f(z1) - f(z0)) / 1e-11
    assert np.allclose(basis.transform * [[1], [1e-11]], [[1, 0], [-1, 1]], rtol=1e-12, atol=0)
    assert np.allclose(basis.evaluation @ basis.transform, np.eye(2), rtol=0, atol=1e-14)
    line = interpolate(np.array(nodes, dtype=complex), [basis])  # f(x) = x
    assert line(3e-11) == pytest.approx(3e-11, rel=1e-12)


def _newton_poly(centres, i):
    """N_i = prod_{j<i} (x - z_j) as a numpy polynomial, built from its roots."""
    return np.polynomial.Polynomial(np.polynomial.polynomial.polyfromroots(centres[:i]))


def test_lagrange_pair():
    basis = hermite_basis([(0.0, 1), (2.0, 1)])
    assert basis.functionals == [(0, 0), (1, 0)]
    # Leja order from the tie at the mean: 0 first, then 2
    assert basis.centres.tolist() == [0.0, 2.0]
    # f[0] = f(0) and f[0, 2] = (f(2) - f(0)) / 2; N_0 = 1 and N_1 = x
    assert basis.transform.tolist() == [[1, 0], [-0.5, 0.5]]
    assert basis.evaluation.tolist() == [[1, 0], [1, 2]]
    # the interpolants of unit data are the Lagrange pair 1 - x/2 and x/2
    for t, want in enumerate([lambda x: 1 - x / 2, lambda x: x / 2]):
        P = interpolate(np.eye(2)[t], [basis])
        for x in (0.0, 2.0, -1.5, 0.3 + 2j):
            assert P(x) == pytest.approx(want(x), abs=1e-15)


def test_dual_property_random_nodes():
    rng = np.random.default_rng(3)
    nodes = [(complex(rng.normal(), rng.normal()), r) for r in (2, 1, 3)]
    basis = hermite_basis(nodes)
    z = basis.centres
    # the centres repeat each node, in a run, as often as its order says
    assert sorted(z.tolist(), key=abs) == sorted(
        [lam for lam, r in nodes for _ in range(r)], key=abs)
    N = [_newton_poly(z, i) for i in range(basis.size)]
    for t, (m, j) in enumerate(basis.functionals):
        lam = nodes[m][0]
        # E from the roots' polynomials, differentiated in the monomial form:
        # the Taylor coefficients N_i^(j)(lam)/j!
        for i in range(basis.size):
            want = N[i].deriv(j)(lam) / math.factorial(j)
            assert basis.evaluation[t, i] == pytest.approx(want, abs=1e-12)
        # column t of D: the Newton coefficients of the t-th dual polynomial,
        # whose Taylor coefficients at the nodes are the unit vector t
        p = sum(c * Ni for c, Ni in zip(basis.transform[:, t], N))
        for m2, (lam2, r2) in enumerate(nodes):
            for j2 in range(r2):
                want = 1.0 if (m2, j2) == (m, j) else 0.0
                got = p.deriv(j2)(lam2) / math.factorial(j2)
                assert got == pytest.approx(want, abs=1e-10)
    assert np.abs(basis.evaluation @ basis.transform - np.eye(basis.size)).max() < 1e-13


def test_centres_are_in_leja_order_with_runs_kept_together():
    rng = np.random.default_rng(8)
    nodes = [(complex(rng.normal(), rng.normal()), int(r)) for r in rng.integers(1, 4, size=7)]
    z = hermite_basis(nodes).centres.tolist()
    runs = [z[0]] + [b for a, b in zip(z, z[1:]) if b != a]  # each node once, in order
    order = {lam: r for lam, r in nodes}
    assert sorted(runs, key=abs) == sorted(order, key=abs)
    assert z == [lam for lam in runs for _ in range(order[lam])]
    mean = sum(order) / len(order)
    assert abs(runs[0] - mean) == max(abs(lam - mean) for lam in order)
    for i in range(1, len(runs)):
        # each next node has the largest product of distances to the centres before it
        def weight(lam):
            return math.prod(abs(lam - c) ** order[c] for c in runs[:i])
        assert weight(runs[i]) == pytest.approx(max(weight(lam) for lam in runs[i:]), rel=1e-12)


def test_basis_rejects_near_coincident_nodes():
    with pytest.raises(InterpolationError):
        hermite_basis([(0.0, 1), (1e-13, 1)])


def test_exp_osculating_line():
    # at one node of order m the Newton coefficients are Taylor coefficients
    for lam, m in ((0.0, 2), (0.5, 2), (-0.3 + 1j, 5)):
        basis = hermite_basis([(lam, m)])
        assert basis.centres.tolist() == [lam] * m
        grid = derivative_grid(parse_field("exp(x1)"), [[(lam, m)]])
        poly = interpolate(grid, [basis])
        taylor = [np.exp(lam) / math.factorial(j) for j in range(m)]
        assert np.allclose(poly.dense, taylor, rtol=1e-15, atol=0)
        assert poly(lam + 0.01) == pytest.approx(
            sum(c * 0.01**j for j, c in enumerate(taylor)), rel=1e-15)
    grid = derivative_grid(parse_field("exp(x1)"), [[(0.0, 2)]])
    line = interpolate(grid, [hermite_basis([(0.0, 2)])])
    assert line.coeffs == {(0,): 1.0, (1,): 1.0}


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
    # a polynomial of degree below the grid total comes back unchanged, as a
    # function and in its monomial coefficients, in one variable and in two
    rng = np.random.default_rng(5)
    cases = [
        ("x1^2 - 3*x1 + 2", [[(0.5, 2), (2.5, 1)]], {(2,): 1, (1,): -3, (0,): 2}),
        ("x1^4 - 2*x1^3 + 0.5*x1 - 1", [[(1.0, 2), (-1.0 + 0.5j, 2), (0.25j, 1)]],
         {(4,): 1, (3,): -2, (1,): 0.5, (0,): -1}),
        ("x1^3*x2^2 - 2i*x1*x2 + 4", [[(0.3, 3), (1.7, 1)], [(-1.0, 1), (0.5j, 2)]],
         {(3, 2): 1, (1, 1): -2j, (0, 0): 4}),
    ]
    for text, spectra, want in cases:
        f = parse_field(text)
        poly = interpolate(derivative_grid(f, spectra), [hermite_basis(n) for n in spectra])
        for _ in range(5):
            x = rng.normal(size=f.arity) + 1j * rng.normal(size=f.arity)
            assert poly(*x) == pytest.approx(f(*x), rel=1e-13, abs=1e-13)
        got = poly.coeffs
        assert set(got) >= set(want)
        for alpha, c in got.items():
            assert c == pytest.approx(want.get(alpha, 0.0), abs=1e-12)


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
    # E inverts D, so ||D||_1 ||E||_1 is the 1-norm condition number of D
    for basis in (tight, wide, hermite_basis([(1.0, 3), (2.0 - 1j, 2), (0.5j, 1)])):
        assert basis.condition == pytest.approx(np.linalg.cond(basis.transform, 1), rel=1e-10)


def test_one_node_basis_is_the_identity():
    # grids hold Taylor coefficients, which at one node are the Newton
    # coefficients themselves: no factorial enters D, E or the condition
    for m in range(1, 9):
        basis = hermite_basis([(0.5, m)])
        assert np.array_equal(basis.transform, np.eye(m))
        assert np.array_equal(basis.evaluation, np.eye(m))
        assert basis.condition == 1.0


def test_overflowing_basis_is_rejected():
    # products of four node gaps near 1e150 exceed the float range: an error,
    # never a basis holding inf or NaN
    with pytest.raises(InterpolationError, match="overflows"):
        hermite_basis([(x * 1e150, 1) for x in (1, 2, 3, 4, 5)])
    with pytest.raises(InterpolationError, match="overflows"):
        hermite_basis([(1e150, 3), (-1e150, 2)])


def test_self_check_catches_a_wrong_transform():
    # the coefficients are checked against the grid through E, which is
    # built apart from D: a D that is off by one part in a million fails
    import dataclasses

    basis = hermite_basis([(0.0, 1), (1.0, 2), (-2.0 + 1j, 1)])
    grid = np.array([1.0, 2.0, 3.0, -1.0 + 0.5j])
    interpolate(grid, [basis])
    bad = dataclasses.replace(basis, transform=basis.transform * (1 + 1e-6))
    with pytest.raises(InterpolationError, match="misses its defining grid"):
        interpolate(grid, [bad])
