"""Expression trees: evaluation, differentiation, parsing, grids."""

import numpy as np
import pytest

import matfn.scalarfield as sf
from matfn import (
    FieldDomainError,
    FieldParseError,
    MultiPoly,
    compose,
    derivative_grid,
    merge_variables,
    parse_field,
    poly_to_field,
    substitute_value,
    u_function,
)


def test_basic_evaluation():
    f = parse_field("x1^2*x2 - 3*x2 + 1")
    assert f(2.0, 5.0) == pytest.approx(20 - 15 + 1)
    assert f.arity == 2
    g = parse_field("exp(x1)", arity=1)
    assert g(0.0) == pytest.approx(1.0)
    assert g(1j * np.pi) == pytest.approx(-1.0)


def test_call_accepts_tuple_or_varargs():
    f = parse_field("x1 + x2")
    assert f((1.0, 2.0)) == f(1.0, 2.0) == 3.0


def test_rational_and_pow():
    f = parse_field("1/(x1 + 5)")
    assert f(-3.0) == pytest.approx(0.5)
    g = parse_field("x1^-2")
    assert g(2.0) == pytest.approx(0.25)
    with pytest.raises(FieldDomainError):
        f(-5.0)
    with pytest.raises(FieldDomainError):
        g(0.0)


def test_log_domain():
    f = sf.log(sf.variable(0, 1))
    assert f(np.e) == pytest.approx(1.0)
    with pytest.raises(FieldDomainError):
        f(0.0)


def test_partial_product_rule():
    f = parse_field("x1^2*x2")
    fx = f.partial(0)
    fy = f.partial(1)
    for pt in [(1.5, -2.0), (0.3 + 1j, 2.2)]:
        assert fx(*pt) == pytest.approx(2 * pt[0] * pt[1])
        assert fy(*pt) == pytest.approx(pt[0] ** 2)


def test_partial_chain_and_quotient():
    f = sf.exp(parse_field("x1*x2"))
    fx = f.partial(0)
    assert fx(0.5, 2.0) == pytest.approx(2.0 * np.exp(1.0))
    g = parse_field("x1/(x2 + 1)")
    gy = g.partial(1)
    assert gy(3.0, 1.0) == pytest.approx(-3.0 / 4.0)


def test_partial_against_complex_step():
    # complex-step differentiation is exact to machine precision for
    # holomorphic expressions with real part extraction
    rng = np.random.default_rng(5)
    f = parse_field("exp(x1)*x2 + x1^3/(x2 + 4)")
    fx = f.partial(0)
    for _ in range(5):
        x, y = rng.normal(), rng.normal()
        h = 1e-30
        step = f(x + 1j * h, y).imag / h
        assert fx(x, y) == pytest.approx(step, rel=1e-12)


def test_nonsmooth_atoms_evaluate_but_refuse_derivatives():
    a = sf.absval(sf.variable(0, 1))
    assert a(-2.0) == 2.0
    with pytest.raises(FieldDomainError):
        a.partial(0)
    m = sf.min_const(sf.variable(0, 1), 1.0)
    assert m(0.3) == pytest.approx(0.3)
    assert m(2.5) == pytest.approx(1.0)
    with pytest.raises(FieldDomainError):
        m.partial(0)
    with pytest.raises(FieldDomainError):
        m(1.0 + 0.5j)  # complex argument has no order against the bound


def test_parser_one_based_names():
    f = parse_field("x1 + x3", arity=3)
    assert f(1.0, 99.0, 2.0) == 3.0
    with pytest.raises(FieldParseError):
        parse_field("x0")
    with pytest.raises(FieldParseError):
        parse_field("x2 + (", arity=2)
    with pytest.raises(FieldParseError):
        parse_field("x1 $ x2")
    with pytest.raises(FieldParseError):
        parse_field("x3", arity=2)


def test_parser_precedence_round_trip():
    cases = [
        ("x1 + x2*x3", (1.0, 2.0, 3.0), 7.0),
        ("(x1 + x2)*x3", (1.0, 2.0, 3.0), 9.0),
        ("-x1^2", (3.0,), -9.0),
        ("2 - x1 - x2", (1.0, 1.0), 0.0),
        ("(x1^2)^3", (2.0,), 64.0),
    ]
    for text, pt, want in cases:
        f = parse_field(text)
        assert f(*pt) == pytest.approx(want), text
        # rendering parses back to the same values
        again = parse_field(str(f), arity=f.arity)
        assert again(*pt) == pytest.approx(want), str(f)
    with pytest.raises(FieldParseError):
        parse_field("x1^2^3")  # chained powers need parentheses


def test_substitute_and_merge():
    f = parse_field("x1*x2 + x2^2")
    g = substitute_value(f, 1, 3.0)
    assert g.arity == 1
    assert g(2.0) == pytest.approx(15.0)
    m = merge_variables(parse_field("x1*x2"), 0, 1)
    assert m.arity == 1
    assert m(4.0) == pytest.approx(16.0)


def test_compose_blocks():
    outer = parse_field("x1*x2")
    inner1 = parse_field("x1 + x2")
    inner2 = parse_field("x1^2")
    h = compose(outer, [inner1, inner2])
    assert h.arity == 3
    assert h(1.0, 2.0, 3.0) == pytest.approx((1 + 2) * 9)


def test_derivative_grid_single_defective_node():
    f = parse_field("x1^2")
    grid = derivative_grid(f, [[(1.0, 2)]])
    assert grid == {((0,), (0,)): 1.0 + 0j, ((0,), (1,)): 2.0 + 0j}


def test_derivative_grid_two_variables():
    f = parse_field("x1*x2")
    grid = derivative_grid(f, [[(1.0, 1), (2.0, 1)], [(3.0, 1)]])
    # keys are (node index per variable, derivative order per variable)
    assert set(grid) == {((0, 0), (0, 0)), ((1, 0), (0, 0))}
    assert grid[((0, 0), (0, 0))] == pytest.approx(3.0)
    assert grid[((1, 0), (0, 0))] == pytest.approx(6.0)


def test_derivative_grid_mixed_partials():
    f = sf.exp(parse_field("x1*x2"))
    grid = derivative_grid(f, [[(0.5, 2)], [(1.5, 2)]])
    # d^2/dxdy exp(xy) = (1 + xy) exp(xy)
    val = grid[((0, 0), (1, 1))]
    assert val == pytest.approx((1 + 0.75) * np.exp(0.75))


def test_derivative_grid_reports_domain_trouble():
    f = parse_field("1/x1")
    with pytest.raises(FieldDomainError):
        derivative_grid(f, [[(0.0, 1)]])


def test_multipoly_arithmetic():
    p = MultiPoly(2, {(1, 0): 1.0, (0, 1): 2.0})
    q = MultiPoly(2, {(1, 1): 1.0})
    r = p * q + p
    assert r(2.0, 3.0) == pytest.approx((2 + 6) * 6 + 8)
    # r = x^2 y + 2 x y^2 + x + 2y, so dr/dx = 2xy + 2y^2 + 1
    assert r.partial(0)(2.0, 3.0) == pytest.approx(12 + 18 + 1)
    z = p - p
    assert z.is_zero()


def test_poly_field_bridges():
    p = MultiPoly(2, {(2, 0): 1.0, (0, 1): -3.0})
    f = poly_to_field(p)
    assert f(2.0, 1.0) == pytest.approx(1.0)


def test_projector_kernel_values():
    a = 2.0
    u1 = u_function(a, 1)
    assert u1(a, 5.0) == pytest.approx(1.0 / (a - 5.0))
    assert u1(a, a) == 0
    assert u1(5.0, 7.0) == 0  # no argument hits the anchor
    u2 = u_function(a, 2)
    assert u2(a, a, 5.0) == pytest.approx(-1.0 / (a - 5.0) ** 2)
    assert u2(a, 5.0, a) == pytest.approx(-1.0 / (a - 5.0) ** 2)
    assert u2(a, 5.0, 7.0) == pytest.approx(1.0 / ((a - 5.0) * (a - 7.0)))


def test_projector_kernel_rejects_near_miss():
    u1 = u_function(1.0, 1)
    with pytest.raises(FieldDomainError):
        u1(1.0, 1.0 + 1e-13)


def test_kernel_refuses_differentiation():
    u1 = u_function(0.0, 1)
    with pytest.raises(FieldDomainError):
        u1.partial(0)
