"""Expression trees: evaluation, differentiation, parsing, grids."""

import itertools
import math
import warnings

import numpy as np
import pytest

import matfn.scalarfield as sf
from matfn import (
    FieldDomainError,
    FieldParseError,
    MatfnError,
    MultiPoly,
    compose,
    derivative_grid,
    divided_difference_field,
    first_difference_field,
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
    G = derivative_grid(f, [[(1.0, 2)]])
    # one axis, rows (node 0, order 0) and (node 0, order 1)
    assert G.dtype == complex
    assert G.tolist() == [1.0 + 0j, 2.0 + 0j]


def test_derivative_grid_two_variables():
    f = parse_field("x1*x2")
    G = derivative_grid(f, [[(1.0, 1), (2.0, 1)], [(3.0, 1)]])
    # one axis per variable, a row per (node, derivative order)
    assert G.shape == (2, 1)
    assert G[0, 0] == pytest.approx(3.0)
    assert G[1, 0] == pytest.approx(6.0)


def test_derivative_grid_mixed_partials():
    f = sf.exp(parse_field("x1*x2"))
    G = derivative_grid(f, [[(0.5, 2)], [(1.5, 2)]])
    # d^2/dxdy exp(xy) = (1 + xy) exp(xy)
    assert G.shape == (2, 2)
    val = G[1, 1]
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
    # three copies of the anchor: (a - z)^-3 in any argument order. At
    # 0.7 the table's centroid of the copies misses the anchor by rounding,
    # so only a test by confluence finds the anchor there
    for a in (2.0, 0.7, 0.3 + 0.7j):
        u3 = u_function(a, 3)
        for args in set(itertools.permutations((a, a, a, 5.0))):
            assert u3(*args) == pytest.approx((a - 5.0) ** -3, rel=1e-13), (a, args)


def test_projector_kernel_rejects_near_miss():
    u1 = u_function(1.0, 1)
    with pytest.raises(FieldDomainError):
        u1(1.0, 1.0 + 1e-13)
    # the confluence window scales with the anchor above magnitude 1
    u20 = u_function(20.0, 1)
    with pytest.raises(FieldDomainError, match="confluent"):
        u20(20.0, 20.0 + 1e-9)
    assert u20(20.0, 20.0 + 3e-9) == pytest.approx(-1.0 / 3e-9)


def test_kernel_refuses_differentiation():
    u1 = u_function(0.0, 1)
    with pytest.raises(FieldDomainError):
        u1.partial(0)


def test_power_overflow_is_a_domain_error():
    # a finite base whose power is not finite names the point, like exp overflow
    with pytest.raises(FieldDomainError, match=r"power overflow .* at point \(\(1000\+0j\),\)"):
        parse_field("x1^400")(1e3)
    with pytest.raises(FieldDomainError, match="power overflow"):
        parse_field("x1^-2")(1e-200)
    with pytest.raises(FieldDomainError, match=r"at point \(\(1000\+0j\),\)"):
        parse_field("x1^400")(np.array([1.0, 1e3, 2e3]))
    assert parse_field("x1^400")(np.array([1.0, -1.0])) == pytest.approx([1.0, 1.0])


def test_array_evaluation_matches_pointwise():
    fields = [
        parse_field("exp(x1)*x2 + x1^3/(x2 + 4) - log(x1 + 3)"),
        sf.absval(parse_field("x1 - x2")),
        sf.min_const(parse_field("x1*x2"), 1.5),
        first_difference_field(parse_field("1/(x1 + x2 + 5)"), 1),
        u_function(1.0, 2),
    ]
    xs = np.array([0.5, 1.0, 2.0])
    ys = np.array([1.0, 0.25])
    for f in fields:
        axes = [xs[:, None], ys[None, :]] + [np.array([[1.0]])] * (f.arity - 2)
        got = f(*axes)
        assert got.shape == (3, 2)
        for (a, x), (b, y) in itertools.product(enumerate(xs), enumerate(ys)):
            want = f(x, y, *[1.0] * (f.arity - 2))
            assert got[a, b] == pytest.approx(want, rel=1e-14, abs=1e-300), str(f)
    # the result is a fresh array, never the caller's own
    zs = xs + 0j
    got = sf.variable(0, 1)(zs)
    got[0] = 7.0
    assert zs[0] == 0.5


def _resolvent_dd(nodes, c, s_derivs=0):
    """s_derivs-th derivative in c of g[nodes] for g(y) = 1/(y + c), in closed form.

    Divided differences of 1/(y + c) over any node multiset N are
    (-1)^(|N|-1) / prod (y + c); d/dc of that product follows from its log.
    """
    w = [1.0 / (y + c) for y in nodes]
    value = (-1) ** (len(nodes) - 1) * math.prod(w)
    s1, s2 = sum(w), sum(x * x for x in w)
    return value * [1.0, -s1, s1 * s1 + s2][s_derivs]


def _assert_grid(G, spectrum, want, rel=1e-12):
    """``want`` maps every (m_tuple, j_tuple) of ``spectrum`` to G's entry there."""
    # along axis l, (m, j) sits at the orders of the nodes before m, plus j
    starts = [list(itertools.accumulate((r for _, r in s), initial=0)) for s in spectrum]
    assert G.shape == tuple(s[-1] for s in starts)
    assert len(want) == G.size
    for (m_tuple, j_tuple), value in want.items():
        at = tuple(s[m] + j for s, m, j in zip(starts, m_tuple, j_tuple))
        assert abs(G[at] - value) <= rel * abs(value), (m_tuple, j_tuple, G[at], value)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_divided_difference_grid_matches_resolvent_closed_form(n):
    c = 2.5
    res = parse_field(f"1/(x1 + {c})")
    field = divided_difference_field(res, n)
    near = 0.75 + 4e-11  # closer to 0.75 than CONFLUENCE_TOL: one confluent group
    spectra = {
        "distinct": [[(0.75, 1), (-1.0 + 0.5j, 1)], [(1.5, 1)], [(0.25j, 1)], [(2.0, 1)], [(-0.5, 1)]],
        "repeated": [[(0.75, 2), (-1.0 + 0.5j, 1)]] + [[(0.75, 1), (-1.0 + 0.5j, 1)]] * 4,
        "near-confluent": [[(0.75, 2), (-1.0, 1)], [(near, 1)], [(0.75, 1), (near, 1)]] * 2,
    }
    for label, spectrum in spectra.items():
        spectrum = spectrum[: n + 1]
        G = derivative_grid(field, spectrum)
        want = {}
        for m_tuple in itertools.product(*(range(len(s)) for s in spectrum)):
            entries = [spectrum[l][m] for l, m in enumerate(m_tuple)]
            for j_tuple in itertools.product(*(range(r) for _, r in entries)):
                # d^j/dx_t^j repeats node x_t j more times and multiplies by j!
                nodes = [lam for (lam, _), j in zip(entries, j_tuple) for _ in range(j + 1)]
                scale = math.prod(math.factorial(j) for j in j_tuple)
                want[(m_tuple, j_tuple)] = scale * _resolvent_dd(nodes, c)
        _assert_grid(G, spectrum, want)


def test_first_difference_middle_slot_grid_matches_closed_form():
    # h = (x, y0, y1, z) -> f[x, (y0, y1), z] for f = 1/(x + y + z + c): the
    # difference quotient of g(y) = 1/(y + s) with s = x + z + c, and
    # d/dx = d/dz = d/ds
    c = 3.0
    field = first_difference_field(parse_field(f"1/(x1 + x2 + x3 + {c})"), 1)
    ys = [(0.5, 2), (-0.25 + 0.5j, 1)]
    spectrum = [[(0.25, 2), (1.0, 1)], ys, ys, [(-0.5, 2)]]
    G = derivative_grid(field, spectrum)
    want = {}
    for m_tuple in itertools.product(*(range(len(s)) for s in spectrum)):
        entries = [spectrum[l][m] for l, m in enumerate(m_tuple)]
        for j_tuple in itertools.product(*(range(r) for _, r in entries)):
            (x, _), (y0, _), (y1, _), (z, _) = entries
            jx, j0, j1, jz = j_tuple
            nodes = [y0] * (j0 + 1) + [y1] * (j1 + 1)
            scale = math.factorial(j0) * math.factorial(j1)
            want[(m_tuple, j_tuple)] = scale * _resolvent_dd(nodes, x + z + c, jx + jz)
    _assert_grid(G, spectrum, want)


def test_grid_pole_names_the_one_offending_tuple():
    # only 1 + 2 + 4 reaches the pole at 7 among the sums of the three spectra
    f = parse_field("1/(x1 + x2 + x3 - 7)")
    spectrum = [[(0.0, 1), (1.0, 2)], [(0.0, 2), (2.0, 1)], [(0.0, 1), (4.0, 1)]]
    with pytest.raises(FieldDomainError, match=r"at point \(\(1\+0j\), \(2\+0j\), \(4\+0j\)\)"):
        derivative_grid(f, spectrum)


def test_array_domain_errors_leak_no_warning():
    xs = np.array([1.0, 0.0, 1e3])
    cases = [
        (parse_field("x1^400"), xs),
        (parse_field("1/x1"), xs),
        (sf.log(sf.variable(0, 1)), xs),
        (sf.exp(parse_field("x1*1e3")), xs),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, x in cases:
            with pytest.raises(MatfnError):
                f(x)
            with pytest.raises(MatfnError):
                derivative_grid(f, [[(v, 1) for v in x]])
        # 0/0 at confluent entries of the Newton table is discarded quietly
        dd = divided_difference_field(parse_field("exp(x1)"), 2)
        G = derivative_grid(dd, [[(0.5, 2), (1.0, 1)]] * 3)
        assert G[0, 0, 0] == pytest.approx(np.exp(0.5) / 2)
