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
    doubled_node_difference_field,
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


def test_parser_reads_a_function_of_a_complex_literal():
    # the call's parentheses are also those of the literal (a+bi)
    for text, cls, value in [("exp(2+3i)*x1", sf.Exp, 2 + 3j), ("log(1-2i)*x1", sf.Log, 1 - 2j),
                             ("log( -0.0 + 2i )*x1", sf.Log, complex(-0.0, 2.0))]:
        root = parse_field(text).root
        assert root == sf.Mul(cls(sf.Const(value)), sf.Var(0)), text
        assert root.lhs.arg.value.real.hex() == value.real.hex(), text


def test_parser_rejects_negative_arity():
    with pytest.raises(ValueError, match="arity must be nonnegative"):
        parse_field("1", arity=-2)


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


def _left_nested(node) -> bool:
    """No + or * holds an operator of its own precedence as its right operand.

    Rendering drops the parentheses of such a right operand, so only these
    trees can parse back node for node.
    """
    if isinstance(node, sf.Add) and isinstance(node.rhs, (sf.Add, sf.Sub)):
        return False
    if isinstance(node, sf.Mul) and isinstance(node.rhs, (sf.Mul, sf.Div)):
        return False
    kids = (getattr(node, name) for name in type(node).__slots__)
    return all(_left_nested(k) for k in kids if isinstance(k, sf.Node))


def _const_bits(node) -> list:
    """The bits of both parts of every constant, so -0.0 and 0.0 differ."""
    if isinstance(node, sf.Const):
        v = node.value
        return [(v.real.hex(), v.imag.hex())]
    kids = (getattr(node, name) for name in type(node).__slots__)
    return [bits for k in kids if isinstance(k, sf.Node) for bits in _const_bits(k)]


@pytest.mark.parametrize(
    "source",
    [
        "x1^-2",
        "(x1 + 3)^-1*x2",
        "-x1*x2 - -(x1 - x2) + -x2^3",
        "x1 - (x2 - (x1 - x2/3)) - 2",
        "x1/(x2/(x1 + 4))/(x2*(x1 - 5))",
        "exp(x1 - x2)/log(x1 + 3) + log(x2)^2",
        "0.1*x1 + 2.5e-3/x2^(-2)",
        # complex constants, as `matfn contract` renders its reduced fields
        "x1*(-1.43415765279684-0.7407406799999998i) + x1*(-1.4341576527968394+0.7407406799999999i)",
        "(0.3+1.2345678i)*x1^2 - x2/1e-3i",
        "exp(2.5i*x1)/(x2 - (-0.1-7i))",
        # a function applied straight to a complex literal
        "exp(2+3i)*x1",
        "log(1-2i)*x1",
        # substituting 0 makes the constant -2+0i, whose text must keep log's branch
        "log(x1 - 2)*x2",
        # built, not parsed: the text must carry a zero real part's sign
        pytest.param(sf.ScalarField(1, sf.Mul(sf.Const(complex(-0.0, 2.5)), sf.Var(0))),
                     id="(-0.0+2.5i)*x1"),
    ],
)
def test_rendered_fields_parse_back(source):
    f = source if isinstance(source, sf.ScalarField) else parse_field(source)
    fields = [f, f.partial(0), substitute_value(f, 0, 0.75)]
    if f.arity > 1:
        fields.append(merge_variables(f, 0, 1))
    rng = np.random.default_rng(5)
    for g in fields:
        again = parse_field(str(g), g.arity)
        pts = [rng.uniform(0.5, 2.0, 20) for _ in range(g.arity)]
        np.testing.assert_allclose(again(*pts), g(*pts), rtol=1e-13, atol=0)
        if _left_nested(g.root):
            assert again == g, str(g)
            assert _const_bits(again.root) == _const_bits(g.root), str(g)
    assert _left_nested(f.root) and parse_field(str(f), f.arity) == f


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


def test_multipoly_rejects_malformed_coefficients():
    with pytest.raises(ValueError, match="does not match arity"):
        MultiPoly(2, {(1,): 1.0})
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly(2, {(1, -1): 1.0})
    with pytest.raises(ValueError, match="rank 1 is not arity 2"):
        MultiPoly(2, np.ones(3))


def test_multipoly_cancellation_trims_degree():
    p = MultiPoly(2, {(3, 1): 2.0, (1, 2): 1j, (0, 0): -1.0})
    z = p - p
    assert z.is_zero()
    assert z.degree(0) == z.degree(1) == -1
    assert z.coeffs == {}
    assert z == MultiPoly(2)
    q = p - MultiPoly(2, {(3, 1): 2.0})
    assert (q.degree(0), q.degree(1)) == (1, 2)
    assert q.dense.shape == (2, 3)
    assert q.coeffs == {(1, 2): 1j, (0, 0): -1.0}


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_multipoly_algebra_matches_pointwise_values(arity):
    rng = np.random.default_rng(40 + arity)

    def random_poly():
        shape = tuple(rng.integers(1, 4, size=arity))
        return MultiPoly(arity, rng.normal(size=shape) + 1j * rng.normal(size=shape))

    for _ in range(5):
        p, q = random_poly(), random_poly()
        pt = tuple(rng.normal(size=arity) + 1j * rng.normal(size=arity))
        fp, fq = poly_to_field(p), poly_to_field(q)
        assert p(pt) == pytest.approx(fp(*pt), rel=1e-12)
        assert (p * q)(pt) == pytest.approx(fp(*pt) * fq(*pt), rel=1e-12)
        assert (p + q)(pt) == pytest.approx(fp(*pt) + fq(*pt), rel=1e-12)
        assert (p - q)(pt) == pytest.approx(fp(*pt) - fq(*pt), rel=1e-12)
        assert (2.5j * p - 1)(pt) == pytest.approx(2.5j * fp(*pt) - 1, rel=1e-12)
        for var in range(arity):
            want = fp.partial(var)(*pt)
            assert p.partial(var)(pt) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_multipoly_dict_and_array_forms_agree():
    from_dict = MultiPoly(2, {(0, 0): 1.0, (2, 1): -3j, (1, 0): 0.5})
    dense = np.zeros((4, 3), dtype=complex)  # trailing zero rows and columns
    dense[0, 0], dense[2, 1], dense[1, 0] = 1.0, -3j, 0.5
    from_array = MultiPoly(2, dense)
    assert from_array == from_dict
    assert hash(from_array) == hash(from_dict)
    assert from_array.dense.shape == (3, 2)
    assert from_array.coeffs == from_dict.coeffs
    assert from_dict != MultiPoly(2, {(0, 0): 1.0, (1, 2): -3j, (1, 0): 0.5})


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
    # three copies of the anchor: (a - z)^-3 in any argument order
    for a in (2.0, 0.7, 0.3 + 0.7j):
        u3 = u_function(a, 3)
        for args in set(itertools.permutations((a, a, a, 5.0))):
            assert u3(*args) == pytest.approx((a - 5.0) ** -3, rel=1e-13), (a, args)


def _kernel_oracle(anchor, args) -> complex:
    """The (m-1)-st Taylor coefficient at the anchor of prod_h 1/(zeta - z_h).

    m counts the arguments equal to the anchor, z_h are the others. Each
    factor is expanded on its own, 1/(s + c) = sum_j (-s)^j / c^(j+1) with
    s = zeta - anchor and c = anchor - z_h, and the series are multiplied
    out with numpy's polynomial product.
    """
    m = sum(z == anchor for z in args)
    if m == 0:
        return 0j
    series = np.array([1.0 + 0j])
    for z in args:
        if z != anchor:
            c = anchor - z
            series = np.polynomial.polynomial.polymul(
                series, [(-1) ** j / c ** (j + 1) for j in range(m)]
            )[:m]
    return complex(series[m - 1]) if m <= len(series) else 0j


@pytest.mark.parametrize("anchor", [0.5, 0.3 + 0.7j])
def test_projector_kernel_matches_series_oracle(anchor):
    # the anchor sits on every axis; the others repeat along the grid, and
    # three of them lie 1e-7 apart
    values = np.array([anchor, anchor + 2.0, anchor + 2.0 + 1e-7, anchor + 2.0 - 1e-7,
                       anchor - 1.5j])
    for n in (1, 2, 3):
        axes = [values.reshape((-1,) + (1,) * (n - l)) for l in range(n + 1)]
        got = u_function(anchor, n)(*axes)
        for idx in itertools.product(range(len(values)), repeat=n + 1):
            want = _kernel_oracle(anchor, [values[i] for i in idx])
            assert got[idx] == pytest.approx(want, rel=1e-12, abs=0), (n, idx)


def test_projector_kernel_rejects_near_miss():
    u1 = u_function(1.0, 1)
    with pytest.raises(FieldDomainError):
        u1(1.0, 1.0 + 1e-13)
    # the near copy named, on the first axis, the last axis, or the last of broadcast axes
    u2 = u_function(1.0, 2)
    near = 1.0 + 1e-13
    refusal = r"kernel argument \(1\.0000000000001\+0j\) is confluent with the anchor"
    for args in [(near, 5.0, 1.0), (1.0, 5.0, near),
                 (np.array([[[1.0]], [[5.0]]]), np.array([[[1.0]]]), np.array([2.0, near]))]:
        with pytest.raises(FieldDomainError, match=refusal):
            u2(*args)
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


def test_point_call_rounds_as_array_calls():
    # a point is evaluated as one-entry arrays, so it rounds as array calls do
    rng = np.random.default_rng(10)
    anchor = 0.5 + 0.25j
    cases = [
        (parse_field("x1*x2*x1 + x2*x2"), None),
        (parse_field("(x1 + 2)/(x2 - 3)"), None),
        (parse_field("(x1 + x2)^5 - x1^-3"), None),
        (parse_field("exp(x1*x2)"), None),
        (parse_field("log(x1 + 3*x2)"), None),
        (divided_difference_field(parse_field("exp(x1)/(x1 + 4)"), 2), None),
        (u_function(anchor, 2), anchor),  # first argument at the anchor: m = 1
    ]
    for f, at in cases:
        for _ in range(20):
            z = rng.normal(size=(f.arity, 7)) + 1j * rng.normal(size=(f.arity, 7))
            if at is not None:
                z[0] = at
            point = f(*z[:, 0].tolist())
            assert type(point) is complex
            one = f(*(zl[:1] for zl in z))
            assert one.shape == (1,)
            longer = f(*z)
            bits = [(v.real.hex(), v.imag.hex()) for v in map(complex, (point, one[0], longer[0]))]
            assert bits[0] == bits[1] == bits[2], (str(f), z[:, 0])


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


# ---------------------------------------------------------------------------
# order-1 grids of divided differences on a shared spectrum

_SHARED = [(0.75, 1), (-1.0 + 0.5j, 1), (0.25j, 1), (1.5 - 0.25j, 1)]


def _axes(spectrum):
    """Each variable's eigenvalues, broadcast along its own axis."""
    k = len(spectrum)
    return [np.array([complex(x) for x, _ in e]).reshape((-1,) + (1,) * (k - 1 - l))
            for l, e in enumerate(spectrum)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_shared_spectrum_grid_is_the_resolvent_closed_form(n):
    # f[x_0..x_n] of 1/(x + c) is (-1)^n / prod (x_i + c)
    c = 2.5
    spectrum = [_SHARED] * (n + 1)
    G = derivative_grid(divided_difference_field(parse_field(f"1/(x1 + {c})"), n), spectrum)
    want = (-1) ** n * math.prod(1.0 / (x + c) for x in _axes(spectrum))
    assert G.shape == (len(_SHARED),) * (n + 1)
    assert np.abs(G - want).max() <= 1e-14 * np.abs(want).max()


def test_other_spectra_take_the_tree_walk():
    # differing node lists, a confluent pair and an empty list: the grid is
    # the tree walk, unchanged to the bit
    field = divided_difference_field(parse_field("1/(x1 + 2.5)"), 2)
    near = 0.75 + 4e-11
    cases = [
        [_SHARED, _SHARED, _SHARED[:3]],
        [_SHARED, [(0.75, 1), (near, 1), (-1.0, 1)], _SHARED],
        [_SHARED[:3] + [(near, 1)]] * 3,
    ]
    for spectrum in cases + [[[]] * 3]:
        G = derivative_grid(field, spectrum)
        assert G.shape == tuple(map(len, spectrum))
        assert G.tobytes() == field(*_axes(spectrum)).tobytes()


def test_grid_pole_on_a_shared_spectrum_names_the_offending_tuple():
    # the pole of the base at 1 + 2 + 4 lies on the list the two node
    # variables share: the walk names the point
    field = first_difference_field(parse_field("1/(x1 + x2 + x3 - 7)"), 1)
    shared = [(0.0, 1), (2.0, 1), (-1j, 1)]
    spectrum = [[(0.0, 1), (1.0, 1)], shared, shared, [(0.0, 1), (4.0, 1)]]
    with pytest.raises(FieldDomainError) as info:
        derivative_grid(field, spectrum)
    assert str(info.value) == (
        "division by zero in 1/(x1 + x2 + x3 - 7) at point ((1+0j), (2+0j), (4+0j))"
    )
    field = divided_difference_field(parse_field("1/(x1 - 2)"), 2)
    with pytest.raises(FieldDomainError) as info:
        derivative_grid(field, [shared] * 3)
    assert str(info.value) == "division by zero in 1/(x1 - 2) at point ((2+0j),)"


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


def test_equal_nodes_hash_equal():
    f = parse_field("exp(x1*x2)/(x1 + 3) - x2^3", 2)
    g = parse_field("exp(x1*x2)/(x1 + 3) - x2^3", 2)
    assert f.root is not g.root
    assert f.root == g.root and hash(f.root) == hash(g.root)
    for var in (0, 1):
        df, dg = sf._diff(f.root, var, {}), sf._diff(g.root, var, {})
        assert df == dg and hash(df) == hash(dg)
    assert sf.Const(2.0) == sf.Const(2.0 + 0j) and hash(sf.Const(2.0)) == hash(sf.Const(2.0 + 0j))
    assert sf.Add(sf.Var(0), sf.Var(1)) != sf.Add(sf.Var(1), sf.Var(0))


def test_partial_holds_nothing_once_its_field_is_dropped():
    import gc
    import tracemalloc

    def third_partial(i):
        f = parse_field(f"exp({0.1 + 1e-3 * i}*x1*x2)/(x1 + {2 + 0.01 * i}) - x2^3", 2)
        f.partial(0).partial(1).partial(0)(0.3, 0.4)

    third_partial(-1)  # first-call caches (the parser's, numpy's) filled outside the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(300):
            third_partial(i)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 64 * 1024


# ---------------------------------------------------------------------------
# grids from Taylor jets


def _symbolic_grid_entry(f, point, js):
    """(prod_l d_l^{j_l} / j_l!) f at ``point``, through symbolic ``partial``."""
    for var, j in enumerate(js):
        for _ in range(j):
            f = f.partial(var)
    return f(*point) / math.prod(math.factorial(j) for j in js)


def _jet_fields():
    inner = sf.ScalarField(
        2, sf.SlotDividedDifference(parse_field("exp(0.5*x1)/(x1 + 6)").root, 1, 0, (1, 1))
    )
    return [
        parse_field("x1*x2 - x2^3 + 1/(x1 + x2 + 4)", 2),
        parse_field("exp(0.3*x1*x2)/(x1 - 3) - x1^(-2)", 2),
        parse_field("log(x1 + 2*x2 + 5)*(x1 - x2)^2", 2),
        parse_field("exp(x1)*x2 + 1/(x1*x3 + 4) - x3^4*x1", 3),
        inner * parse_field("x1 + x2 + 1", 2),
        first_difference_field(parse_field("log(x1 + 2*x2 + 6)/(x2 - 5)", 2), 1),
        # a divided difference of a divided difference, with a doubled node
        sf.ScalarField(3, sf.SlotDividedDifference(inner.root, 2, 1, (1, 2))),
        # variables on both sides of the slot, entering differently
        first_difference_field(parse_field("exp(0.3*x1 + 0.5*x2)/(x3 + 4) + x1*x2*x3^3", 3), 1),
    ]


@pytest.mark.parametrize("index", range(8))
def test_jets_match_symbolic_partials_to_order_6(index):
    f = _jet_fields()[index]
    rng = np.random.default_rng(100 + index)
    orders = {2: (4, 4), 3: (3, 3, 3), 4: (3, 2, 3, 2)}[f.arity]  # total order 6
    for trial in range(2):
        # variables about 1 apart keep the divided differences' own tables well conditioned
        point = tuple(
            c + 0.3 * complex(rng.standard_normal(), rng.standard_normal())
            for c in (0, 1, -1, 0.5)[: f.arity]
        )
        G = derivative_grid(f, [[(x, r)] for x, r in zip(point, orders)])
        for js in itertools.product(*(range(r) for r in orders)):
            want = _symbolic_grid_entry(f, point, js)
            assert abs(G[js] - want) <= 1e-12 * abs(want), (js, G[js], want)
        if index == 4 and trial == 0:
            # both sides above take the same walks, so the deepest differences
            # inside are checked against references of their own
            inner = sf.ScalarField(2, f.root.lhs)
            D = derivative_grid(inner, [[(x, 4)] for x in point])
            for js, want in _INNER_DIFFERENCES.items():
                assert abs(D[js] - want) <= 1e-13 * abs(want), js


#: f[x_1^4, x_2^4] and f[x_1^4, x_2^3] of f = exp(x/2)/(x + 6) at field 4's first point,
#: (0.16863499640643553+0.16806015584204873j) and (0.8132629823891768-0.002944513338878706j):
#: entries of mpmath's expm(Z/2) (Z + 6I)^-1 at 60 digits, Z the Opitz matrix of the
#: nodes. D[j1, j2] above is f[x_1^(1+j1), x_2^(1+j2)].
_INNER_DIFFERENCES = {
    (3, 3): 7.45176200845031825322628722954576209883700560876457850034847e-8
    + 5.06022359346289351831609460753176270483850924688345387295261e-9j,
    (3, 2): 1.47468788945396281465470366622348098406750473001184484149478e-6
    + 4.61013194424091603263294551411337402341765743979784697297747e-8j,
}


@pytest.mark.parametrize(
    "text, derivative",
    [
        ("1/(x1 + 2.5)", lambda x, j: (-1) ** j * math.factorial(j) / (x + 2.5) ** (j + 1)),
        ("exp(-1.7*x1)", lambda x, j: (-1.7) ** j * np.exp(-1.7 * x)),
        (
            "log(x1 + 3)",
            lambda x, j: np.log(x + 3) if j == 0 else (-1) ** (j - 1) * math.factorial(j - 1) / (x + 3) ** j,
        ),
        ("exp(x1/2)/(x1 + 6)", None),  # the Opitz walk's check only
    ],
)
def test_jets_match_closed_forms_to_order_12(text, derivative):
    f = parse_field(text)
    xs = [0.7 + 0.2j, -1.3, 2.0 - 1.5j]
    if derivative is not None:
        G = derivative_grid(f, [[(x, 13) for x in xs]])
        for m, x in enumerate(xs):
            for j in range(13):
                want = derivative(x, j) / math.factorial(j)
                assert abs(G[13 * m + j] - want) <= 1e-13 * abs(want), (x, j)
    # the jet walk and the Opitz walk hold the same Taylor data: at one node
    # repeated r times, column 0 of f(Z) is f[x^(1+j)] = f^(j)(x)/j!; relative
    # to the largest, since exp(x/2)/(x + 6) has one near a sign change
    for x in (0.3, -0.8 + 0.4j, 1.7):
        for r in range(1, 13):
            G = derivative_grid(f, [[(x, r)]])
            want = sf.divided_difference_matrix(f, [x] * r)[:, 0]
            assert np.abs(G - want).max() <= 1e-14 * np.abs(want).max(), (x, r)


def test_grid_of_order_one_is_the_broadcast_evaluation():
    complex_lams = [np.array([0.3 + 0.1j, -1.2, 2.5j]), np.array([0.7, 1.1 - 0.4j])]
    real_lams = [np.array([0.3, -1.2, 2.5]), np.array([0.7, 1.1])]
    cases = [(f, complex_lams) for f in _jet_fields() if f.arity == 2] + [
        (sf.min_const(parse_field("x1*x2 + 1", 2), 0.5), real_lams),
        (sf.absval(parse_field("x1 - x2", 2)), complex_lams),
    ]
    for f, lams in cases:
        G = derivative_grid(f, [[(x, 1) for x in xs] for xs in lams])
        assert G.tobytes() == f(lams[0][:, None], lams[1][None, :]).tobytes()


@pytest.mark.parametrize(
    "field, message",
    [
        (sf.absval(parse_field("x1 + 1")) * parse_field("x2", 2), "AbsVal is an evaluation-only"),
        (sf.min_const(parse_field("x1 + x2", 2), 0.5), "MinConst is an evaluation-only"),
        (u_function(0.5, 1), "the projector kernel is evaluation-only"),
    ],
)
def test_evaluation_only_nodes_refuse_derivative_orders(field, message):
    ones = [[(0.5, 1), (1.5, 1)], [(0.25, 1)]]
    G = derivative_grid(field, ones)
    assert G.shape == (2, 1)
    for var in range(2):
        spectra = [list(s) for s in ones]
        spectra[var][0] = (spectra[var][0][0], 2)
        with pytest.raises(FieldDomainError, match=message):
            derivative_grid(field, spectra)


def test_ungathered_coefficients_are_not_checked():
    # at x = 1 the second coefficient of exp(700 x) overflows; with order 1
    # there it is never gathered, with order 3 it is named
    f = parse_field("exp(700*x1)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = derivative_grid(f, [[(1.0, 1), (0.0, 3)]])
        assert np.isfinite(G).all()
        assert G.tolist() == [np.exp(700.0), 1.0, 700.0, 700.0**2 / 2]
        with pytest.raises(FieldDomainError, match=r"non-finite derivative of order \(2,\) .* at point \(\(1\+0j\),\)"):
            derivative_grid(f, [[(1.0, 3), (0.0, 1)]])


def test_grid_and_extension_calls_make_no_symbolic_derivative(monkeypatch):
    import matfn
    from matfn import calculus

    def refuse(node, var, memo):
        raise AssertionError("symbolic derivative on the grid path")

    monkeypatch.setattr(sf, "_diff", refuse)
    J = np.eye(4) + np.eye(4, k=1)
    res = parse_field("1/(x1 + 5)")
    matfn.f_otimes(parse_field("exp(x1)*x2^2", 2), [J, J], extra_multiplicity=1)
    calculus.nth_derivative_curve(res, J, np.ones((4, 4)), 3)
    calculus.frechet_derivative(parse_field("1/(x1 + x2 + 5)", 2), [J, J], 1, np.ones((4, 4)))
    calculus.divided_difference(res, [0.5, 0.5, 0.5, 2.0])
    with pytest.raises(AssertionError, match="symbolic"):
        res.partial(0)


def test_simple_eigenvalues_carry_no_jet(monkeypatch):
    # one Jordan block among simple eigenvalues: every walk that carries a
    # series in a variable is broadcast over that variable's defective
    # eigenvalues only, and the grid equals the grids of each eigenvalue
    # combination taken on its own
    walks = []
    jets_on = sf._jets_on

    def record(root, point, orders):
        if root is f.root:
            walks.append(([p.ravel() for p in point], orders))
        return jets_on(root, point, orders)

    monkeypatch.setattr(sf, "_jets_on", record)
    f = first_difference_field(parse_field("exp(0.5*x1)/(x1 + 6) + x2^3", 2), 0)
    spectra = [[(1.0, 3), (0.25, 1), (-0.5 + 0.5j, 1)], [(2.0, 1), (0.5, 2)], [(1.0, 3), (0.3, 1)]]
    G = derivative_grid(f, spectra)
    assert len(walks) == 8
    for axes, orders in walks:
        for axis, r, entries in zip(axes, orders, spectra):
            assert all((ri > 1) == (r > 1) for lam, ri in entries if lam in axis)
    monkeypatch.setattr(sf, "_jets_on", jets_on)
    starts = [list(itertools.accumulate((r for _, r in e), initial=0)) for e in spectra]
    for ms in itertools.product(*(range(len(e)) for e in spectra)):
        alone = derivative_grid(f, [[e[m]] for e, m in zip(spectra, ms)])
        block = G[tuple(slice(s[m], s[m + 1]) for s, m in zip(starts, ms))]
        assert np.allclose(block, alone, rtol=1e-13, atol=0)


def test_bumped_tables_are_the_tables_with_bumped_multiplicities():
    # jet coefficient js of f[y_1^m_1, y_2^m_2] is prod C(m + j - 1, j) times
    # the table with multiplicities m + js: at distinct, equal and
    # near-confluent nodes, where a bump moves the merged node
    base = parse_field("exp(0.2*x1 + 0.5*x2)/(x2 + 6) + x1*x2^4", 2).root
    node = sf.SlotDividedDifference(base, 2, 1, (1, 2))
    x = np.array([0.3, 0.3, -0.2 + 0.1j])
    y1 = np.array([0.75, 0.75, 0.75])
    y2 = np.array([-1.0 + 0.5j, 0.75, 0.75 + 4e-11])
    box = sf._box((2, 3, 3))
    got = sf._slot_dd(node, (x, y1, y2), box).reshape(3, 2, 3, 3)
    for js in itertools.product(range(3), range(3)):
        bumped = sf.SlotDividedDifference(base, 2, 1, (1 + js[0], 2 + js[1]))
        scale = math.comb(js[0], js[0]) * math.comb(1 + js[1], js[1])
        want = scale * sf._slot_dd(bumped, (x, y1, y2), None)
        assert np.allclose(got[:, 0, js[0], js[1]], want, rtol=1e-13, atol=0), js
        assert np.abs(want).min() > 1e-8  # not a vanishing coefficient


def test_multipoly_in_newton_form():
    # dense[a, b] weighs N_a(x1) N_b(x2), N_a = prod_{j<a} (x - z_j); the
    # monomial form, sums, products, partials and the text all agree with it
    rng = np.random.default_rng(9)
    dense = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    centres = [rng.normal(size=4) + 1j * rng.normal(size=4), np.array([0.5, -2.0])]
    p = MultiPoly(2, dense, centres)
    assert [z.tolist() for z in p.centres] == [centres[0][:3].tolist(), [0.5, -2.0]]
    mono = MultiPoly(2, p.coeffs)
    assert mono.centres[0].tolist() == [0, 0, 0] and not mono.centres[1].any()
    text = parse_field(str(p))
    for _ in range(4):
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        want = sum(dense[a, b] * np.prod(x - centres[0][:a]) * np.prod(y - centres[1][:b])
                   for a in range(4) for b in range(3))
        for q in (p, mono, text):
            assert q(x, y) == pytest.approx(want, rel=1e-12)
        assert (p + p)(x, y) == pytest.approx(2 * want, rel=1e-12)
        assert (2.5 * p)(x, y) == pytest.approx(2.5 * want, rel=1e-12)
        assert (p * p)(x, y) == pytest.approx(want * want, rel=1e-12)
        assert p.partial(0)(x, y) == pytest.approx(mono.partial(0)(x, y), rel=1e-12)
    assert all(map(np.array_equal, (2.5 * p).centres, p.centres))
    assert p == MultiPoly(2, dense, centres) and hash(p) == hash(MultiPoly(2, dense, centres))
    assert p != MultiPoly(2, dense) and p != mono
    with pytest.raises(ValueError, match="centres"):
        MultiPoly(2, dense, [centres[0][:2], centres[1]])


@pytest.mark.parametrize("base", ["exp(0.7*x1)/(x1 + 5)", "1/(x1 + 3 - 1i)", "log(x1 + 4)"])
def test_doubled_node_kernel_grid_is_the_tree_walk_to_the_bit(base):
    # the paper route's trace field: the grid meets the equal nodes of a
    # doubled variable as the tree walk does
    field = doubled_node_difference_field(parse_field(base), 3, 2)
    spectrum = [_SHARED + [(2.25 + 0.5j, 1), (-0.6 - 0.8j, 1)]] * 3
    walk = field(*_axes(spectrum))
    G = derivative_grid(field, spectrum)
    assert G.tobytes() == walk.tobytes()
