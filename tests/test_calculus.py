"""Divided differences and the derivative formulas built on them."""

import math
import tracemalloc

import numpy as np
import pytest

import matfn.scalarfield as sf
from matfn import (
    SpectralError,
    divided_difference,
    divided_difference_field,
    divided_difference_table,
    doubled_node_difference_field,
    eigenvalue_derivative,
    first_difference_field,
    frechet_derivative,
    nth_derivative_curve,
    parse_field,
    projector_derivative,
    trace_derivative,
)

rng = np.random.default_rng(31)


def test_divided_difference_values():
    f = parse_field("x1^2")
    assert divided_difference(f, [1.0, 3.0]) == pytest.approx(4.0)
    # repeated nodes take derivatives
    assert divided_difference(f, [2.0, 2.0]) == pytest.approx(4.0)
    g = parse_field("exp(x1)")
    assert divided_difference(g, [0.0, 0.0]) == pytest.approx(1.0)
    assert divided_difference(g, [0.0, 0.0, 0.0]) == pytest.approx(0.5)


def test_divided_difference_leading_coefficient():
    # the n-th divided difference of x^n is 1 at any nodes
    f = parse_field("x1^3")
    nodes = [0.3, 1.7, -0.4, 2.2]
    assert divided_difference(f, nodes) == pytest.approx(1.0)


def test_divided_difference_symmetry():
    f = parse_field("exp(x1)")
    nodes = [0.1, 0.7, -0.3]
    a = divided_difference(f, nodes)
    b = divided_difference(f, [0.7, -0.3, 0.1])
    assert a == pytest.approx(b)


def test_table_exposes_levels():
    f = parse_field("x1^2")
    table = divided_difference_table(f, [1.0, 2.0, 4.0])
    assert table.levels[0] == pytest.approx([1.0, 4.0, 16.0])
    assert table.levels[1] == pytest.approx([3.0, 6.0])
    assert table.value == pytest.approx(1.0)


def test_difference_fields_evaluate():
    f = parse_field("x1^2")
    g = first_difference_field(f, 0)
    assert g.arity == 2
    assert g(1.0, 3.0) == pytest.approx(4.0)
    assert g(2.0, 2.0) == pytest.approx(4.0)

    d2 = divided_difference_field(f, 2)
    assert d2.arity == 3
    assert d2(0.0, 1.0, 5.0) == pytest.approx(1.0)

    h = doubled_node_difference_field(f, 2, 1)
    # f[x1, x2, x2] for f = x^2 is 1 regardless of the nodes
    assert h(0.5, 2.0) == pytest.approx(1.0)


def test_difference_field_partials():
    # d/dy f[x, y] = f[x, y, y]
    f = parse_field("exp(x1)")
    g = first_difference_field(f, 0)
    gy = g.partial(1)
    x, y = 0.3, 1.1
    want = divided_difference(f, [x, y, y])
    assert gy(x, y) == pytest.approx(want)


def test_first_difference_multivariate_slot():
    f = parse_field("x1*x2^2")
    g = first_difference_field(f, 1)  # difference in the second slot
    assert g.arity == 3
    # (x1 y1^2 - x1 y2^2)/(y1 - y2) = x1 (y1 + y2)
    assert g(2.0, 1.0, 3.0) == pytest.approx(8.0)


def test_frechet_square_field():
    M = rng.normal(size=(3, 3))
    H = rng.normal(size=(3, 3))
    D = frechet_derivative(parse_field("x1^2"), [M], 0, H)
    assert np.allclose(D.data, M @ H + H @ M, atol=1e-8)


def test_frechet_exp_at_zero():
    H = rng.normal(size=(2, 2))
    D = frechet_derivative(parse_field("exp(x1)"), [np.zeros((2, 2))], 0, H)
    assert np.allclose(D.data, H, atol=1e-10)


def test_frechet_in_second_slot():
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    H = rng.normal(size=(2, 2))
    D = frechet_derivative(parse_field("x1*x2^2"), [A, B], 1, H)
    want = np.einsum("ij,kl->ijkl", A, B @ H + H @ B)
    assert np.allclose(D.data, want, atol=1e-8)


def test_curve_derivatives_of_cube():
    M = rng.normal(size=(3, 3))
    H = rng.normal(size=(3, 3))
    d1 = nth_derivative_curve(parse_field("x1^3"), M, H, 1)
    want1 = M @ M @ H + M @ H @ M + H @ M @ M
    assert np.allclose(d1, want1, atol=1e-8)
    d2 = nth_derivative_curve(parse_field("x1^3"), M, H, 2)
    want2 = 2 * (M @ H @ H + H @ M @ H + H @ H @ M)
    assert np.allclose(d2, want2, atol=1e-8)
    d3 = nth_derivative_curve(parse_field("x1^3"), M, H, 3)
    want3 = 6 * H @ H @ H
    assert np.allclose(d3, want3, atol=1e-7)
    d4 = nth_derivative_curve(parse_field("x1^3"), M, H, 4)
    assert np.linalg.norm(d4) < 1e-7


def test_curve_order_zero_is_plain_value():
    M = rng.normal(size=(2, 2))
    H = rng.normal(size=(2, 2))
    got = nth_derivative_curve(parse_field("x1^2"), M, H, 0, at=0.5)
    A = M + 0.5 * H
    assert np.allclose(got, A @ A, atol=1e-9)


def test_trace_derivative_square_field():
    M = rng.normal(size=(3, 3))
    H = rng.normal(size=(3, 3))
    got = trace_derivative(parse_field("x1^2"), M, H, 1)
    assert got == pytest.approx(2 * np.trace(M @ H))
    # second derivative of Tr (M + zH)^2 is 2 Tr H^2
    got2 = trace_derivative(parse_field("x1^2"), M, H, 2)
    assert got2 == pytest.approx(2 * np.trace(H @ H))


def test_curve_and_trace_derivatives_stay_small_and_accurate():
    # d = 8, n = 3: the assembled 4-slot tensor would hold 8^8 entries
    # (268 MB); the fold forms only d x d matrices
    d, n = 8, 3
    r = np.random.default_rng(5)
    Q, _ = np.linalg.qr(r.standard_normal((d, d)))
    A = Q @ np.diag(np.linspace(-2.0, 2.0, d)) @ Q.T
    H = r.standard_normal((d, d))
    f = parse_field("1/(x1 + 6)")
    # resolvent closed form: d^n/dz^n (A + 6 + zH)^-1 = (-1)^n n! R (H R)^n
    R = np.linalg.inv(A + 6 * np.eye(d))
    want = (-1) ** n * math.factorial(n) * R @ np.linalg.matrix_power(H @ R, n)
    for route, expect in ((nth_derivative_curve, want), (trace_derivative, np.trace(want))):
        tracemalloc.start()
        try:
            got = route(f, A, H, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect), route.__name__
        assert peak < 32 * 2**20, (route.__name__, peak)


def test_trace_derivative_matches_curve_trace():
    M = rng.normal(size=(3, 3))
    H = rng.normal(size=(3, 3))
    f = parse_field("exp(x1)")
    for n in (1, 2, 3):
        a = trace_derivative(f, M, H, n, at=0.1)
        b = complex(np.trace(nth_derivative_curve(f, M, H, n, at=0.1)))
        assert a == pytest.approx(b, rel=1e-9)


def test_projector_derivative_two_by_two():
    M = np.diag([1.0, 2.0])
    H = rng.normal(size=(2, 2))
    P0 = np.diag([1.0, 0.0])
    P1 = np.diag([0.0, 1.0])
    got = projector_derivative(M, H, 0, 1)
    want = (P0 @ H @ P1 + P1 @ H @ P0) / (1.0 - 2.0)
    assert np.allclose(got, want, atol=1e-10)
    # projectors of the two eigenvalues move opposite ways
    other = projector_derivative(M, H, 1, 1)
    assert np.allclose(got + other, 0.0, atol=1e-10)


def test_projector_derivative_order_zero():
    M = np.diag([1.0, 2.0])
    H = np.zeros((2, 2))
    P = projector_derivative(M, H, 1, 0)
    assert np.allclose(P, np.diag([0.0, 1.0]), atol=1e-12)


def test_eigenvalue_derivative_first_order():
    M = np.diag([1.0, 2.0, 4.0])
    H = rng.normal(size=(3, 3))
    for i in range(3):
        got = eigenvalue_derivative(M, H, i, 1)
        assert got == pytest.approx(H[i, i])


def test_eigenvalue_derivative_second_order():
    lams = [1.0, 2.0, 4.0]
    M = np.diag(lams)
    H = rng.normal(size=(3, 3))
    # lambda_i'' = 2 sum_{j != i} H_ij H_ji / (lam_i - lam_j)
    for i in range(3):
        want = 2 * sum(
            H[i, j] * H[j, i] / (lams[i] - lams[j]) for j in range(3) if j != i
        )
        got = eigenvalue_derivative(M, H, i, 2)
        assert got == pytest.approx(want)


def test_eigenvalue_derivative_third_order():
    lams = [1.0, 2.0, 4.0]
    M = np.diag(lams)
    H = rng.normal(size=(3, 3))
    # third derivative of lambda_i:
    # 6 [sum_{j,k != i} H_ij H_jk H_ki / ((lam_i - lam_j)(lam_i - lam_k))
    #    - H_ii sum_{j != i} H_ij H_ji / (lam_i - lam_j)^2]
    for i in range(3):
        others = [j for j in range(3) if j != i]
        cubic = sum(
            H[i, j] * H[j, k] * H[k, i] / ((lams[i] - lams[j]) * (lams[i] - lams[k]))
            for j in others
            for k in others
        )
        square = sum(H[i, j] * H[j, i] / (lams[i] - lams[j]) ** 2 for j in others)
        want = 6 * (cubic - H[i, i] * square)
        got = eigenvalue_derivative(M, H, i, 3)
        assert got == pytest.approx(want)


def _contour_projector_derivative(A, H, lam, radius, n, points=256):
    """n!/(2 pi i) times the integral of R (H R)^n around lam, R = (z - A)^-1.

    The trapezoid rule on a circle converges geometrically for this
    analytic integrand.
    """
    d = A.shape[0]
    total = np.zeros((d, d), dtype=complex)
    for t in 2 * np.pi * np.arange(points) / points:
        dz = radius * np.exp(1j * t)  # z - lam, and dz/dt / i
        R = np.linalg.inv((lam + dz) * np.eye(d) - A)
        total += dz * R @ np.linalg.matrix_power(H @ R, n)
    return math.factorial(n) * total / points


def test_projector_derivative_high_orders_match_contour():
    d = 6
    r = np.random.default_rng(11)
    lams = np.array([-2.0, -1.0, 0.2, 1.0, 2.1, 3.0])
    S = np.eye(d) + 0.3 * r.standard_normal((d, d))
    A = S @ np.diag(lams) @ np.linalg.inv(S)
    H = 0.3 * r.standard_normal((d, d))
    for which in (0, 2, 5):
        radius = 0.5 * min(abs(lams[which] - z) for z in lams if z != lams[which])
        for n in (3, 4):
            want = _contour_projector_derivative(A, H, lams[which], radius, n)
            got = projector_derivative(A, H, which, n)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (which, n)


def test_perturbation_requires_simple_spectrum():
    M = np.diag([1.0, 1.0])
    H = np.eye(2)
    with pytest.raises(SpectralError):
        eigenvalue_derivative(M, H, 0, 1)


def test_perturbation_rejects_tiny_gap():
    M = np.diag([1.0, 1.0 + 1e-9])
    with pytest.raises(SpectralError):
        projector_derivative(M, np.eye(2), 0, 1)


def test_cyclic_sum_of_doubled_nodes():
    f = parse_field("exp(x1)")
    fprime = f.partial(0)
    n = 3
    pts = [0.4, -0.2, 0.9]
    lhs = divided_difference_field(fprime, n - 1)(*pts)
    rhs = sum(doubled_node_difference_field(f, n, kk)(*pts) for kk in range(n))
    assert lhs == pytest.approx(rhs)
