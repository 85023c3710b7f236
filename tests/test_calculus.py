"""Divided differences and the derivative formulas built on them."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import matfn.calculus as calculus
import matfn.funcalc as funcalc
import matfn.scalarfield as scalarfield
import matfn.spectral as spectral
import matfn.tensor as tensor
from matfn import (
    FieldDomainError,
    MatfnError,
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
    u_function,
)
from matfn.funcalc import jordan_matrix
from matfn.scalarfield import absval
from matfn.spectral import analyze
from matfn.verify import _contour_check, _paper_chain, _resolvent_stack, random_diagonalizable

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


def test_evaluation_only_differences_take_the_parlett_recurrence():
    # distinct nodes give the difference quotients of the values; confluent ones are refused
    f = absval(parse_field("x1"))
    a, b, c = 0.5, -0.7 + 0.2j, 1.3
    ab, bc = (abs(b) - abs(a)) / (b - a), (abs(c) - abs(b)) / (c - b)
    assert divided_difference(f, [a, b]) == pytest.approx(ab, rel=1e-14)
    assert divided_difference(f, [a, b, c]) == pytest.approx((bc - ab) / (c - a), rel=1e-13)
    with pytest.raises(FieldDomainError, match="AbsVal is an evaluation-only"):
        divided_difference(f, [a, b, a + 1e-12])


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


def _chain_case(name):
    """(M, H, at) of one chain input: a normal M; an exact Jordan matrix; J_5(1)
    conjugated, one block of positive radius, so that its Taylor pad is worked
    out; and the normal M taken at z = 0.3 along H."""
    r = np.random.default_rng(17)
    if name == "jordan":
        M = jordan_matrix([(0.5, 3), (-1.0 + 0.5j, 2)])
    elif name == "conjugated":
        S = np.random.default_rng(5).normal(size=(5, 5))
        M = S @ jordan_matrix([(1.0, 5)]) @ np.linalg.inv(S)
    else:
        Q, _ = np.linalg.qr(r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4)))
        M = Q @ np.diag([0.5, -1.0 + 0.5j, 1.5, 0.25j]) @ Q.conj().T
    H = r.standard_normal(M.shape) / 2
    return M, H, 0.3 if name == "shifted" else 0.0


_CHAIN_CASES = ["normal", "jordan", "conjugated", "shifted"]


@pytest.mark.parametrize("name", _CHAIN_CASES)
@pytest.mark.parametrize("text", ["1/(x1 + 6)", "exp(x1)"])
def test_curve_and_trace_agree_with_the_paper_route(name, text):
    # the paper's route: the extension of the divided-difference field at
    # copies of A, its adjacent slots contracted through H one at a time
    M, H, at = _chain_case(name)
    A = M + at * H
    if name == "conjugated":
        [(_, size, radius)] = analyze(A).blocks
        assert size == 5 and radius > 0
    f = parse_field(text)
    for n in range(1, 5):
        curve = nth_derivative_curve(f, M, H, n, at)
        paper = math.factorial(n) * _paper_chain(divided_difference_field(f, n), A, H)
        assert np.linalg.norm(curve - paper) <= 1e-12 * np.linalg.norm(paper), (n, "curve")
        trace = trace_derivative(f, M, H, n, at)
        doubled = doubled_node_difference_field(f, n, n - 1)
        paper = math.factorial(n) * np.trace(_paper_chain(doubled, A, H) @ H)
        assert abs(trace - paper) <= 1e-12 * abs(paper), (n, "trace")


@pytest.mark.parametrize("name", _CHAIN_CASES)
def test_a_chain_validates_once_and_builds_no_extension(name, monkeypatch):
    # one check per argument and one analysis; no extension is built, so no
    # OperatorTensor either
    M, H, at = _chain_case(name)
    names, calls = [], {"_analyze_all": 0}
    check = spectral.as_square_matrix

    def counting(A, name="matrix"):
        names.append(name)
        return check(A, name)

    def counted(fn_name):
        fn = getattr(calculus, fn_name)

        def call(*args):
            calls[fn_name] += 1
            return fn(*args)

        return call

    def refuse(*args, **kwargs):
        raise AssertionError("the chain built a tensor extension")

    for module in (spectral, calculus, tensor):
        monkeypatch.setattr(module, "as_square_matrix", counting)
    for fn_name in calls:
        monkeypatch.setattr(calculus, fn_name, counted(fn_name))
    for module, attr in ((calculus, "f_otimes"), (funcalc, "f_otimes"), (tensor, "_network")):
        monkeypatch.setattr(module, attr, refuse)
    f = parse_field("1/(x1 + 6)")
    for n in range(1, 5):
        for route in (nth_derivative_curve, trace_derivative):
            names.clear()
            calls.update(dict.fromkeys(calls, 0))
            route(f, M, H, n, at)
            assert names == ["direction", "matrix"], (route.__name__, n)
            assert list(calls.values()) == [1], (route.__name__, n, calls)


@pytest.mark.parametrize("route", [nth_derivative_curve, trace_derivative])
def test_a_chain_off_the_field_domain_is_a_domain_error(route):
    # 1/x1 at the eigenvalue 0: the grid walk's error, re-raised by the chain
    f, M, H = parse_field("1/x1"), np.diag([0.0, 1.0]), np.array([[0.3, -0.2], [0.1, 0.25]])
    message = "field is not defined on the spectral grid of the arguments"
    for n in range(4):
        with pytest.raises(FieldDomainError, match=message):
            route(f, M, H, n)


@pytest.mark.parametrize("route", [nth_derivative_curve, trace_derivative])
def test_a_chain_with_an_overflowing_difference_is_a_domain_error(route):
    # exp(700 x) is finite at the eigenvalues, its third differences there are not
    f, M, H = parse_field("exp(700*x1)"), np.diag([1.0, 0.99]), np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(FieldDomainError, match="is not finite"):
        route(f, M, H, 3)


def test_long_chains_fold_past_the_einsum_letters():
    # chains longer than einsum's 52 letters would allow, at a 1 x 1 argument:
    # d^n/dz^n exp(0.5 + 1.5 z) = exp(0.5) 1.5^n
    f = parse_field("exp(x1)")
    for n in (16, 17, 25):
        want = np.exp(0.5) * 1.5**n
        assert nth_derivative_curve(f, [[0.5]], [[1.5]], n)[0, 0] == pytest.approx(want, rel=1e-14)
        assert trace_derivative(f, [[0.5]], [[1.5]], n) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# divided differences and chains against exact references. The exp and log
# values are f at the Opitz matrix of the nodes, mpmath's expm and logm at 60
# digits; the resolvent ones are closed forms.


def _resolvent_difference(c, nodes):
    """f[x_0..x_n] of 1/(x + c): (-1)^n / prod (x_i + c)."""
    return (-1) ** (len(nodes) - 1) / math.prod(x + c for x in nodes)


_AT = [complex(0.169, 0.168)] * 4 + [complex(0.813, -0.003)] * 4
_DIFFERENCE_ROWS = {
    "resolvent-7-fold": (
        "1/(x1 + 2.5)", [0.5] + [0.75] * 7, _resolvent_difference(2.5, [0.5] + [0.75] * 7)
    ),
    "exp-resolvent-4-4": (
        "exp(x1/2)/(x1 + 6)",
        _AT,
        7.45207527441117243256482824260556302189923907895831040217327e-8
        + 5.05658841011773863517887068193372484081894720131272447675083e-9j,
    ),
    "exp-resolvent-4-3": (
        "exp(x1/2)/(x1 + 6)",
        _AT[:7],
        1.47473313885050257239388490779764528077206942476694744167251e-6
        + 4.60775897172673162988555477614755145589682932875556824537676e-8j,
    ),
    "log-close-nodes": (
        "log(x1 + 3)*x1^2",
        [1.0, 1.001, 1.002, 1.2, 1.2, 1.5],
        2.94770424840037716065677673220044182455585978827042719873531e-3,
    ),
    "exp-spread-nodes": (
        "exp(x1)",
        list(np.linspace(-3.0, 3.0, 9)) + [0.1] * 3,
        2.86175552515184093535525719509342108642764004480589689395314e-8,
    ),
    "resolvent-8-8": (
        "1/(x1 + 6)", [0.5] * 8 + [-0.3] * 8, _resolvent_difference(6.0, [0.5] * 8 + [-0.3] * 8)
    ),
}


@pytest.mark.parametrize("row", list(_DIFFERENCE_ROWS))
def test_divided_differences_match_exact_references(row):
    text, nodes, want = _DIFFERENCE_ROWS[row]
    got = divided_difference(parse_field(text), nodes)
    assert abs(got - want) <= 1e-14 * abs(want), abs(got - want) / abs(want)


def _resolvent_curve(A, H, c, n):
    """d^n/dz^n (A + zH + cI)^-1 at 0: (-1)^n n! R (H R)^n."""
    R = np.linalg.inv(A + c * np.eye(len(A)))
    return (-1) ** n * math.factorial(n) * R @ np.linalg.matrix_power(H @ R, n)


def _assert_chain(f, A, H, c, n, bound):
    want = _resolvent_curve(A, H, c, n)
    curve = nth_derivative_curve(f, A, H, n)
    assert np.linalg.norm(curve - want) <= bound * np.linalg.norm(want), ("curve", n)
    trace = trace_derivative(f, A, H, n)
    assert abs(trace - np.trace(want)) <= bound * abs(np.trace(want)), ("trace", n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chains_at_close_eigenvalues_match_the_resolvent(n):
    # A = I + G/8: the smallest eigenvalue gap is 0.035
    A = np.eye(8) + np.random.default_rng(3).standard_normal((8, 8)) / 8
    H = np.random.default_rng(4).standard_normal((8, 8))
    _assert_chain(parse_field("1/(x1 + 6)"), A, H, 6.0, n, 1e-14)


@pytest.mark.parametrize("n", [8, 12, 15])
def test_high_order_chains_match_the_resolvent(n):
    A = np.diag([0.5, -0.3]) + 0.2 * np.eye(2, k=1)
    H = np.array([[0.3, -0.2], [0.1, 0.25]])
    _assert_chain(parse_field("1/(x1 + 6)"), A, H, 6.0, n, 1e-13)


def test_conjugated_mixed_spectrum_curve_matches_the_resolvent():
    # one Jordan block among six simple eigenvalues, conjugated
    S = np.random.default_rng(7).standard_normal((8, 8))
    J = jordan_matrix([(0.5, 2)] + [(v, 1) for v in (-1, -0.6, 0.1, 0.9, 1.4, 2)])
    A = S @ J @ np.linalg.inv(S)
    H = np.random.default_rng(8).standard_normal((8, 8)) / 4
    want = _resolvent_curve(A, H, 5.0, 4)
    got = nth_derivative_curve(parse_field("1/(x1 + 5)"), A, H, 4)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("d", [30, 60])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_laplacian_curve_interleaves_repeated_nodes(d, n):
    # each of the d eigenvalues is a node n + 1 times; taken in a row, the
    # copies put the curve 8.1e-3 (d = 30, n = 1) to 7.2e+17 (d = 60, n = 3) off
    L = 2 * np.eye(d) - np.eye(d, k=1) - np.eye(d, k=-1)
    H = np.random.default_rng(1).standard_normal((d, d)) / d
    want = _resolvent_curve(L, H, 1.0, n)
    got = nth_derivative_curve(parse_field("1/(x1 + 1)"), L, H, n)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_trace_derivative_matches_curve_trace():
    # the trace of the curve's contour integral shares no code with the chain
    # sum; the curve derivative's own trace reads the same basis row
    M = rng.normal(size=(3, 3))
    H = rng.normal(size=(3, 3))
    f = parse_field("exp(x1)")
    for n in (1, 2, 3):
        got = trace_derivative(f, M, H, n, at=0.1)
        w, X = _resolvent_stack(M + 0.1 * H, H, n, 0.5)
        want = np.trace(np.tensordot(f(w), X, axes=2))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


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


def test_projector_derivative_high_orders_match_contour():
    r = np.random.default_rng(11)
    # d = 8 is the size of the deep-orders benchmark's projector and eigenvalue cases
    for lams, anchors in [
        (np.array([-2.0, -1.0, 0.2, 1.0, 2.1, 3.0]), (0, 2, 5)),
        (np.array([-2.6, -2.0, -1.0, 0.2, 1.0, 2.1, 3.0, 3.8]), (0, 3, 7)),
    ]:
        d = len(lams)
        S = np.eye(d) + 0.3 * r.standard_normal((d, d))
        A = S @ np.diag(lams) @ np.linalg.inv(S)
        H = 0.3 * r.standard_normal((d, d))
        for n in (3, 4):
            _, X = _resolvent_stack(A, H, n, 0.5)
            for which in anchors:
                want = X[which].sum(axis=0)
                got = projector_derivative(A, H, which, n)
                err = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert err <= 1e-12, (d, which, n, err)


def _kernel_sum(lams, V, W, Hm, which, n):
    """The paper's order-n projector term: the u-kernel summed over the (n+1)-tuples.

    The kernel is evaluated on the (n+1)-fold eigenvalue grid and folded
    against G = W H V one consecutive pair of indices at a time.
    """
    axes = [lams.reshape((-1,) + (1,) * (n - l)) for l in range(n + 1)]
    K = u_function(lams[which], n)(*axes)  # K[k_0, ..., k_n]
    if n == 0:
        K = np.diag(K)
    else:
        G = W @ Hm @ V
        K = K * G.reshape(G.shape + (1,) * (n - 1))
        for _ in range(n - 1):
            K = np.einsum("abc...,bc->ac...", K, G)
    return math.factorial(n) * (V @ K @ W)


@pytest.mark.parametrize("d", [3, 8])
def test_perturbation_series_match_the_kernel_sum(d):
    r = np.random.default_rng(d)
    M = random_diagonalizable(r, d, min_gap=0.4)
    H = r.normal(size=(d, d)) + 1j * r.normal(size=(d, d))
    for which in (0, d // 2, d - 1):
        for n in range(5):
            frame = calculus._simple_spectrum_frame(M, H, which, n, 0.1)
            want = _kernel_sum(*frame, which, n)
            got = projector_derivative(M, H, which, n, 0.1)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (which, n)
            if n:
                want = np.trace(_kernel_sum(*frame, which, n - 1) @ frame[3])
                got = eigenvalue_derivative(M, H, which, n, 0.1)
                assert abs(got - want) <= 1e-13 * abs(want), (which, n)


def test_perturbation_series_at_dimension_24_order_4_stay_small():
    # the kernel sum holds 24^5 entries here: 1.1 s and a 919 MiB traced peak
    d, which, n = 24, 12, 4
    G, G2 = np.random.default_rng(0).standard_normal((2, d, d))
    A, H = np.diag(np.linspace(-2, 2, d)) + G / 48, G2 / 24
    tracemalloc.start()
    try:
        P = projector_derivative(A, H, which, n)
        lam = eigenvalue_derivative(A, H, which, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    stacks = [_resolvent_stack(A, H, n, s) for s in (0.5, 0.25)]
    want = stacks[1][1][which].sum(axis=0)
    assert np.linalg.norm(P - want) <= 1e-12 * np.linalg.norm(want)
    # the eigenvalue derivative reads 5.4e-3; the s = 1/2 circle is 7.4e-13 off it,
    # relative, and the s = 1/4 circle 8.6e-15
    near, far = (np.einsum("p,pii->", w[which], X[which]) for w, X in stacks)
    assert _contour_check("eig-d4", lam, near, far, scale=abs(near)).passed


def test_perturbation_series_evaluate_no_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("a perturbation series evaluated the u-kernel")

    monkeypatch.setattr(scalarfield, "_proj_kernel", refuse)
    monkeypatch.setattr(calculus, "u_function", refuse)
    M, H = np.random.default_rng(4).normal(size=(2, 5, 5))
    for n in range(5):
        assert np.isfinite(projector_derivative(M, H, 2, n, 0.3)).all()
        assert np.isfinite(eigenvalue_derivative(M, H, 2, n, 0.3))


def test_perturbation_series_check_the_order_and_index_before_eig(monkeypatch):
    def refuse(A):
        raise AssertionError("the inputs reached eig")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    M = np.diag([1.0, 1.0])  # not simple: the index must be refused before that is found
    for route in (projector_derivative, eigenvalue_derivative):
        with pytest.raises(ValueError, match="derivative order must be nonnegative"):
            route(np.diag([1.0, 2.0]), np.eye(2), 0, -1)
        for which in (5, 2, -1):
            with pytest.raises(ValueError, match=f"eigenvalue index {which} out of range"):
                route(M, np.eye(2), which, 1)


def test_perturbation_requires_simple_spectrum():
    M = np.diag([1.0, 1.0])
    H = np.eye(2)
    with pytest.raises(SpectralError, match="simple spectrum"):
        eigenvalue_derivative(M, H, 0, 1)


def test_perturbation_rejects_tiny_gap():
    M = np.diag([1.0, 1.0 + 1e-9])
    with pytest.raises(SpectralError, match="gap"):
        projector_derivative(M, np.eye(2), 0, 1)


def test_perturbation_series_takes_one_eig_and_no_eigvals(monkeypatch):
    # the frame's eigenvalues, their order and the simplicity test all come
    # from one eig of A
    M, H = np.random.default_rng(5).normal(size=(2, 4, 4))
    eig, calls = np.linalg.eig, []

    def counting(A):
        calls.append(A.shape)
        return eig(A)

    def refuse(*args, **kwargs):
        raise AssertionError("the perturbation series called eigvals")

    monkeypatch.setattr(np.linalg, "eig", counting)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    for n in range(3):
        for route in (projector_derivative, eigenvalue_derivative):
            calls.clear()
            route(M, H, 1, n, 0.2)
            assert calls == [(4, 4)], (route.__name__, n)


def test_frechet_checks_each_distinct_matrix_once(monkeypatch):
    # [A, A] is one check; f_otimes and poly_tensor_eval still check the
    # doubled slot list themselves
    A, H = np.random.default_rng(6).normal(size=(2, 3, 3))
    names = []
    check = spectral.as_square_matrix

    def counting(M, name="matrix"):
        names.append(name)
        return check(M, name)

    for module in (spectral, calculus, tensor):
        monkeypatch.setattr(module, "as_square_matrix", counting)
    frechet_derivative(parse_field("1/(x1 + x2 + 7)"), [A, A], 0, H)
    assert names[: names.index("direction")] == ["slot 0 matrix"]
    assert names[names.index("direction") + 1 :].count("slot 0 matrix") == 2


def test_perturbation_series_reports_a_failed_eig_as_spectral_error(monkeypatch):
    def fail(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    for route in (projector_derivative, eigenvalue_derivative):
        with pytest.raises(SpectralError, match="Eigenvalues did not converge"):
            route(np.diag([1.0, 2.0]), np.eye(2), 0, 1)


@pytest.mark.parametrize("M, H", [
    (np.array([[2.0]]), np.diag([1.0, 2.0, 3.0])),
    (np.diag([1.0, 2.0, 3.0]), np.eye(2)),
])
def test_line_derivatives_refuse_a_direction_of_another_shape(M, H):
    # M + at H would broadcast: a 1x1 M reads as the all-2 matrix, a 2x2 H
    # as numpy's broadcast error
    f = parse_field("exp(x1)")
    routes = [
        lambda: nth_derivative_curve(f, M, H, 1),
        lambda: trace_derivative(f, M, H, 1),
        lambda: eigenvalue_derivative(M, H, 0, 1),
        lambda: projector_derivative(M, H, 0, 1),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="direction must match the matrix's shape"):
            route()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("at, scale", [(math.nan, 1.0), (math.inf, 1.0), (1e308, 10.0)])
def test_line_derivatives_refuse_a_non_finite_point(at, scale):
    # at = 1e308 is finite, but M + at H overflows
    M, H = np.array([[1.0, 2.0], [0.0, 3.0]]), scale * np.eye(2)
    f = parse_field("exp(x1)")
    routes = [
        lambda: nth_derivative_curve(f, M, H, 1, at),
        lambda: trace_derivative(f, M, H, 1, at),
        lambda: eigenvalue_derivative(M, H, 0, 1, at),
        lambda: projector_derivative(M, H, 0, 1, at),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="not finite|non-finite entries"):
            route()


def test_line_derivatives_check_the_order_and_an_empty_matrix():
    f = parse_field("exp(x1)")
    empty = np.zeros((0, 0))
    for route in (nth_derivative_curve, trace_derivative):
        with pytest.raises(ValueError, match="derivative order must be nonnegative"):
            route(f, np.diag([1.0, 3.0]), np.eye(2), -1)
        with pytest.raises(ValueError, match="matrix must not be empty"):
            route(f, empty, empty, 1)
    for route in (eigenvalue_derivative, projector_derivative):
        with pytest.raises(ValueError, match="matrix must not be empty"):
            route(empty, empty, 0, 1)


def test_cyclic_sum_of_doubled_nodes():
    f = parse_field("exp(x1)")
    fprime = f.partial(0)
    n = 3
    pts = [0.4, -0.2, 0.9]
    lhs = divided_difference_field(fprime, n - 1)(*pts)
    rhs = sum(doubled_node_difference_field(f, n, kk)(*pts) for kk in range(n))
    assert lhs == pytest.approx(rhs)


def test_the_factorial_step_rounds_as_the_float_factorial():
    # n! x bit for bit wherever float(n!) exists, signed zeros and subnormals included
    r = np.random.default_rng(17)
    for n in range(171):
        for scale in (1e-310, 1e-300, 1e-8, 1.0, 1e8, 1e150):
            x = scale * (r.normal(size=(3, 4)) + 1j * r.normal(size=(3, 4)))
            x[0, :3] = [complex(-0.0, 1.0), complex(-0.0, -1.0), complex(-0.0, -0.0)]
            with np.errstate(over="ignore", invalid="ignore"):
                want = math.factorial(n) * x
            if not np.isfinite(want).all():
                continue
            assert calculus._derivative(x, n).tobytes() == want.tobytes(), (n, scale)
            z = complex(x[1, 1])
            assert repr(complex(calculus._derivative(z, n))) == repr(math.factorial(n) * z)


def test_the_factorial_step_names_the_order_of_a_non_finite_derivative():
    want = float(math.factorial(200) * Fraction(1e-300))  # 7.9e74
    assert calculus._derivative(np.full(2, 1e-300), 200) == pytest.approx([want] * 2, rel=1e-15)
    for x, n in ((np.ones(2), 171), (np.array([1e308, 1.0]), 3)):
        with pytest.raises(MatfnError, match=f"the order-{n} derivative is not finite"):
            calculus._derivative(x, n)
    with pytest.raises(MatfnError, match="the order-160 derivative is not finite"):
        eigenvalue_derivative(np.diag([1.0, 2.0]), [[0.0, 30.0], [40.0, 0.0]], 1, 160)
    # a finite first projector derivative whose trace against H overflows
    M, H = np.diag([0.0, 1e308]), np.array([[0.0, 1.5e308], [1.5e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.isfinite(projector_derivative(M, H, 0, 1)).all()
        with pytest.raises(MatfnError, match="the order-2 derivative is not finite"):
            eigenvalue_derivative(M, H, 0, 2)


@pytest.mark.parametrize("n", [171, 200])
def test_derivatives_beyond_order_170_match_closed_forms(n):
    # n! overflows a float from n = 171, these derivatives do not
    fact, f = math.factorial(n), parse_field("1/(x1+5)")
    # along the commuting line diag(m + z h): d^n/dz^n 1/(x+5) = (-1)^n n! h^n / (m+5)^(n+1)
    m, h = [1.0, 2.0, -0.5], [0.5, -0.25, 0.375]
    M, H = np.diag(m), np.diag(h)
    want = np.array([float((-1) ** n * fact * Fraction(b) ** n / Fraction(a + 5) ** (n + 1))
                     for a, b in zip(m, h)])
    curve = nth_derivative_curve(f, M, H, n)
    assert np.abs(curve - np.diag(want)).max() <= 1e-9 * np.abs(want).max()
    assert abs(trace_derivative(f, M, H, n) - want.sum()) <= 1e-9 * abs(want.sum())
    # there no projector moves and every eigenvalue is linear in z
    assert not projector_derivative(M, H, 1, n).any()
    assert eigenvalue_derivative(M, H, 1, n) == 0
    # A(z) = [[-1, sz], [sz, 1]]: lam(z) = sqrt(1 + s^2 z^2), P(z) = (I + A(z) / lam(z)) / 2
    s = Fraction(1, 10)

    def taylor(p, j):  # the z^j coefficient of (1 + s^2 z^2)^p
        return 0 if j % 2 else math.prod(p - i for i in range(j // 2)) / math.factorial(j // 2) * s**j

    A, Hs = np.diag([-1.0, 1.0]), float(s) * np.array([[0.0, 1.0], [1.0, 0.0]])
    half = Fraction(1, 2)
    diag, off = fact * half * taylor(-half, n), fact * half * s * taylor(-half, n - 1)
    P = np.array([[-float(diag), float(off)], [float(off), float(diag)]])
    got = projector_derivative(A, Hs, 1, n)
    assert np.abs(got - P).max() <= 1e-12 * np.abs(P).max()
    lam = float(fact * taylor(half, n))
    assert abs(eigenvalue_derivative(A, Hs, 1, n) - lam) <= 1e-12 * max(abs(lam), 1.0)
