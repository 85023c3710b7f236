"""The tensor extension itself, its oracles and its routes."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import matfn.scalarfield as sf
from matfn import (
    NotDiagonalizableError,
    SpectralError,
    analyze,
    apply_vectors,
    chain_contract,
    derivative_grid,
    divided_difference_field,
    f_otimes,
    f_otimes_diagonalizable,
    hermite_basis,
    interpolate,
    jordan_closed_form,
    jordan_matrix,
    matrix_function,
    nth_derivative_curve,
    parse_field,
)
from matfn.tensor import _chain_fold

rng = np.random.default_rng(23)


def test_jordan_matrix_layout():
    J = jordan_matrix([(2.0, 2), (5.0, 1)])
    want = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    assert np.allclose(J, want)


def test_sum_field_gives_kronecker_sum():
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(3, 3))
    T = f_otimes(parse_field("x1 + x2"), [A, B])
    want = np.kron(A, np.eye(3)) + np.kron(np.eye(2), B)
    assert np.allclose(T.as_matrix(), want, atol=1e-9)


def test_product_field_gives_kronecker_product():
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(2, 2))
    T = f_otimes(parse_field("x1*x2"), [A, B])
    assert np.allclose(T.as_matrix(), np.kron(A, B), atol=1e-9)


def test_diagonal_inputs_give_diagonal_values():
    T = f_otimes(parse_field("x1*x2"), [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
    assert np.allclose(np.diag(T.as_matrix()), [3.0, 4.0, 6.0, 8.0], atol=1e-12)
    off = T.as_matrix() - np.diag(np.diag(T.as_matrix()))
    assert np.linalg.norm(off) < 1e-12


def test_inverse_sum_on_diagonals():
    T = f_otimes(parse_field("1/(x1 + x2)"), [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
    assert np.allclose(np.diag(T.as_matrix()), [1 / 4, 1 / 5, 1 / 5, 1 / 6], atol=1e-12)


def test_exp_of_nilpotent_block():
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    E = matrix_function(sf.exp(sf.variable(0, 1)), J)
    assert np.allclose(E, np.eye(2) + J, atol=1e-12)


def test_exp_sum_on_jordan_pair():
    # exp(x1 + x2) factors, so the result is the Kronecker product of
    # the 2x2 closed forms e^a [[1, 1], [0, 1]]
    J1 = jordan_matrix([(1.0, 2)])
    J2 = jordan_matrix([(2.0, 2)])
    T = f_otimes(parse_field("exp(x1 + x2)"), [J1, J2])
    block = lambda a: np.exp(a) * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(T.as_matrix(), np.kron(block(1.0), block(2.0)), atol=1e-9)


def test_jordan_closed_form_single_block():
    blocks = [[(0.5, 3)]]
    J = jordan_matrix(blocks[0])
    f = sf.exp(sf.variable(0, 1))
    T = jordan_closed_form(f, [J], blocks)
    e = np.exp(0.5)
    want = np.array([[e, e, e / 2], [0, e, e], [0, 0, e]])
    assert np.allclose(T.data, want, atol=1e-12)


def test_jordan_closed_form_two_slots():
    b1 = [(2.0, 2)]
    b2 = [(3.0, 1), (4.0, 1)]
    mats = [jordan_matrix(b1), jordan_matrix(b2)]
    f = parse_field("x1*x2")
    T = jordan_closed_form(f, mats, [b1, b2])
    # x1*x2 extends to the plain Kronecker product
    assert np.allclose(T.as_matrix(), np.kron(mats[0], mats[1]), atol=1e-12)


def test_jordan_closed_form_validates_structure():
    blocks = [[(1.0, 2)]]
    wrong = np.array([[1.0, 2.0], [0.0, 1.0]])  # superdiagonal must be 1
    with pytest.raises(ValueError):
        jordan_closed_form(parse_field("x1"), [wrong], blocks)


def test_interp_route_matches_jordan_route():
    for trial in range(5):
        blocks = [[(complex(rng.normal(), rng.normal()), int(rng.integers(1, 4)))]]
        blocks[0].append((blocks[0][0][0] + 2.0, int(rng.integers(1, 3))))
        J = jordan_matrix(blocks[0])
        f = parse_field("x1^3 - 2*x1 + 1")
        a = f_otimes(f, [J])
        b = jordan_closed_form(f, [J], blocks)
        assert np.allclose(a.data, b.data, atol=1e-8 * max(1.0, b.hs_norm()))
    # blocks of size 5 and 4 reach the 1/3! and 1/4! entries of the closed form
    blocks = [[(0.5, 5), (2.0, 1)], [(-0.3 + 0.2j, 4)]]
    mats = [jordan_matrix(b) for b in blocks]
    for f in (parse_field("exp(x1 + x2)"), parse_field("1/(x1 + x2 + 4)")):
        a = f_otimes(f, mats)
        b = jordan_closed_form(f, mats, blocks)
        assert np.allclose(a.data, b.data, atol=1e-8 * max(1.0, b.hs_norm()))


def test_interp_route_matches_diagonalizable_route():
    for trial in range(5):
        d = int(rng.integers(2, 5))
        lams = rng.normal(size=d) + 1j * rng.normal(size=d)
        V = np.eye(d) + 0.4 * rng.normal(size=(d, d))
        M = V @ np.diag(lams) @ np.linalg.inv(V)
        f = parse_field("exp(x1)")
        a = f_otimes(f, [M])
        b = f_otimes_diagonalizable(f, [M])
        assert np.allclose(a.data, b.data, atol=1e-8 * max(1.0, b.hs_norm()))


@pytest.mark.parametrize("text,d", [("1/(x1+x2+x3)", 5), ("1/(x1+x2+x3+x4)", 4)])
def test_interp_route_accurate_on_normal_inputs(text, d):
    # Summing the expanded monomials M_1^a1 (x) ... (x) M_k^ak adds large
    # terms that cancel and loses about 4 digits here; the bound needs the
    # sum to cancel one slot at a time.
    f = parse_field(text)
    lam = np.linspace(1, 3, d) + 0.25j * np.arange(d)
    local = np.random.default_rng(5)
    mats = []
    for _ in range(f.arity):
        Q, _ = np.linalg.qr(local.normal(size=(d, d)) + 1j * local.normal(size=(d, d)))
        mats.append(Q @ np.diag(lam) @ Q.conj().T)
    got = f_otimes(f, mats).data
    want = f_otimes_diagonalizable(f, mats).data
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_diag_route_refuses_defective_input():
    J = jordan_matrix([(1.0, 2)])
    with pytest.raises(NotDiagonalizableError):
        f_otimes_diagonalizable(parse_field("x1^2"), [J])


def test_eigenvector_action():
    # on eigenvector columns the extension acts by the scalar value
    A = np.diag([1.0, 2.0])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = parse_field("x1*x2 + 1")
    T = f_otimes(f, [A, B])
    v = np.array([0.0, 1.0])  # A v = 2 v
    w = np.array([1.0, 1.0]) / np.sqrt(2)  # B w = w
    got = apply_vectors(T, [v, w])
    assert np.allclose(got, f(2.0, 1.0) * np.multiply.outer(v, w), atol=1e-10)


def test_any_matching_interpolant_gives_same_tensor():
    # widening every node's derivative order must not change the result
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(2, 2))
    f = parse_field("exp(x1)/(x2 + 5)")
    base = f_otimes(f, [A, B])
    wide = f_otimes(f, [A, B], extra_multiplicity=1)
    assert np.allclose(base.data, wide.data, atol=1e-7 * max(1.0, base.hs_norm()))


def test_explicit_spectra_override():
    A = np.diag([1.0, 2.0])
    sd = analyze(A)
    f = parse_field("x1^2")
    a = f_otimes(f, [A], spectra=[sd])
    assert np.allclose(a.data, np.diag([1.0, 4.0]), atol=1e-12)


def test_spectra_override_loosens_the_spectral_decision():
    # the conjugated J3(1) of test_spectral splits by about 1e-5; a looser
    # analysis passed through spectra= recovers the defective eigenvalue
    own = np.random.default_rng(11)
    Q, _ = np.linalg.qr(own.normal(size=(3, 3)))
    M = Q @ jordan_matrix([(1.0, 3)]) @ Q.T
    T = f_otimes(parse_field("exp(x1)"), [M], spectra=[analyze(M, cluster_tol=1e-4)])
    expJ = np.e * np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(T.as_matrix() - Q @ expJ @ Q.T)) <= 1e-8


def test_small_matrix_keeps_its_spectrum():
    # 1e-11 * diag(1, 2): two clusters 1e-11 apart, far beyond the cluster
    # threshold; the plain field takes f at each node and the difference
    # quotient field the derivative at the merged centroid
    lams = np.array([1e-11, 2e-11])
    M = np.diag(lams)
    T = f_otimes(parse_field("exp(x1)"), [M])
    assert np.max(np.abs(T.as_matrix() - np.diag(np.exp(lams)))) <= 1e-15
    dd = divided_difference_field(parse_field("exp(x1)"), 1)
    U = f_otimes(dd, [M, M]).as_matrix()
    a, b = np.meshgrid(lams, lams, indexing="ij")
    want = np.exp((a + b) / 2)  # exp[a, b] to within (b - a)^2 / 24
    assert np.max(np.abs(U - np.diag(want.ravel()))) <= 1e-15


def test_matrix_function_routes_agree():
    M = rng.normal(size=(3, 3))
    f = parse_field("x1^2 - x1")
    a = matrix_function(f, M, route="interp")
    b = matrix_function(f, M, route="diag")
    assert np.allclose(a, M @ M - M, atol=1e-8)
    assert np.allclose(a, b, atol=1e-8)
    with pytest.raises(ValueError):
        matrix_function(f, M, route="nope")


def test_chain_contract_square_identity():
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    S = chain_contract(f_otimes(parse_field("(x1 + x2)^2"), [A, B]))
    assert np.allclose(S, A @ A + 2 * A @ B + B @ B, atol=1e-8)


def test_sylvester_solution_by_chain_contract():
    A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    B = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    X = chain_contract(f_otimes(parse_field("1/(x1 + x2)"), [A, B]))
    assert np.linalg.norm(A @ X + X @ B - np.eye(3)) < 1e-8


def test_arity_matrix_count_mismatch():
    with pytest.raises(ValueError):
        f_otimes(parse_field("x1 + x2"), [np.eye(2)])


# ---------------------------------------------------------------------------
# all slots in one spectral pass


def _warning_but_valid():
    # a conjugated J3(0.5) splits into three simple eigenvalues, each rank
    # decision within 10x of its threshold: three warnings, no error
    S = np.random.default_rng(28).normal(size=(3, 3))
    return S @ jordan_matrix([(0.5, 3)]) @ np.linalg.inv(S)


def _split_j4():
    M = jordan_matrix([(1.0, 4), (2.5, 1)])
    M[3, 0] = 1e-14
    return M


def _recorded(fn):
    """(result or SpectralError text, warnings in order) of ``fn()``."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            got = fn()
        except SpectralError as exc:
            got = f"SpectralError: {exc}"
    return got, rec


def test_one_pass_equals_slot_by_slot_spectra():
    local = np.random.default_rng(40)
    jordan = jordan_matrix([(0.3, 2), (-1.0, 1)])
    mats = [local.normal(size=(2, 2)), jordan, local.normal(size=(3, 3))]
    f = parse_field("exp(x1 + 2*x2) / (x3 + 9)")
    T = f_otimes(f, mats)
    want = f_otimes(f, mats, spectra=[analyze(M) for M in mats])
    assert T.data.tobytes() == want.data.tobytes()


def test_one_pass_warns_and_fails_slot_by_slot():
    ahead, split = _warning_but_valid(), _split_j4()
    # slot 2 warns too, but comes after the slot whose analysis fails
    mats = [ahead, split, ahead]
    got, rec = _recorded(lambda: f_otimes(parse_field("x1 + x2 + x3"), mats))
    _, want_ahead = _recorded(lambda: analyze(ahead))
    err, want_split = _recorded(lambda: analyze(split))
    assert len(want_ahead) == 3 and want_split and err.startswith("SpectralError")
    assert got == err
    assert [str(w.message) for w in rec] == [str(w.message) for w in want_ahead + want_split]


def test_curve_derivative_shares_one_basis_across_equal_slots():
    f = parse_field("1/(x1 + 6)")
    local = np.random.default_rng(41)
    A = local.normal(size=(4, 4)) / 2
    H = local.normal(size=(4, 4))
    got = nth_derivative_curve(f, A, H, 3)
    nodes = [analyze(A).grid_entries()] * 4
    g = divided_difference_field(f, 3)
    poly = interpolate(derivative_grid(g, nodes), [hermite_basis(n) for n in nodes])
    want = math.factorial(3) * _chain_fold(poly, A, H)
    assert got.tobytes() == want.tobytes()


def test_fragility_warning_names_the_caller():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        f_otimes(parse_field("exp(x1)"), [_warning_but_valid()])
    assert rec
    assert {Path(w.filename).resolve() for w in rec} == {Path(__file__).resolve()}
