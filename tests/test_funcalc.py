"""The tensor extension itself, its oracles and its routes."""

import functools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import matfn.scalarfield as sf
from matfn import (
    FieldDomainError,
    NotDiagonalizableError,
    SpectralError,
    SpectralData,
    analyze,
    apply_vectors,
    chain_contract,
    contract_adjacent_through,
    divided_difference_field,
    eigenvalue_derivative,
    f_otimes,
    f_otimes_diagonalizable,
    frechet_derivative,
    jordan_closed_form,
    jordan_matrix,
    matrix_function,
    minimal_polynomial,
    nth_derivative_curve,
    parse_field,
    projector_derivative,
    trace_derivative,
)
from matfn.funcalc import PAD_CAP, _padded_nodes

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
    # slot 2 warns too, but comes after the slot whose ladder fails
    mats = [ahead, split, ahead]
    f = parse_field("x1 + x2 + x3")
    got, rec = _recorded(lambda: f_otimes_diagonalizable(f, mats))
    _, want_ahead = _recorded(lambda: analyze(ahead).min_mult)
    err, want_split = _recorded(lambda: analyze(split).min_mult)
    assert len(want_ahead) == 3 and want_split and err.startswith("SpectralError")
    assert got == err
    assert [str(w.message) for w in rec] == [str(w.message) for w in want_ahead + want_split]
    # the interpolation route runs no ladder: no warning, and a result
    T, rec = _recorded(lambda: f_otimes(f, mats))
    assert rec == [] and T.slot_dims == (3, 5, 3)


def test_curve_derivative_shares_one_basis_across_equal_slots():
    f = parse_field("1/(x1 + 6)")
    local = np.random.default_rng(41)
    A = local.normal(size=(4, 4)) / 2
    H = local.normal(size=(4, 4))
    got = nth_derivative_curve(f, A, H, 3)
    T = f_otimes(divided_difference_field(f, 3), [A] * 4, spectra=[analyze(A)] * 4)
    for slot in (2, 1, 0):
        T = contract_adjacent_through(T, slot, H)
    want = math.factorial(3) * T.data
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_fragility_warning_names_the_caller():
    M = _warning_but_valid()
    for read in (lambda: analyze(M).min_mult, lambda: minimal_polynomial(analyze(M)),
                 lambda: f_otimes_diagonalizable(parse_field("exp(x1)"), [M])):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            read()
        assert len(rec) == 3
        assert {Path(w.filename).resolve() for w in rec} == {Path(__file__).resolve()}


# The accuracy defects of the ROADMAP Baseline, against in-repo oracles:
# the exact eigenbasis and the Jordan closed form. The monomial basis
# missed the first two groups by up to 1.1 and 3.9e-9, silently.
_BASELINE_NORMAL = [(8, "1/x1", 1), (14, "1/x1", 1), (14, "log(x1)", 20), (16, "exp(x1)", 1),
                    (12, "1/x1", 10)]
_SCALAR = {"1/x1": lambda x: 1 / x, "log(x1)": np.log, "exp(x1)": np.exp}


def _relative(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _assert_padding_keeps(f, M, got):
    # more nodes, the same tensor
    padded = np.asarray(f_otimes(f, [M], extra_multiplicity=1).data)
    assert _relative(padded, got) <= 1e-13


@pytest.mark.parametrize("d, text, s", _BASELINE_NORMAL)
def test_baseline_normal_inputs_are_accurate(d, text, s):
    # Q diag(lam) Q^H, Q from the QR of a complex Gaussian, a spread spectrum
    r = np.random.default_rng(0)
    Q, _ = np.linalg.qr(r.standard_normal((d, d)) + 1j * r.standard_normal((d, d)))
    lam = s * (np.linspace(1.5, 2.5, d) + 0.25j * np.arange(d) / d)
    f, M = parse_field(text), Q @ np.diag(lam) @ Q.conj().T
    got = matrix_function(f, M)
    assert _relative(got, Q @ np.diag(_SCALAR[text](lam)) @ Q.conj().T) <= 1e-12
    _assert_padding_keeps(f, M, got)


def test_baseline_non_normal_exp_is_accurate():
    # S diag(linspace(1, 3, 10)) S^-1, S the first draw with condition in (15, 25)
    r = np.random.default_rng(5)
    S = r.standard_normal((10, 10))
    while not 15 < np.linalg.cond(S) < 25:
        S = r.standard_normal((10, 10))
    lam = np.linspace(1, 3, 10)
    f, M = parse_field("exp(x1)"), S @ np.diag(lam) @ np.linalg.inv(S)
    got = matrix_function(f, M)
    assert _relative(got, S @ np.diag(np.exp(lam)) @ np.linalg.inv(S)) <= 1e-12
    _assert_padding_keeps(f, M, got)


@pytest.mark.parametrize("blocks", [[(1.5, 8), (3.0 + 0.5j, 2)],
                                    [(0.7 + 0.2j, 8), (2.0, 1), (2.6, 1)]])
def test_jordan8_log_matches_the_closed_form(blocks):
    f, J = parse_field("log(x1)"), jordan_matrix(blocks)
    got = matrix_function(f, J)
    assert _relative(got, np.asarray(jordan_closed_form(f, [J], [blocks]).data)) <= 1e-13
    _assert_padding_keeps(f, J, got)


def test_each_distinct_matrix_is_validated_once(monkeypatch):
    import matfn.spectral as spectral

    A = rng.normal(size=(3, 3))
    field = divided_difference_field(parse_field("1/(x1 + 6)"), 3)
    spectra = [analyze(A)] * 4
    names = []

    def counting(M, name="matrix"):
        names.append(name)
        return as_square_matrix(M, name)

    as_square_matrix = spectral.as_square_matrix
    monkeypatch.setattr(spectral, "as_square_matrix", counting)
    f_otimes(field, [A] * 4, spectra=spectra)
    # once in f_otimes, once in poly_tensor_eval, for four slots
    assert names == ["slot 0 matrix", "slot 0 matrix"]
    # the messages name the first slot that holds the bad matrix
    bad = np.ones((2, 3))
    with pytest.raises(ValueError, match=r"^slot 1 matrix must be square, got shape \(2, 3\)$"):
        f_otimes(parse_field("x1 + x2 + x3"), [A, bad, bad])
    with pytest.raises(ValueError, match=r"^slot 2 matrix contains non-finite entries$"):
        f_otimes(parse_field("x1 + x2 + x3"), [A, A, np.full((3, 3), np.nan)])


# Split defective eigenvalues of the ROADMAP Baseline, against in-repo oracles. Each
# bound is 100 N kappa eps: the forward error of an oracle built from an inverse
# of an N x N matrix of condition kappa, with room for the products around it.
_EPS = np.finfo(float).eps


def _oracle_bound(N, kappa):
    return 100 * N * kappa * _EPS


def test_near_defective_j4_matches_its_series():
    # J4(1) + [2.5] with 1e-14 at [3, 0]: X = M_block - I has X^4 = 1e-14 I, so
    # f(M_block) = sum_r X^r sum_q f^(4q+r)(1)/(4q+r)! 1e-14^q, exact after q = 2
    M, f = _split_j4(), parse_field("exp(x1)")
    X = M[:4, :4] - np.eye(4)
    want = np.zeros((5, 5), dtype=complex)
    for r in range(4):
        c = sum(1e-14**q / math.factorial(4 * q + r) for q in range(3))
        want[:4, :4] += np.e * c * np.linalg.matrix_power(X, r)
    want[4, 4] = np.exp(2.5)
    got = matrix_function(f, M)
    assert _relative(got, want) <= _oracle_bound(5, 1.0)
    _assert_padding_keeps(f, M, got)


@pytest.mark.parametrize("seed, lam, size", [(28, 0.5, 3), (5, 1.0, 5), (8, 1.0, 8)])
def test_conjugated_jordan_exp_matches_the_closed_form(seed, lam, size):
    # rounding splits the block by about eps^(1/size) ||M||, and the rank ladder
    # would refuse it or warn; the grid takes the split eigenvalues as one block
    S = np.random.default_rng(seed).normal(size=(size, size))
    J, f = jordan_matrix([(lam, size)]), parse_field("exp(x1)")
    M = S @ J @ np.linalg.inv(S)
    want = S @ np.asarray(jordan_closed_form(f, [J], [[(lam, size)]]).data) @ np.linalg.inv(S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = matrix_function(f, M)
    assert _relative(got, want) <= _oracle_bound(size, np.linalg.cond(S))
    _assert_padding_keeps(f, M, got)


@pytest.mark.parametrize("seed", range(100, 108))
def test_split_block_in_three_slots_matches_the_resolvent(seed):
    # S (J2(1) + [2]) S^-1 in three slots of 1/(x1 + x2 + x3 + 2): the Kronecker
    # sum's resolvent. Rounding splits the double eigenvalue by about 1e-8, and
    # a grid of two simple nodes there is off by up to 1e8, silently
    S = np.random.default_rng(seed).normal(size=(3, 3))
    M = S @ jordan_matrix([(1.0, 2), (2.0, 1)]) @ np.linalg.inv(S)
    eye = np.eye(3)
    K = sum(functools.reduce(np.kron, [M if i == l else eye for i in range(3)]) for l in range(3))
    K = K + 2 * np.eye(27)
    got = f_otimes(parse_field("1/(x1 + x2 + x3 + 2)"), [M] * 3).as_matrix()
    assert _relative(got, np.linalg.inv(K)) <= _oracle_bound(27, np.linalg.cond(K))


def _block_bidiagonal(d, n):
    """A = I + G/d on the diagonal of n + 1 blocks and H above it, G and H Gaussian."""
    A = np.eye(d) + np.random.default_rng(3).standard_normal((d, d)) / d
    H = np.random.default_rng(4).standard_normal((d, d))
    return np.kron(np.eye(n + 1), A) + np.kron(np.eye(n + 1, k=1), H)


_ROADMAP_ITEM_1 = pytest.mark.xfail(
    strict=True, reason="FOUND: 1.8e-11 to 1.1e-8 off; high-order nodes wait on ROADMAP item 1"
)


@pytest.mark.parametrize("d, n", [(4, 2), pytest.param(6, 3, marks=_ROADMAP_ITEM_1),
                                  pytest.param(8, 3, marks=_ROADMAP_ITEM_1),
                                  pytest.param(8, 4, marks=_ROADMAP_ITEM_1)])
def test_block_bidiagonal_resolvent(d, n):
    # every eigenvalue of A is one of B's n + 1 times, split by rounding
    B = _block_bidiagonal(d, n)
    R = B + 6 * np.eye(len(B))
    got = matrix_function(parse_field("1/(x1 + 6)"), B)
    assert _relative(got, np.linalg.inv(R)) <= _oracle_bound(len(B), np.linalg.cond(R))


# ---------------------------------------------------------------------------
# the Taylor pad of a block


def test_pad_takes_the_first_negligible_taylor_tail():
    # exp at a block of radius 0.1 around 0: the smallest o >= 1 with 0.1^j / j! <= eps
    # for every j >= o, eps times the largest matched Taylor coefficient, exp(0) = 1
    f = parse_field("exp(x1)")
    want = next(o for o in range(1, 40) if 0.1**o / math.factorial(o) <= _EPS)
    nodes = _padded_nodes(f, [[(0j, 1, 0.1)]], 0)
    assert want == 10 and nodes == [[(0j, want)]]
    # extra_multiplicity raises the order the test starts from, never lowers it
    assert _padded_nodes(f, [[(0j, 1, 0.1)]], 3) == [[(0j, want)]]
    assert _padded_nodes(f, [[(0j, 1, 0.1)]], 12) == [[(0j, 13)]]
    # radius 0: the block's size, with no test
    assert _padded_nodes(f, [[(0j, 3, 0.0), (1j, 1, 0.0)]], 0) == [[(0j, 3), (1j, 1)]]


def test_pad_takes_the_largest_value_over_the_other_slots():
    # d^j/dx1^j exp(x1 x2) = x2^j exp(x1 x2): at the other slot's nodes 0 and 10 it is
    # largest at 10, as for exp(10 x1); at node 0 alone every term past j = 0 vanishes
    two = parse_field("exp(x1*x2)")
    at_ten = _padded_nodes(parse_field("exp(10*x1)"), [[(0j, 1, 0.01)]], 0)[0]
    got = _padded_nodes(two, [[(0j, 1, 0.01)], [(0j, 1, 0.0), (10 + 0j, 1, 0.0)]], 0)
    assert got[0] == at_ten and at_ten[0][1] > 5
    assert _padded_nodes(two, [[(0j, 1, 0.01)], [(0j, 1, 0.0)]], 0)[0] == [(0j, 1)]


_SIN = parse_field("(exp(1i*x1) - exp(-1i*x1)) / 2i")


@pytest.mark.parametrize("f, fn, diag", [
    (_SIN, np.sin, [np.pi - 1e-3, np.pi + 1e-3]),
    (_SIN, np.sin, [-1e-3, 1e-3, 5.0]),
    (parse_field("x1^3 + x1"), lambda x: x**3 + x, [-1e-3, 1e-3, 5.0]),
], ids=["sin-at-pi", "sin-at-0", "cubic-at-0"])
def test_a_vanishing_taylor_coefficient_does_not_settle_the_pad(f, fn, diag):
    # each pair is one block of size 2 and radius 1e-3 at pi or 0, where the order-2
    # Taylor term of f vanishes but the order-3 term, about 1e-9 / 6 or 1e-9, does not:
    # a pad settled by the first small term would be off by that, 5e-8 relative or more
    [block] = [b for b in analyze(np.diag(diag)).blocks if b[1] == 2]
    assert block[2] > 0
    want = np.diag(fn(np.array(diag)))
    got = matrix_function(f, np.diag(diag))
    assert _relative(got, want) <= _oracle_bound(len(diag), 1.0)
    # the tail past the chosen order is negligible, so a longer pad moves nothing
    longer = f_otimes(f, [np.diag(diag)], extra_multiplicity=2).as_matrix()
    assert _relative(longer, want) <= _oracle_bound(len(diag), 1.0)


def test_an_evaluation_only_field_needs_simple_nodes():
    # the grid gives a repeated eigenvalue its cluster's size, with no rank ladder, so a
    # field without derivatives is refused there even when the matrix is diagonalizable;
    # the eigenbasis route and spectra with explicit minimal multiplicities still serve it
    f = sf.absval(parse_field("x1 - 2"))
    M = np.diag([1.0, 1.0, 4.0])
    with pytest.raises(FieldDomainError, match="not defined on the spectral grid"):
        f_otimes(f, [M])
    want = np.diag([1.0, 1.0, 2.0])
    assert np.array_equal(matrix_function(f, M, route="diag"), want)
    explicit = SpectralData((1 + 0j, 4 + 0j), (2, 1), (1, 1), 3)
    assert np.allclose(f_otimes(f, [M], spectra=[explicit]).as_matrix(), want, atol=1e-15)


def test_no_pad_up_to_the_cap_is_a_spectral_error():
    # two eigenvalues 1.7e-3 apart are one block of radius 8.5e-4 whose centre is
    # 1.7e-3 from the pole: the Taylor terms fall by 1/2 per order, too slowly
    M = np.diag([1 - 8.5e-4, 1 + 8.5e-4])
    f = parse_field("1/(x1 - 1.0017)")
    with pytest.raises(SpectralError, match=f"no Taylor pad up to {PAD_CAP}"):
        f_otimes(f, [M])
    assert np.allclose(matrix_function(f, M, route="diag"), np.diag(1 / (np.diag(M) - 1.0017)))


def test_the_compute_path_runs_no_svd(monkeypatch):
    # no rank ladder: every SVD is gone from the tensor extension and the calculus
    local = np.random.default_rng(50)
    Q, _ = np.linalg.qr(local.normal(size=(4, 4)) + 1j * local.normal(size=(4, 4)))
    normal = Q @ np.diag([0.5, 1.0 + 0.5j, -0.7, 2.0]) @ Q.conj().T
    S = local.normal(size=(4, 4))
    jordans = [jordan_matrix([(0.5, 3), (2.0, 1)]),
               S @ jordan_matrix([(0.5, 3), (2.0, 1)]) @ np.linalg.inv(S)]
    H = local.normal(size=(4, 4))
    f, g = parse_field("exp(x1)"), parse_field("1/(x1 + x2 + 6)")
    want = {}
    for M in [normal] + jordans:
        want[id(M)] = (f_otimes(f, [M]).data, frechet_derivative(g, [M, M], 1, H).data)

    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", svd)
    for M in [normal] + jordans:
        assert np.array_equal(f_otimes(f, [M]).data, want[id(M)][0])
        assert np.array_equal(frechet_derivative(g, [M, M], 1, H).data, want[id(M)][1])
        nth_derivative_curve(f, M, H, 2)
        trace_derivative(f, M, H, 3)
    for which in range(4):
        projector_derivative(normal, H, which, 2)
        eigenvalue_derivative(normal, H, which, 2)
    with pytest.raises(AssertionError, match="svd"):
        analyze(normal).min_mult
