"""Clustered spectra and minimal-polynomial multiplicities."""

import warnings

import numpy as np
import pytest

from matfn import (
    SpectralData,
    SpectralError,
    analyze,
    eigenvalue_derivative,
    hs_norm,
    matrix_function,
    minimal_polynomial,
    parse_field,
)
from matfn.funcalc import jordan_matrix
from matfn.spectral import BLOCK_TOL, _analyze_all, _clusters, _rank_ladder, merge_clusters


def companion(coeffs):
    """Companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0."""
    n = len(coeffs)
    C = np.zeros((n, n))
    C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = [-c for c in coeffs]
    return C


def test_cluster_merges_defective_double_root():
    # (x-1)^2 (x-3) = x^3 - 5x^2 + 7x - 3; the QR eigenvalues of its
    # companion matrix split the double root by a few 1e-8, which the
    # scale-relative threshold absorbs
    C = companion([-3.0, 7.0, -5.0])
    data = analyze(C)
    assert len(data.eigenvalues) == 2
    assert data.eigenvalues[0] == pytest.approx(1.0, abs=1e-7)
    assert data.eigenvalues[1] == pytest.approx(3.0, abs=1e-7)
    assert data.alg_mult == (2, 1)


def test_minimal_multiplicities_companion():
    C = companion([-3.0, 7.0, -5.0])
    data = analyze(C)
    assert data.alg_mult == (2, 1)
    assert data.min_mult == (2, 1)  # companion matrices are nonderogatory
    assert not data.is_diagonalizable


def test_minimal_vs_algebraic_on_block_diagonal():
    M = np.zeros((3, 3))
    M[0, 0] = M[1, 1] = M[2, 2] = 1.0
    M[0, 1] = 1.0
    data = analyze(M)
    assert data.eigenvalues == (1.0 + 0j,)
    assert data.alg_mult == (3,)
    assert data.min_mult == (2,)


def test_identity_is_diagonalizable():
    data = analyze(np.eye(4))
    assert data.alg_mult == (4,)
    assert data.min_mult == (1,)
    assert data.is_diagonalizable


def test_analyze_sorts_by_real_then_imag():
    M = np.diag([2.0, -1.0, 2.0, 0.5])
    data = analyze(M)
    assert data.eigenvalues == (-1.0 + 0j, 0.5 + 0j, 2.0 + 0j)
    assert data.alg_mult == (1, 1, 2)
    assert data.blocks == ((-1.0 + 0j, 1, 0.0), (0.5 + 0j, 1, 0.0), (2.0 + 0j, 2, 0.0))
    assert data.min_mult == (1, 1, 1)


def test_conjugated_jordan_needs_looser_clustering():
    rng = np.random.default_rng(11)
    J = jordan_matrix([(1.0, 3)])
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    M = Q @ J @ Q.T
    # a triple defective eigenvalue splits by roughly the cube root of
    # machine precision under similarity; 1e-4 relative recovers it
    data = analyze(M, cluster_tol=1e-4)
    assert data.eigenvalues[0] == pytest.approx(1.0, abs=1e-6)
    assert data.alg_mult == (3,)
    assert data.min_mult == (3,)


def test_merged_cluster_is_one_eigenvalue():
    # 1e-9 apart is inside the cluster threshold 1e-8 * ||M||; the rank
    # ladder admits the cluster's own spread, so the centroid is an
    # eigenvalue of multiplicity one, decided without a fragility warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = analyze(np.diag([0.6, 0.6 + 1e-9, 2.0]))
    assert data.alg_mult == (2, 1)
    assert data.min_mult == (1, 1)
    assert data.eigenvalues[0] == pytest.approx(0.6, abs=1e-9)


def test_split_defective_eigenvalue_is_a_spectral_error():
    # 1e-14 in the corner of J4(1) splits it into four eigenvalues about
    # 3e-4 apart; each stays its own cluster, and its rank ladder, run when
    # min_mult is first read, reads 2. analyze alone warns and raises nothing.
    M = jordan_matrix([(1.0, 4), (2.5, 1)])
    M[3, 0] = 1e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = analyze(M)
    assert data.alg_mult == (1, 1, 1, 1, 1)
    for read in (lambda: data.min_mult, lambda: minimal_polynomial(data)):
        with pytest.warns(RuntimeWarning, match="within 10x"):
            with pytest.raises(SpectralError, match="holds 1 eigenvalue.*multiplicity 2"):
                read()
    # the tensor extension's grid sees one block of four instead
    [(c, size, radius), (c2, size2, radius2)] = data.blocks
    assert (size, size2, radius2, c2) == (4, 1, 0.0, 2.5)
    assert abs(c - 1) < 1e-15 and 3e-4 < radius < 3.3e-4


def test_nearby_simple_eigenvalues_stay_eigenvalues():
    # sigma_max(M - I) is only 1e-7, so a threshold relative to it alone
    # falls below the rounding residual of the computed eigenvalue and the
    # shift read as full rank; the eps ||M|| floor keeps it singular
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
    lams = np.array([1.0, 1.0 + 1e-7])
    M = Q @ np.diag(lams) @ Q.T
    data = analyze(M)
    assert data.alg_mult == (1, 1) and data.min_mult == (1, 1)
    assert np.allclose(data.eigenvalues, lams, rtol=0, atol=1e-14)
    # the grid takes both as one block of two at their mean, padded: a
    # difference quotient across the gap would lose eps/gap, about 2e-9
    [(c, size, radius)] = data.blocks
    assert size == 2 and abs(c - 1 - 5e-8) < 1e-15 and abs(radius - 5e-8) < 1e-15
    F = matrix_function(parse_field("exp(x1)"), M)
    want = Q @ np.diag(np.exp(lams)) @ Q.T
    assert np.linalg.norm(F - want) <= 1e-15 * np.linalg.norm(want)


def test_minimal_multiplicities_rejects_non_eigenvalue():
    # the rank ladder's guard: a centroid where M - c I has full rank
    A = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(SpectralError, match="not an eigenvalue"):
        _rank_ladder(A, [(5.0, 0.0)])


def test_eigen_cluster_swap_matrix():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    data = analyze(M)
    assert data.alg_mult == (1, 1)
    assert data.eigenvalues[0] == pytest.approx(-1.0)
    assert data.eigenvalues[1] == pytest.approx(1.0)


def test_spectral_data_invariants():
    with pytest.raises(ValueError):
        SpectralData(
            eigenvalues=(1.0 + 0j,), alg_mult=(1,), min_mult=(2,), dim=1
        )
    with pytest.raises(ValueError):
        SpectralData(
            eigenvalues=(1.0 + 0j, 2.0 + 0j),
            alg_mult=(1, 1),
            min_mult=(1, 1),
            dim=3,
        )


def test_minimal_polynomial_coefficients():
    M = np.zeros((3, 3))
    M[0, 0] = M[1, 1] = 1.0
    M[0, 1] = 1.0
    M[2, 2] = 3.0
    mu = minimal_polynomial(analyze(M))
    # (x-1)^2 (x-3) = x^3 - 5x^2 + 7x - 3
    assert mu.coeffs[(3,)] == pytest.approx(1.0)
    assert mu.coeffs[(2,)] == pytest.approx(-5.0)
    assert mu.coeffs[(1,)] == pytest.approx(7.0)
    assert mu.coeffs[(0,)] == pytest.approx(-3.0)
    # and it annihilates the matrix
    P = mu.coeffs[(3,)] * np.linalg.matrix_power(M, 3)
    P += mu.coeffs[(2,)] * np.linalg.matrix_power(M, 2)
    P += mu.coeffs[(1,)] * M + mu.coeffs[(0,)] * np.eye(3)
    assert np.linalg.norm(P) < 1e-12


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        analyze(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# the batched pass against the per-cluster ladder


def _reference_analyze(M, cluster_tol=1e-8, rank_tol=1e-10):
    """``analyze`` with one eigvals call per matrix and one svd call per power.

    The sequential ladder that :func:`matfn.spectral._analyze_all` replays:
    clusters in (real, imag) order, powers (A - c I)^j computed and
    decided one at a time until the rank stabilizes.
    """
    A = np.asarray(M, dtype=complex)
    d = A.shape[0]
    w = np.linalg.eigvals(A)
    norm = float(np.linalg.norm(A))
    rows = []
    for g in merge_clusters(w, cluster_tol * norm):
        c = complex(sum(w[i] for i in g) / len(g))
        rows.append((c, len(g), max(abs(w[i] - c) for i in g)))
    rows.sort(key=lambda p: (p[0].real, p[0].imag))
    residual = 100 * np.finfo(float).eps * norm
    mins = []
    for lam, _, radius in rows:
        B = A - lam * np.eye(d)
        s = np.linalg.svd(B, compute_uv=False)
        sigma1 = float(s[0])
        if sigma1 == 0.0:
            mins.append(1)
            continue

        def rank_of(s, j):
            thr = max(rank_tol * sigma1**j, residual * sigma1 ** (j - 1), (100 * radius) ** j)
            if np.any((s > thr / 10) & (s < thr * 10)):
                warnings.warn(
                    f"rank decision for eigenvalue {lam} at power {j} is within "
                    f"10x of the threshold {thr:.3e}",
                    RuntimeWarning,
                )
            return int(np.count_nonzero(s > thr))

        prev = rank_of(s, 1)
        if prev == d:
            raise SpectralError(f"{lam} is not an eigenvalue of the matrix (full-rank shift)")
        P, r = B, d
        for j in range(1, d + 1):
            P = P @ B
            cur = rank_of(np.linalg.svd(P, compute_uv=False), j + 1)
            if cur == prev:
                r = j
                break
            prev = cur
        mins.append(r)
    for (lam, s, _), r in zip(rows, mins):
        if r > s:
            raise SpectralError(
                f"cluster at {lam:.6g} holds {s} eigenvalue(s) but its rank ladder "
                f"gives minimal multiplicity {r}; a defective eigenvalue was split"
            )
    return SpectralData(
        tuple(c for c, _, _ in rows), tuple(n for _, n, _ in rows), tuple(mins), d
    )


def _ladder_corpus():
    rng = np.random.default_rng(90)
    out = []
    for d in range(1, 9):
        for _ in range(3):
            out.append(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    for size in range(2, 6):
        for _ in range(3):
            S = rng.normal(size=(size, size))
            out.append(S @ jordan_matrix([(complex(rng.normal()), size)]) @ np.linalg.inv(S))
    split = jordan_matrix([(1.0, 4), (2.5, 1)])
    split[3, 0] = 1e-14
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
    out += [
        split,
        np.diag([0.6, 0.6 + 1e-9, 2.0]),
        Q @ np.diag([1.0, 1.0 + 1e-7]) @ Q.T,
        np.zeros((3, 3)),
        2.0 * np.eye(3),
        np.zeros((0, 0)),
        companion([-3.0, 7.0, -5.0]),
    ]
    return out


def _outcome(fn, *args):
    """(result or error text, warning messages in order) of ``fn(*args)``."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            got = fn(*args)
        except SpectralError as exc:
            got = f"SpectralError: {exc}"
    return got, [str(w.message) for w in rec]


def _decided(data):
    """``data`` after reading ``min_mult``: the rank ladder's decisions, warnings and errors."""
    data.min_mult
    return data


def test_analyze_decides_as_the_per_cluster_ladder():
    corpus = _ladder_corpus()
    kinds = set()
    for M in corpus:
        want, want_warned = _outcome(_reference_analyze, M)
        # analyze clusters only; reading min_mult runs the ladder, once
        data, quiet = _outcome(analyze, M)
        assert quiet == [] and data._min_mult is None
        got, warned = _outcome(_decided, data)
        assert got == want
        assert warned == want_warned
        if not isinstance(want, str):
            assert _outcome(_decided, data) == (want, [])
        kinds.add((isinstance(want, str), bool(want_warned)))
    # the corpus reaches a split error, warnings, and quiet success
    assert {(True, True), (False, False)} <= kinds
    assert _outcome(analyze, np.zeros((0, 0)))[0] == SpectralData((), (), (), 0)


def test_batched_pass_matches_one_matrix_at_a_time():
    # all valid corpus matrices in one pass: equal sizes share their eigvals call,
    # and each ladder runs, in slot order, when its min_mult is read
    valid = [np.asarray(M, dtype=complex) for M in _ladder_corpus()
             if not isinstance(_outcome(_reference_analyze, M)[0], str)]
    want, want_warned = zip(*(_outcome(_reference_analyze, M) for M in valid))
    got, warned = _outcome(lambda: [_decided(d) for d in _analyze_all(valid)])
    assert got == list(want)
    assert warned == [m for ms in want_warned for m in ms]
    assert [d.radii for d in _analyze_all(valid)] == [analyze(M).radii for M in valid]


def test_failed_stacked_call_falls_back_to_one_matrix_at_a_time(monkeypatch):
    mats = [np.asarray(M, dtype=complex) for M in _ladder_corpus()[:30]]
    want = _outcome(lambda: [_decided(d) for d in _analyze_all(mats)])

    def stack_fails(fn):
        def call(a, *args, **kwargs):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("stacked call failed")
            return fn(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigvals", stack_fails(np.linalg.eigvals))
    assert _outcome(lambda: [_decided(d) for d in _analyze_all(mats)]) == want

    def never_converges(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", never_converges)
    with pytest.raises(SpectralError, match="eigenvalue iteration failed"):
        analyze(np.eye(2))


# ---------------------------------------------------------------------------
# clusters and the blocks of the tensor extension's grid


def test_equal_eigenvalues_cluster_at_the_value_itself():
    # m copies of z average to (m z)/m, which can be an ulp off z
    zs = np.random.default_rng(7).normal(size=(200, 2)) @ [1, 1j]
    offs = 0
    for m in range(1, 9):
        for z in zs:
            [(c, count, radius)] = _clusters(np.full(m, z), 1e-8)
            assert (complex(c).real, complex(c).imag, count, radius) == (z.real, z.imag, m, 0.0)
            offs += complex(sum([z] * m) / m) != z
    assert offs > 0  # the mean is off somewhere
    # an exact Jordan block: one cluster and one block, at its eigenvalue, of radius 0
    for m in range(1, 9):
        data = analyze(jordan_matrix([(0.1 + 0.7j, m), (2.0, 1)]))
        assert data.eigenvalues == (0.1 + 0.7j, 2.0 + 0j) and data.radii == (0.0, 0.0)
        assert data.blocks == ((0.1 + 0.7j, m, 0.0), (2.0 + 0j, 1, 0.0))


def test_blocks_of_explicit_data_keep_their_orders():
    data = SpectralData((1.0 + 0j, 1.0 + 1e-6j), (2, 1), (1, 1), 3)
    assert data.blocks == ((1.0 + 0j, 1, 0.0), (1.0 + 1e-6j, 1, 0.0))


def test_block_scale_is_the_spectral_radius_not_the_norm():
    # ||M||_F is about 4e3 but the eigenvalues are 1 apart: a block threshold
    # of 5e-3 ||M||_F would merge them all; 5e-3 * 10 max(1, rho) does not
    M = np.diag([0.0, 1.0, 2.0, 3.0])
    M[0, 3] = 4e3
    assert np.linalg.norm(M) > 3.9e3
    data = analyze(M)
    assert [size for _, size, _ in data.blocks] == [1, 1, 1, 1]
    # eigenvalues 1e-2 apart at scale ||M||_F = 10 are within 5e-3 * 10: one block
    close = analyze(np.diag([0.0, 1e-2, 6.0, 8.0]))
    assert [size for _, size, _ in close.blocks] == [2, 1, 1]
    assert close.blocks[0] == (5e-3 + 0j, 2, 5e-3)


def _eager_blocks(M):
    """The blocks as the clusters of M's computed eigenvalues at BLOCK_TOL times its scale."""
    w = np.linalg.eigvals(np.asarray(M, dtype=complex)).tolist()
    scale = min(np.linalg.norm(M), 10 * max(1.0, max(map(abs, w), default=0.0)))
    return tuple(_clusters(w, BLOCK_TOL * scale))


def _block_cases():
    split = jordan_matrix([(1.0, 4), (2.5, 1)])
    split[3, 0] = 1e-14
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
    far = np.diag([0.0, 1.0, 2.0, 3.0])
    far[0, 3] = 4e3
    S = np.random.default_rng(5).normal(size=(5, 5))
    return [
        np.diag([2.0, -1.0, 2.0, 0.5]),
        split,
        Q @ np.diag([1.0, 1.0 + 1e-7]) @ Q.T,
        far,
        np.diag([0.0, 1e-2, 6.0, 8.0]),
        S @ jordan_matrix([(1.0, 5)]) @ np.linalg.inv(S),
    ] + [jordan_matrix([(0.1 + 0.7j, m), (2.0, 1)]) for m in range(1, 9)]


def test_blocks_are_built_on_first_read(monkeypatch):
    # an analysis read only for min_mult merges its eigenvalues once, into
    # clusters; the blocks' merge runs when they are first read, and only then
    import matfn.spectral as spectral

    calls = []

    def counting(values, threshold):
        calls.append(threshold)
        return merge_clusters(values, threshold)

    monkeypatch.setattr(spectral, "merge_clusters", counting)
    data = analyze(np.diag([2.0, -1.0, 2.0, 0.5]))
    assert data.min_mult == (1, 1, 1)
    assert len(calls) == 1
    blocks = data.blocks
    assert len(calls) == 2 and data.blocks is blocks and len(calls) == 2
    # bit for bit the clusters of the computed eigenvalues at the block
    # threshold: repr round-trips every float, -0.0 included
    for M in _block_cases():
        data = analyze(M)
        assert repr(data.blocks) == repr(_eager_blocks(M))


def test_merged_block_radius_is_its_eigenvalues_spread():
    # two clusters 4e-3 apart merge into one block of five; its radius is the
    # distance of the farthest eigenvalue from the block's centre, not a bound
    M = np.diag([1, 1, 1, 1.004, 1.004 + 1e-9j])
    data = analyze(M)
    assert data.alg_mult == (3, 2)
    [(c, size, radius)] = data.blocks
    spread = max(abs(w - c) for w in np.linalg.eigvals(M))
    assert size == 5 and radius == pytest.approx(spread, rel=1e-15, abs=0)


def test_huge_and_tiny_entries_keep_their_spectrum():
    # the sum of squares overflows at 1e160 and underflows at 1e-170; the norm
    # scales by a power of two first, and the rank ladder where its powers would
    for c in (1e160, 1e-170):
        M = c * np.diag([1.0, 2.0])
        assert hs_norm(M) == pytest.approx(c * 5**0.5, rel=1e-15)
        data = analyze(M)
        assert (data.alg_mult, data.min_mult) == ((1, 1), (1, 1))
        assert np.array_equal(matrix_function(parse_field("x1"), M, route="diag"), M)
        assert analyze(c * jordan_matrix([(1.0, 2)])).min_mult == (2,)
    # the gap of 1e160 was within 10x of a clustering threshold of inf
    H = np.array([[3.0, 1.0], [1.0, 0.0]])
    assert eigenvalue_derivative(np.diag([1e160, 2e160]), H, 0, 1) == 3.0
