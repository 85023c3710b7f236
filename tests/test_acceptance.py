"""Acceptance battery: thirteen numbered criteria, one test and one line each.

Every test prints a single summary line (visible under ``pytest -s`` and in
failure reports) stating the worst residual observed against the criterion's
bound, then asserts it. Corpus-style criteria lean on the verify suites;
oracle-style ones build their corpora inline so the comparison stays
independent of the code under test.
"""

import itertools
import math
import shutil
import subprocess
import sys
import time

import numpy as np

from matfn import (
    absval,
    analyze,
    chain_contract,
    commuting_swap_check,
    contract_equal_slots_theorem,
    contract_trace_theorem,
    det_from_traces,
    distinct_tuple_sum,
    eigenvalue_derivative,
    f_otimes,
    f_otimes_diagonalizable,
    frechet_derivative,
    jordan_closed_form,
    jordan_matrix,
    matrix_function,
    nth_derivative_curve,
    parse_field,
    projector_derivative,
    variable,
)
from matfn.calculus import divided_difference_field, doubled_node_difference_field
from matfn.verify import (
    _contour_check,
    _frechet_contour,
    _resolvent_stack,
    random_diagonalizable,
    random_jordan_blocks,
    random_symmetric,
    suite_compose,
    suite_contr,
    suite_product,
    suite_zero,
)


def report(num, label, pairs):
    """Print the criterion line for the worst (residual, bound) pair, then assert."""
    worst_r, worst_b = max(pairs, key=lambda p: p[0] / p[1] if p[1] > 0 else math.inf)
    ok = all(r <= b for r, b in pairs)
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: worst {worst_r:.3e} vs bound {worst_b:.1e} -> {verdict}")
    assert ok, f"criterion {num} failed: residual {worst_r:.3e} exceeds {worst_b:.1e}"


def entrywise_rel(A, B):
    den = max(np.max(np.abs(B)), 1e-300)
    return float(np.max(np.abs(A - B)) / den)


def suite_pairs(results):
    return [(r.residual, r.bound) for r in results]


# --------------------------------------------------------------------------
# 1. closed form on explicit Jordan structures


def test_c01_jordan_oracle():
    rng = np.random.default_rng(420)
    pairs = []
    for t in range(30):
        family = t % 3
        if family == 0:
            k = 1 + int(rng.integers(2))
            f = parse_field("x1^3 - 2*x1 + 1" if k == 1 else "x1^2*x2 - x2 + x1")
        elif family == 1:
            k = 1
            f = parse_field("exp(x1)")
        else:
            k = 2
            f = parse_field("exp(x1 + x2)")
        blocks = [random_jordan_blocks(rng, max_dim=4, max_block=3) for _ in range(k)]
        mats = [jordan_matrix(b) for b in blocks]
        got = f_otimes(f, mats).data
        want = jordan_closed_form(f, mats, blocks).data
        pairs.append((entrywise_rel(got, want), 1e-8))
    report(1, "interpolation route vs Jordan closed form, 30 inputs", pairs)


# --------------------------------------------------------------------------
# 2. eigendecomposition route on diagonalizable tuples


def test_c02_diagonalizable_oracle():
    rng = np.random.default_rng(421)
    pool = {
        1: ["exp(x1)", "x1^3 - 2*x1"],
        2: ["exp(x1 + x2)", "x1*x2 + x1"],
        3: ["x1*x2*x3", "exp(0.5*(x1 + x2 + x3))"],
    }
    pairs = []
    for t in range(30):
        k = 1 + t % 3
        f = parse_field(pool[k][t % 2])
        mats = [random_diagonalizable(rng, int(rng.integers(2, 5))) for _ in range(k)]
        got = f_otimes(f, mats).data
        want = f_otimes_diagonalizable(f, mats).data
        den = max(float(np.linalg.norm(want)), 1e-300)
        pairs.append((float(np.linalg.norm(got - want)) / den, 1e-8))
    report(2, "interpolation route vs eigendecomposition, 30 instances", pairs)


# --------------------------------------------------------------------------
# 3. annihilation of the spectral ideal


def test_c03_ideal_annihilation():
    results = suite_zero(42, trials=20)
    assert len(results) == 20
    report(3, "minimal-polynomial multiples map to zero, 20 members", suite_pairs(results))


# --------------------------------------------------------------------------
# 4. product identity and commutation of the matrix views


def test_c04_product_theorem():
    results = suite_product(42, trials=20)
    prod = [r for r in results if "commut" not in r.name]
    comm = [r for r in results if "commut" in r.name]
    assert prod and comm
    report(4, "product residual and matrix-view commutators", suite_pairs(results))


# --------------------------------------------------------------------------
# 5. composition identity, one defective instance included


def test_c05_composition_theorem():
    results = suite_compose(42, trials=10)
    assert len(results) == 10
    assert all(r.bound == 1e-7 for r in results)
    report(5, "composition residuals, 10 instances incl. defective", suite_pairs(results))


# --------------------------------------------------------------------------
# 6. contraction theorems and the commuting swap


def test_c06_contraction_theorems():
    pairs = suite_pairs(suite_contr(42, trials=8))
    # one explicit defective shared-slot instance, built here
    J = jordan_matrix([(1.2, 2), (0.3, 1)])
    B = np.diag([2.0, 5.0, 7.0])
    f = parse_field("x1*x2*x3 + x1 + x3")
    check = contract_equal_slots_theorem(f, [J, B, J], 0, 2)
    pairs.append((check.order_residual, 1e-8))
    pairs.append((check.reduced_residual, 1e-8))
    g = parse_field("x1*x2 + x2")
    tr = contract_trace_theorem(g, [J, B], 0)
    pairs.append((tr.residual, 1e-8))
    report(6, "trace and equal-slot contractions plus swap", pairs)


# --------------------------------------------------------------------------
# 7. directional derivatives three ways


def test_c07_derivatives_vs_numerics():
    rng = np.random.default_rng(427)
    pairs = []
    fs = [parse_field("exp(x1)"), parse_field("x1^3 - x1"), parse_field("1/(x1 + 5)")]

    def contour_pair(got, near, far, den):
        # residual against the half-gap circles, bound from the two circle sets
        check = _contour_check("c07", got, near, far, den)
        return check.residual, check.bound

    # slot derivative against the contour integral
    for t in range(6):
        f = fs[t % 3]
        d = int(rng.integers(2, 4))
        M = random_diagonalizable(rng, d)
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H /= np.linalg.norm(H)
        D = frechet_derivative(f, [M], 0, H).data
        near, far = (_frechet_contour(f, [M], 0, H, s) for s in (0.5, 0.25))
        pairs.append(contour_pair(D, near, far, max(float(np.linalg.norm(near)), 1e-300)))

    # curve derivatives n <= 3 against the contour integral
    for n in (1, 2, 3):
        f = fs[n % 3]
        M = random_diagonalizable(rng, 3)
        H = rng.normal(size=(3, 3))
        H /= np.linalg.norm(H)
        exact = nth_derivative_curve(f, M, H, n, 0.1)
        stacks = (_resolvent_stack(M + 0.1 * H, H, n, s) for s in (0.5, 0.25))
        near, far = (np.tensordot(f(w), X, axes=2) for w, X in stacks)
        pairs.append(contour_pair(exact, near, far, max(1.0, float(np.linalg.norm(exact)))))

    # commuting direction H = I: the curve derivative collapses to
    # f^(n)(M + zI) I^n
    z0 = 0.3
    for n in (1, 2, 3):
        f = fs[0]
        M = random_diagonalizable(rng, 3)
        I = np.eye(3)
        got = nth_derivative_curve(f, M, I, n, z0)
        g = f
        for _ in range(n):
            g = g.partial(0)
        want = matrix_function(g, M + z0 * I)
        den = max(1.0, float(np.linalg.norm(want)))
        pairs.append((float(np.linalg.norm(got - want)) / den, 1e-8))

    report(7, "slot/curve derivatives vs contour integrals and H=I form", pairs)


# --------------------------------------------------------------------------
# 8. cyclic identity behind the trace derivative, n = 3


def test_c08_trace_cyclic_identity():
    rng = np.random.default_rng(428)
    n = 3
    pairs = []
    for f in [parse_field("exp(x1)"), parse_field("x1^3 - 2*x1"), parse_field("1/(x1 + 6)")]:
        lhs_field = divided_difference_field(f.partial(0), n - 1)
        for _ in range(4):
            pts = [complex(rng.normal(), rng.normal()) for _ in range(n)]
            lhs = lhs_field(*pts)
            rhs = sum(doubled_node_difference_field(f, n, kk)(*pts) for kk in range(n))
            pairs.append((abs(lhs - rhs) / max(1.0, abs(lhs)), 1e-8))
    report(8, "derivative field equals sum of doubled-node fields, n=3", pairs)


# --------------------------------------------------------------------------
# 9. first-order eigenvalue and projector perturbation


def _matched_frame(A, ref):
    """Eigenvalues and rank-one projectors of A in the order of ref."""
    w, V = np.linalg.eig(A)
    Vi = np.linalg.inv(V)
    used = set()
    lams, projs = [], []
    for lam in ref:
        j = min((j for j in range(len(w)) if j not in used), key=lambda j: abs(w[j] - lam))
        used.add(j)
        lams.append(w[j])
        projs.append(np.outer(V[:, j], Vi[j, :]))
    return lams, projs


def test_c09_eigen_perturbation():
    rng = np.random.default_rng(429)
    pairs = []
    sum_pairs = []
    h = 1e-5
    for _ in range(5):
        M = random_diagonalizable(rng, 3, min_gap=0.8)
        H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H /= np.linalg.norm(H)
        ref = analyze(M).eigenvalues
        lp, pp = _matched_frame(M + h * H, ref)
        lm, pm = _matched_frame(M - h * H, ref)
        total = 0j
        for i in range(3):
            lam1 = eigenvalue_derivative(M, H, i, 1)
            total += lam1
            fd_lam = (lp[i] - lm[i]) / (2 * h)
            pairs.append((abs(lam1 - fd_lam), 1e-4))
            P1 = projector_derivative(M, H, i, 1)
            fd_P = (pp[i] - pm[i]) / (2 * h)
            pairs.append((float(np.linalg.norm(P1 - fd_P)), 1e-4))
        sum_pairs.append((abs(total - np.trace(H)), 1e-10))
    report(9, "eigenvalue/projector derivatives vs FD and trace sum", pairs + sum_pairs)


# --------------------------------------------------------------------------
# 10. antisymmetric pairing against enumeration; determinant from traces


def test_c10_antisymmetric_sums_and_determinant():
    rng = np.random.default_rng(430)
    fields = {
        1: parse_field("x1^2 + x1"),
        2: parse_field("x1*x2"),
        3: parse_field("x1*x2*x3"),
        4: parse_field("x1 + x2 + x3 + x4"),
    }
    pairs = []

    def check(M, eigvals, k):
        f = fields[k]
        want = sum(
            f(*(eigvals[i] for i in combo))
            for combo in itertools.permutations(range(len(eigvals)), k)
        )
        got = distinct_tuple_sum(f, M, k)
        pairs.append((abs(got - want) / max(1.0, abs(want)), 1e-8))

    for d in (2, 3, 4):
        M = rng.normal(size=(d, d))
        w = np.linalg.eigvals(M)
        for k in range(1, d + 1):
            check(M, w, k)
    # repeated eigenvalues, exact spectra supplied by construction
    check(np.diag([3.0, 3.0, 1.0]), [3.0, 3.0, 1.0], 2)
    check(np.diag([2.0, 2.0, 5.0, 5.0]), [2.0, 2.0, 5.0, 5.0], 3)
    J = jordan_matrix([(0.8, 2), (2.0, 1)])
    check(J, [0.8, 0.8, 2.0], 2)

    for d in (1, 2, 3, 4):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        want = np.linalg.det(A)
        got = det_from_traces(A)
        pairs.append((abs(got - want) / max(1.0, abs(want)), 1e-8))
    report(10, "distinct-index sums vs enumeration; det from traces", pairs)


# --------------------------------------------------------------------------
# 11. absolute value is 1-Lipschitz in the HS norm


def test_c11_lipschitz_absolute_value():
    rng = np.random.default_rng(431)
    absf = absval(variable(0, 1))
    pairs = []
    for _ in range(20):
        M1 = random_symmetric(rng, 4)
        M2 = M1 + random_symmetric(rng, 4, scale=0.5)
        dist = float(np.linalg.norm(M1 - M2))
        FA = matrix_function(absf, M1, route="diag")
        FB = matrix_function(absf, M2, route="diag")
        pairs.append((float(np.linalg.norm(FA - FB)) - dist, 1e-8))
    report(11, "||abs(M1)-abs(M2)|| <= ||M1-M2||, 20 symmetric pairs", pairs)


# --------------------------------------------------------------------------
# 12. Sylvester equation via the two-slot reciprocal sum


def test_c12_sylvester_solution():
    rng = np.random.default_rng(432)
    f = parse_field("1/(x1 + x2)")
    pairs = []
    for _ in range(6):
        d = int(rng.integers(2, 5))
        A = random_diagonalizable(rng, d) + 2.5 * np.eye(d)
        B = random_diagonalizable(rng, d) + 2.5 * np.eye(d)
        M = chain_contract(f_otimes(f, [A, B]))
        res = float(np.linalg.norm(A @ M + M @ B - np.eye(d)))
        pairs.append((res, 1e-8))
    report(12, "AM + MB = I through (x1+x2)^-1, disjoint spectra", pairs)


# --------------------------------------------------------------------------
# 13. the bundled verification battery runs fast and clean


def test_c13_verify_cli_budget():
    exe = shutil.which("matfn")
    cmd = (
        [exe, "verify", "--suite", "all", "--seed", "42"]
        if exe
        else [sys.executable, "-m", "matfn.cli", "verify", "--suite", "all", "--seed", "42"]
    )
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    wall = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "checks passed" in proc.stdout
    failed = [ln for ln in proc.stdout.splitlines() if ln.startswith("[FAIL]")]
    assert not failed, "\n".join(failed)
    report(13, "verify --suite all --seed 42 wall seconds", [(wall, 60.0)])
