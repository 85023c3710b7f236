"""Randomized residual suites over seeded corpora.

Every check builds an identity's two sides through genuinely different
code paths (interpolation vs closed forms, derivatives vs contour
integrals, tensor pairing vs enumeration) and records the residual
against a bound. The command line's ``verify`` subcommand and
the acceptance tests both run these functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algebraic_ops as aops
from . import antisym as asym
from . import calculus as calc
from . import scalarfield as sf
from .funcalc import (
    chain_contract,
    f_otimes,
    f_otimes_diagonalizable,
    jordan_closed_form,
    jordan_matrix,
    matrix_function,
)
from .scalarfield import MultiPoly, parse_field
from .spectral import analyze, minimal_polynomial
from .tensor import contract_adjacent_through, poly_tensor_eval


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    residual: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.suite}/{self.name}: "
            f"residual {self.residual:.6e} vs bound {self.bound:.6e}"
        )


# ---------------------------------------------------------------------------
# corpus generators


def _separated_points(rng, count, min_gap=0.4, real=False, box=2.0):
    for _ in range(200):
        pts = box * (2 * rng.random(count) - 1)
        if not real:
            pts = pts + 1j * (2 * rng.random(count) - 1)
        if all(abs(a - b) >= min_gap for a, b in itertools.combinations(pts, 2)):
            return [complex(p) for p in pts]
    raise RuntimeError("could not draw separated points")


def _conjugator(rng, d, skew=0.25):
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Q @ (np.eye(d) + skew * rng.normal(size=(d, d)))


def random_diagonalizable(rng, d, *, min_gap=0.4, real_spectrum=False):
    lams = _separated_points(rng, d, min_gap=min_gap, real=real_spectrum)
    V = _conjugator(rng, d)
    return V @ np.diag(lams) @ np.linalg.inv(V)


def random_jordan_blocks(rng, *, max_dim=4, max_block=3):
    """Block list for a random Jordan matrix, eigenvalues well separated."""
    dim = int(rng.integers(2, max_dim + 1))
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(rng.integers(1, min(max_block, dim - sum(sizes)) + 1)))
    lams = _separated_points(rng, len(sizes), min_gap=0.5)
    return list(zip(lams, sizes))


def random_symmetric(rng, d, scale=1.0):
    A = rng.normal(size=(d, d)) * scale
    return (A + A.T) / 2


_X = sf.variable(0, 1)


def _build_pools():
    x1, x2 = sf.variable(0, 2), sf.variable(1, 2)
    y1, y2, y3 = (sf.variable(i, 3) for i in range(3))
    zs = [sf.variable(i, 4) for i in range(4)]
    total = zs[0] + zs[1] + zs[2] + zs[3]
    return {
        1: [_X**2, _X**3 - 2 * _X, sf.exp(_X), 1 / (_X + 5), sf.exp(-1 * _X) + _X**2],
        2: [x1 * x2, x1 + x2, (x1 + x2) ** 2, sf.exp(x1 + x2), 1 / (x1 + x2 + 5),
            x1**2 * x2 - x2 + 1],
        # exp is damped so matrix views stay small enough for the absolute
        # commutator bound in the product suite
        3: [y1 * y2 * y3, y1 + y2 + y3, sf.exp(0.5 * (y1 + y2 + y3)), y1 * y3 + y2**2],
        4: [zs[0] * zs[1] * zs[2] * zs[3], total, total**2, zs[0] * zs[2] + zs[1] * zs[3]],
    }


#: The field pool of each arity, the fields' order fixed: draws index it.
_POOLS = _build_pools()


def _draw(rng, pool):
    """One field of ``pool``, picked by one ``rng.integers`` call."""
    return pool[int(rng.integers(len(pool)))]


# ---------------------------------------------------------------------------
# oracles: contour integrals


#: Trapezoid points per circle: at half the eigenvalue gap the error falls
#: like 2**-points (Trefethen & Weideman, SIAM Review 56(3), 2014).
_CONTOUR_POINTS = 64
#: The largest gap a circle is scaled from: it keeps circles off the pool fields' poles.
_RADIUS_CAP = 0.8
#: A contour check's bound: this factor times its two circle sets' disagreement, at least 1e-10.
_CIRCLE_FACTOR = 10.0


def _resolvent_stack(A, H, n, s):
    """Points w[k, p] and terms X[k, p] = n! dw / (2 pi i) R (H R)^n, R = (w - A)^-1.

    Circle k has the k-th eigenvalue of A, in (real, imag) order, as centre and
    s min(gap, _RADIUS_CAP) as radius, its gap the distance to the other
    eigenvalues. X summed over circle k is d^n/dz^n at z = 0 of that eigenvalue's
    projector of A + zH, and f(w) X summed over all points is d^n/dz^n f(A + zH)
    for f analytic on the discs (Kato, *Perturbation Theory for Linear
    Operators*, ch. II).
    """
    lams = np.sort(np.linalg.eigvals(A))
    gaps = np.abs(lams[:, None] - lams) + np.diag(np.full(lams.size, np.inf))
    radius = s * np.minimum(gaps.min(axis=1), _RADIUS_CAP)[:, None]
    e = np.exp(2j * np.pi * np.arange(_CONTOUR_POINTS) / _CONTOUR_POINTS)
    w = lams[:, None] + radius * e
    X = R = np.linalg.inv(w[..., None, None] * np.eye(len(A)) - A)
    for _ in range(n):
        X = X @ H @ R
    # n! dw / (2 pi i) is n! radius e dt / (2 pi): the trapezoid weights, n! radius
    # rounded as float(n!) radius is at n <= 170 and a MatfnError where it overflows
    return w, X * (calc._derivative(radius, n).real / _CONTOUR_POINTS * e)[..., None, None]


def _frechet_contour(f, mats, slot, H, s):
    """The derivative in ``slot`` along H of f's extension at ``mats``, on circles s.

    That slot's stack takes n = 1 and the others n = 0. f is evaluated once on
    the product of the slots' points, which are summed out one slot at a time,
    leaving the (up, down) axes in slot order.
    """
    stacks = [_resolvent_stack(A, H, int(j == slot), s) for j, A in enumerate(mats)]
    k = len(stacks)
    T = f(*(w.reshape((-1,) + (1,) * (k - 1 - j)) for j, (w, _) in enumerate(stacks)))
    for _, X in stacks:
        T = np.tensordot(T, X.reshape((-1,) + X.shape[2:]), axes=(0, 0))
    return T


def _contour_check(name, got, near, far, scale=1.0):
    """``got`` against the oracle on the near circles, both relative to ``scale``."""
    bound = max(_CIRCLE_FACTOR * float(np.linalg.norm(near - far)) / scale, 1e-10)
    return CheckResult("diff", name, float(np.linalg.norm(got - near)) / scale, bound)


# ---------------------------------------------------------------------------
# suites


def suite_paths(seed, trials=30):
    """Route agreement: Jordan closed form, eigenbasis sum, chain identities."""
    out = []
    rng = np.random.default_rng(seed)
    k_cycle = [1, 2]
    for t in range(trials):
        k = k_cycle[t % len(k_cycle)]
        blocks = [random_jordan_blocks(rng, max_dim=4, max_block=3) for _ in range(k)]
        mats = [jordan_matrix(b) for b in blocks]
        f = _draw(rng, _POOLS[k])
        via_interp = f_otimes(f, mats)
        via_jordan = jordan_closed_form(f, mats, blocks)
        scale = max(via_jordan.hs_norm(), 1e-30)
        res = float(np.linalg.norm(via_interp.data - via_jordan.data)) / scale
        out.append(CheckResult("paths", f"jordan-{t}", res, 1e-8))
    for t in range(trials):
        k = k_cycle[t % len(k_cycle)]
        dims = [int(rng.integers(2, 5)) for _ in range(k)]
        mats = [random_diagonalizable(rng, d) for d in dims]
        f = _draw(rng, _POOLS[k])
        via_interp = f_otimes(f, mats)
        via_diag = f_otimes_diagonalizable(f, mats)
        scale = max(via_diag.hs_norm(), 1e-30)
        res = float(np.linalg.norm(via_interp.data - via_diag.data)) / scale
        out.append(CheckResult("paths", f"diag-{t}", res, 1e-8))

    # Chain contraction: the unique solution of A X + X B = 1 comes from
    # the tensor extension of 1/(x1 + x2).
    for t in range(4):
        d = int(rng.integers(2, 4))
        A = random_diagonalizable(rng, d) + 2.5 * np.eye(d)
        B = random_diagonalizable(rng, d) + 2.5 * np.eye(d)
        inv_sum = parse_field("1/(x1 + x2)")
        X = chain_contract(f_otimes(inv_sum, [A, B]))
        res = float(np.linalg.norm(A @ X + X @ B - np.eye(d)))
        out.append(CheckResult("paths", f"sylvester-{t}", res, 1e-8))
        sq = parse_field("(x1 + x2)^2")
        S = chain_contract(f_otimes(sq, [A, B]))
        expected = A @ A + 2 * A @ B + B @ B
        res2 = float(np.linalg.norm(S - expected)) / max(np.linalg.norm(expected), 1.0)
        out.append(CheckResult("paths", f"chain-square-{t}", res2, 1e-10))
    return out


def suite_product(seed, trials=20):
    out = []
    rng = np.random.default_rng(seed)
    k_cycle = [1, 2, 3, 2]
    for t in range(trials):
        k = k_cycle[t % len(k_cycle)]
        mats = []
        for _ in range(k):
            d = int(rng.integers(2, 4))
            if rng.random() < 0.25:
                mats.append(jordan_matrix(random_jordan_blocks(rng, max_dim=d if d > 1 else 2)))
            else:
                mats.append(random_diagonalizable(rng, d))
        f1 = _draw(rng, _POOLS[k])
        f2 = _draw(rng, _POOLS[k])
        check = aops.product_identity_check(f1, f2, mats)
        out.append(
            CheckResult("product", f"product-{t}", check.product_residual, 1e-8 * check.scale)
        )
        out.append(CheckResult("product", f"commutator-{t}", check.commutator_norm, 1e-8))
    return out


def _compose_instance(rng, r, defective):
    """Inner fields and matrix groups whose derived values separate well.

    The outer interpolation grid lives on values of the inner fields at
    eigenvalue tuples, so instances where two such values nearly collide
    (without exactly colliding) are redrawn: they test conditioning, not
    the identity.
    """
    x1 = sf.variable(0, 2)
    x2 = sf.variable(1, 2)
    inner_pools = {
        1: [_X**2, _X**3 - 2 * _X, 1 / (_X + 5), _X**2 - _X],
        2: [x1 * x2, x1 + x2, x1**2 * x2 - x2 + 1, 1 / (x1 + x2 + 5)],
    }
    for _ in range(60):
        inners, groups = [], []
        for q in range(r):
            kq = 1 + int(rng.integers(2))
            fq = _draw(rng, inner_pools[kq])
            grp = []
            for j in range(kq):
                if defective and q == 0 and j == 0:
                    grp.append(jordan_matrix([(complex(rng.normal()), 2)]))
                else:
                    d = int(rng.integers(2, 4))
                    grp.append(random_diagonalizable(rng, d, min_gap=0.4))
            spectra = [analyze(M) for M in grp]
            derived = aops.derived_spectrum(fq, spectra)
            vals = derived.values
            if max(abs(v) for v in vals) > 3.0 or any(
                    abs(a - b) < 0.05 for a, b in itertools.combinations(vals, 2)):
                break
            inners.append(fq)
            groups.append(grp)
        else:
            return inners, groups
    raise RuntimeError("could not draw a well-separated composition instance")


def suite_compose(seed, trials=10):
    out = []
    rng = np.random.default_rng(seed)
    x1_of_2, x2_of_2 = sf.variable(0, 2), sf.variable(1, 2)
    for t in range(trials):
        r = 1 + t % 2
        if r == 1:
            g = [_X**2, sf.exp(_X), _X**3][t % 3]
        else:
            g = [x1_of_2 * x2_of_2, x1_of_2 + x2_of_2, (x1_of_2 + x2_of_2) ** 2][t % 3]
        inners, groups = _compose_instance(rng, r, defective=(t == trials - 1))
        check = aops.compose_identity_check(g, inners, groups)
        out.append(CheckResult("compose", f"compose-{t}", check.residual, 1e-7))
    return out


def suite_contr(seed, trials=8):
    out = []
    rng = np.random.default_rng(seed)
    for t in range(trials):
        k = 2 + t % 2
        dims = [int(rng.integers(2, 4)) for _ in range(k)]
        mats = [random_diagonalizable(rng, d) for d in dims]
        f = _draw(rng, _POOLS[k])
        slot = t % k
        check = aops.contract_trace_theorem(f, mats, slot)
        out.append(CheckResult("contr", f"trace-{t}", check.residual, 1e-8))
    for t in range(trials):
        k = 2 + t % 2
        if t % 3 == 0:
            shared = jordan_matrix(random_jordan_blocks(rng, max_dim=3, max_block=2))
        else:
            shared = random_diagonalizable(rng, int(rng.integers(2, 4)))
        d = shared.shape[0]
        mats = [shared] + (
            [random_diagonalizable(rng, int(rng.integers(2, 4)))] if k == 3 else []
        ) + [shared]
        f = _draw(rng, _POOLS[k])
        check = aops.contract_equal_slots_theorem(f, mats, 0, k - 1)
        out.append(CheckResult("contr", f"equal-orders-{t}", check.order_residual, 1e-8))
        out.append(CheckResult("contr", f"equal-reduced-{t}", check.reduced_residual, 1e-8))
    for t in range(trials // 2):
        d = int(rng.integers(2, 4))
        M = random_diagonalizable(rng, d)
        N = 0.7 * M @ M - 1.3 * M + 0.4 * np.eye(d)
        f = _draw(rng, _POOLS[2])
        check = aops.commuting_swap_check(f, [M, N], 0, 1)
        out.append(CheckResult("contr", f"swap-{t}", check.residual, 1e-8))
    return out


def _paper_chain(g, A, H) -> np.ndarray:
    """The paper's route: the extension of ``g`` at copies of A, adjacent slots contracted
    through H, one slot at a time."""
    T = f_otimes(g, [A] * g.arity)
    for slot in reversed(range(g.arity - 1)):
        T = contract_adjacent_through(T, slot, H)
    return T.data


def suite_diff(seed, trials=6):
    out = []
    rng = np.random.default_rng(seed)

    # slot derivative against the contour, in k variables
    for t in range(trials):
        k = 1 + t % 2
        dims = [int(rng.integers(2, 4)) for _ in range(k)]
        mats = [random_diagonalizable(rng, d) for d in dims]
        slot = t % k
        H = rng.normal(size=mats[slot].shape) + 1j * rng.normal(size=mats[slot].shape)
        H /= np.linalg.norm(H)
        f = _draw(rng, _POOLS[k])
        D = calc.frechet_derivative(f, mats, slot, H).data
        oracle = [_frechet_contour(f, mats, slot, H, s) for s in (0.5, 0.25)]
        scale = max(float(np.linalg.norm(D)), 1e-12)
        out.append(_contour_check(f"frechet-contour-{t}", D, *oracle, scale))

    # curve derivatives against the contour
    for t in range(trials):
        n = 1 + t % 3
        d = int(rng.integers(2, 4))
        M = random_diagonalizable(rng, d)
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H /= np.linalg.norm(H)
        f = _draw(rng, _POOLS[1])
        z0 = 0.1
        exact = calc.nth_derivative_curve(f, M, H, n, z0)
        stacks = [_resolvent_stack(M + z0 * H, H, n, s) for s in (0.5, 0.25)]
        oracle = [np.tensordot(f(w), X, axes=2) for w, X in stacks]
        scale = max(1.0, float(np.linalg.norm(exact)))
        out.append(_contour_check(f"curve-contour-n{n}-{t}", exact, *oracle, scale))
        paper = _paper_chain(calc.divided_difference_field(f, n), M + z0 * H, H)
        res = float(np.linalg.norm(exact - math.factorial(n) * paper)) / scale
        out.append(CheckResult("diff", f"curve-paper-route-n{n}-{t}", res, 1e-8))

    # commuting direction: closed form f^(n)(A) H^n
    for t in range(3):
        n = 1 + t
        d = int(rng.integers(2, 4))
        M = random_diagonalizable(rng, d)
        H = 0.6 * M + 0.3 * np.eye(d)
        f = sf.exp(_X)
        exact = calc.nth_derivative_curve(f, M, H, n, 0.0)
        fn = f
        for _ in range(n):
            fn = fn.partial(0)
        closed = matrix_function(fn, M) @ np.linalg.matrix_power(H, n)
        res = float(np.linalg.norm(exact - closed)) / max(
            1.0, float(np.linalg.norm(closed))
        )
        out.append(CheckResult("diff", f"commuting-closed-{n}", res, 1e-8))

    # cyclic identity of the doubled-node fields; the trace derivative against
    # the contour and the paper's route
    for t in range(trials):
        n = 1 + t % 3
        f = _draw(rng, _POOLS[1])
        fprime = f.partial(0)
        lhs_field = calc.divided_difference_field(fprime, n - 1)
        pts = [complex(rng.normal(), rng.normal()) for _ in range(n)]
        lhs = lhs_field(*pts)
        rhs = 0j
        for kk in range(n):
            rhs += calc.doubled_node_difference_field(f, n, kk)(*pts)
        res = abs(lhs - rhs) / max(1.0, abs(lhs))
        out.append(CheckResult("diff", f"cyclic-field-n{n}-{t}", res, 1e-8))

        d = int(rng.integers(2, 4))
        M = random_diagonalizable(rng, d)
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H /= np.linalg.norm(H)
        via_trace = calc.trace_derivative(f, M, H, n, 0.05)
        stacks = [_resolvent_stack(M + 0.05 * H, H, n, s) for s in (0.5, 0.25)]
        oracle = [np.trace(np.tensordot(f(w), X, axes=2)) for w, X in stacks]
        scale = max(1.0, abs(via_trace))
        out.append(_contour_check(f"trace-contour-n{n}-{t}", via_trace, *oracle, scale))
        doubled = calc.doubled_node_difference_field(f, n, n - 1)
        paper = math.factorial(n) * complex(np.trace(_paper_chain(doubled, M + 0.05 * H, H) @ H))
        res3 = abs(via_trace - paper) / max(1.0, abs(via_trace))
        out.append(CheckResult("diff", f"trace-paper-route-n{n}-{t}", res3, 1e-8))

    # eigenvalue and projector perturbation against the contour oracle
    for t in range(3):
        d = 3
        M = random_diagonalizable(rng, d, min_gap=0.8)
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H /= np.linalg.norm(H)
        proj, eig = {}, {}  # per order, every eigenvalue's derivatives on two circle sets
        for n in (1, 2):
            stacks = [_resolvent_stack(M, H, n, s) for s in (0.5, 0.25)]
            proj[n] = np.array([X.sum(axis=1) for _, X in stacks])
            eig[n] = np.array([np.einsum("kp,kpii->k", w, X) for w, X in stacks])
        sum_first = 0j
        for which in range(d):
            d1 = calc.eigenvalue_derivative(M, H, which, 1)
            sum_first += d1
            out.append(_contour_check(f"eig-d1-{t}-{which}", d1, *eig[1][:, which]))
            d2 = calc.eigenvalue_derivative(M, H, which, 2)
            out.append(_contour_check(f"eig-d2-{t}-{which}", d2, *eig[2][:, which]))
        out.append(
            CheckResult(
                "diff", f"eig-sum-trace-{t}", abs(sum_first - np.trace(H)), 1e-10
            )
        )
        for which in range(d):
            dp = calc.projector_derivative(M, H, which, 1)
            out.append(_contour_check(f"proj-d1-{t}-{which}", dp, *proj[1][:, which]))
        dp2 = calc.projector_derivative(M, H, 0, 2)
        out.append(_contour_check(f"proj-d2-{t}", dp2, *proj[2][:, 0]))
    return out


def suite_lipschitz(seed, trials=20):
    out = []
    rng = np.random.default_rng(seed)
    absf = sf.absval(_X)
    minf = sf.min_const(_X, 0.25)
    for t in range(trials):
        M1 = random_symmetric(rng, 4)
        M2 = M1 + random_symmetric(rng, 4, scale=0.5)
        dist = float(np.linalg.norm(M1 - M2))
        FA = matrix_function(absf, M1, route="diag")
        FB = matrix_function(absf, M2, route="diag")
        gap = float(np.linalg.norm(FA - FB)) - dist
        out.append(CheckResult("lipschitz", f"abs-{t}", gap, 1e-8))
        GA = matrix_function(minf, M1, route="diag")
        GB = matrix_function(minf, M2, route="diag")
        gap2 = float(np.linalg.norm(GA - GB)) - dist
        out.append(CheckResult("lipschitz", f"min-{t}", gap2, 1e-8))
    return out


def suite_antisym(seed, trials=10):
    out = []
    rng = np.random.default_rng(seed)
    specials = [
        np.diag([1.0, 2.0]),
        np.diag([3.0, 3.0]),
        np.diag([3.0, 3.0, 1.0]),
        np.diag([1.0, 2.0, -1.0, 3.0]),
        jordan_matrix([(0.8, 2), (2.0, 1)]),
    ]
    for t in range(trials):
        if t < len(specials):
            M = specials[t]
        else:
            M = random_diagonalizable(rng, int(rng.integers(2, 5)))
        d = M.shape[0]
        for k in range(1, min(d, 4) + 1):
            f = _draw(rng, _POOLS[k])
            got = asym.distinct_tuple_sum(f, M, k)
            w = np.linalg.eigvals(M)
            idx = np.array(list(itertools.permutations(range(d), k)))
            brute = complex(f(*(w[idx[:, l]] for l in range(k))).sum())
            res = abs(got - brute) / max(1.0, abs(brute))
            out.append(CheckResult("antisym", f"distinct-{t}-k{k}", res, 1e-8))
    for t in range(trials):
        d = int(rng.integers(2, 6))
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = asym.det_from_traces(M)
        ref = complex(np.linalg.det(M))
        res = abs(got - ref) / max(1.0, abs(ref))
        out.append(CheckResult("antisym", f"det-{t}", res, 1e-8))
    return out


def suite_zero(seed, trials=20):
    out = []
    rng = np.random.default_rng(seed)
    for t in range(trials):
        k = 1 + t % 2
        mats = []
        for _ in range(k):
            if rng.random() < 0.4:
                mats.append(jordan_matrix(random_jordan_blocks(rng, max_dim=3)))
            else:
                mats.append(random_diagonalizable(rng, int(rng.integers(2, 4))))
        sd = analyze(mats[0])
        mu = minimal_polynomial(sd)
        # lift to k variables in x1, multiply by a random polynomial
        lifted = MultiPoly(k, mu.dense.reshape(mu.dense.shape + (1,) * (k - 1)))
        q_terms = {}
        for _ in range(3):
            alpha = tuple(int(rng.integers(0, 3)) for _ in range(k))
            q_terms[alpha] = complex(rng.normal(), rng.normal())
        Q = MultiPoly(k, q_terms)
        if Q.is_zero():
            Q = MultiPoly(k, {(0,) * k: 1.0})
        P = lifted * Q
        T = poly_tensor_eval(P, mats)
        norms = [float(np.linalg.norm(M, 2)) for M in mats]
        # sum_alpha |c_alpha| prod_l ||M_l||^{a_l}
        scale = MultiPoly(k, np.abs(P.dense))(*norms).real
        out.append(CheckResult("zero", f"annihilate-{t}", T.hs_norm(), 1e-8 * scale))
    return out


SUITES = {
    "paths": suite_paths,
    "product": suite_product,
    "compose": suite_compose,
    "contr": suite_contr,
    "diff": suite_diff,
    "lipschitz": suite_lipschitz,
    "antisym": suite_antisym,
    "zero": suite_zero,
}


def run_suites(names, seed=0, trials=None):
    """Run the named suites (or all) and return every check result."""
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if "all" in names:
        chosen = list(SUITES)
    else:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}; valid: {sorted(SUITES)} or all")
        chosen = list(names)
    kwargs = {} if trials is None else {"trials": trials}
    results = []
    for offset, name in enumerate(chosen):
        results.extend(SUITES[name](seed + 1000 * offset, **kwargs))
    return results
