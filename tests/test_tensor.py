"""Operator tensors: layout, pairing contractions, conjugation."""

import tracemalloc
import warnings

import numpy as np
import pytest

from matfn import (
    MultiPoly,
    OperatorTensor,
    analyze,
    apply_vectors,
    chain_contract,
    conjugate_slots,
    contract_adjacent_through,
    contract_pair,
    distinct_tuple_sum,
    f_otimes,
    from_matrix,
    parse_field,
    poly_tensor_eval,
    tensor_product,
    trace_slot,
    transpose_slot,
)

rng = np.random.default_rng(17)


def random_tensor(dims):
    shape = []
    for d in dims:
        shape.extend([d, d])
    return OperatorTensor(rng.normal(size=shape) + 1j * rng.normal(size=shape))


def loop_contract_pair(T, up_slot, down_slot):
    """Index-by-index reference for the pairing contraction."""
    data = T.data
    k = T.k
    dims = T.slot_dims
    surv = [l for l in range(k) if l not in (up_slot, down_slot)]
    merged_at = min(up_slot, down_slot)
    out_slots = sorted(surv + [merged_at])
    out_dims = []
    for l in out_slots:
        d = dims[down_slot] if l == merged_at else dims[l]
        out_dims.extend([d, d])
    out = np.zeros(out_dims, dtype=complex)
    for idx in np.ndindex(*data.shape):
        ups = idx[0::2]
        downs = idx[1::2]
        if ups[up_slot] != downs[down_slot]:
            continue
        key = []
        for l in out_slots:
            if l == merged_at:
                key.extend([ups[down_slot], downs[up_slot]])
            else:
                key.extend([ups[l], downs[l]])
        out[tuple(key)] += data[idx]
    return out


def test_layout_and_matrix_view():
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(3, 3))
    T = tensor_product([A, B])
    assert T.k == 2
    assert T.slot_dims == (2, 3)
    assert T.data[1, 0, 2, 1] == pytest.approx(A[1, 0] * B[2, 1])
    assert np.allclose(T.as_matrix(), np.kron(A, B))


def test_matrix_round_trip():
    T = random_tensor([2, 3, 2])
    back = from_matrix(T.as_matrix(), T.slot_dims)
    assert np.allclose(back.data, T.data)


def test_immutability():
    T = random_tensor([2])
    with pytest.raises(AttributeError):
        T.data = None
    with pytest.raises(ValueError):
        T.data[0, 0] = 5.0


def test_shape_validation():
    with pytest.raises(ValueError):
        OperatorTensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        OperatorTensor(np.zeros((2,)))


def test_contract_pair_matches_loops():
    T = random_tensor([3, 3, 2])
    for up, down in [(0, 1), (1, 0)]:
        got = contract_pair(T, up, down)
        want = loop_contract_pair(T, up, down)
        assert np.allclose(got.data, want), (up, down)
    S = random_tensor([2, 3, 2])
    for up, down in [(0, 2), (2, 0)]:
        got = contract_pair(S, up, down)
        want = loop_contract_pair(S, up, down)
        assert np.allclose(got.data, want), (up, down)


def test_contract_pair_rejects_mismatched_dims():
    T = random_tensor([2, 3])
    with pytest.raises(ValueError):
        contract_pair(T, 0, 1)


def test_contract_pair_composes_factors():
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    T = tensor_product([A, B])
    # pairing the up index of slot 1 with the down index of slot 0
    # multiplies the factors in order
    assert np.allclose(contract_pair(T, 1, 0).data, A @ B)
    assert np.allclose(contract_pair(T, 0, 1).data, B @ A)


def test_contract_pair_to_scalar():
    A = rng.normal(size=(4, 4))
    T = tensor_product([A])
    val = contract_pair(T, 0, 0)
    assert isinstance(val, complex)
    assert val == pytest.approx(np.trace(A))


def test_trace_slot():
    T = random_tensor([2, 3])
    got = trace_slot(T, 1)
    want = np.einsum("ijkk->ij", T.data)
    assert np.allclose(got.data, want)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(3, 3))
    P = tensor_product([A, B])
    assert np.allclose(trace_slot(P, 0).data, np.trace(A) * B)


def test_transpose_slot():
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(3, 3))
    T = tensor_product([A, B])
    got = transpose_slot(T, 0)
    assert np.allclose(got.data, tensor_product([A.T, B]).data)


def test_contract_adjacent_through_loops():
    T = random_tensor([2, 3, 3])
    H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = contract_adjacent_through(T, 1, H)
    want = np.einsum("ijabcd,bc->ijad", T.data, H)
    assert got.k == 2
    assert got.slot_dims == (2, 3)
    assert np.allclose(got.data, want)
    with pytest.raises(ValueError):
        contract_adjacent_through(T, 0, np.eye(2))  # slots 0 and 1 differ


def test_contract_adjacent_through_product():
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    H = rng.normal(size=(2, 2))
    T = tensor_product([A, B])
    got = contract_adjacent_through(T, 0, H)
    assert np.allclose(got.data, A @ H @ B)


def test_poly_tensor_eval():
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(3, 3))
    I2, I3 = np.eye(2), np.eye(3)
    cases = [
        (MultiPoly(2, {(2, 1): 1.0, (0, 0): -4.0}), np.kron(A @ A, B) - 4.0 * np.kron(I2, I3)),
        (MultiPoly(2), np.zeros((6, 6))),
        # slot 1 has degree 0, so its power stack is the identity alone
        (MultiPoly(2, {(1, 0): 2.0, (3, 0): 1j}), np.kron(2.0 * A + 1j * A @ A @ A, I3)),
    ]
    for p, want in cases:
        T = poly_tensor_eval(p, [A, B])
        assert T.slot_dims == (2, 3)
        assert np.allclose(T.as_matrix(), want)


def test_poly_tensor_eval_after_leading_term_cancels():
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(3, 3))
    lead = MultiPoly(2, {(4, 2): 1.5})
    rest = MultiPoly(2, {(1, 1): 2.0, (2, 0): -1j, (0, 0): 0.5})
    p = (rest + lead) - lead
    assert (p.degree(0), p.degree(1)) == (2, 1)
    got = poly_tensor_eval(p, [A, B]).as_matrix()
    want = poly_tensor_eval(rest, [A, B]).as_matrix()
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    expected = 2.0 * np.kron(A, B) - 1j * np.kron(A @ A, np.eye(3)) + 0.5 * np.eye(6)
    assert np.allclose(got, expected, atol=1e-12)


def test_poly_tensor_eval_in_newton_form():
    # sum c_ab N_a(A) (x) N_b(B), N_a(M) = prod_{j<a} (M - z_j I); one matrix in
    # two slots with one centre sequence shares a stack, and both stacks equal
    # the power stacks' value of the same polynomial
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    B = rng.normal(size=(2, 2))
    dense = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    centres = [rng.normal(size=3) + 1j * rng.normal(size=3), np.array([0.5, -2.0])]

    def newton(M, z, a):
        out = np.eye(len(M), dtype=complex)
        for c in z[:a]:
            out = out @ (M - c * np.eye(len(M)))
        return out

    p = MultiPoly(2, dense, centres)
    for mats in ([A, B], [A, A]):
        want = sum(dense[a, b] * np.kron(newton(mats[0], centres[0], a),
                                         newton(mats[1], centres[1], b))
                   for a in range(4) for b in range(3))
        got = poly_tensor_eval(p, mats).as_matrix()
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
        monomial = poly_tensor_eval(MultiPoly(2, p.coeffs), mats).as_matrix()
        assert np.allclose(monomial, want, rtol=1e-12, atol=1e-12)


def test_apply_vectors():
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(3, 3))
    T = tensor_product([A, B])
    v = rng.normal(size=2)
    w = rng.normal(size=3)
    got = apply_vectors(T, [v, w])
    assert got.shape == (2, 3)
    assert np.allclose(got, np.outer(A @ v, B @ w))


def test_conjugate_slots_covariance():
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(3, 3))
    S1 = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
    S2 = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    T = tensor_product([A, B])
    got = conjugate_slots(T, [S1, S2])
    want = tensor_product(
        [S1 @ A @ np.linalg.inv(S1), S2 @ B @ np.linalg.inv(S2)]
    )
    assert np.allclose(got.data, want.data, atol=1e-10)


def test_conjugate_slots_rejects_singular():
    # a singular conjugator raises before any condition number warns
    T = random_tensor([2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="slot 0 is singular"):
            conjugate_slots(T, [np.zeros((2, 2))])


def test_conjugate_slots_inverts_every_slot_before_warning():
    T = tensor_product([np.eye(2), np.eye(2)])
    ill = np.array([[1.0, 1.0], [0.0, 1e-13]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="slot 1 is singular"):
            conjugate_slots(T, [ill, np.zeros((2, 2))])
    with pytest.warns(RuntimeWarning, match="conjugator for slot 0 has condition"):
        got = conjugate_slots(T, [ill, np.eye(2)])
    assert got.slot_dims == (2, 2)


def test_algebra_of_add_and_scale():
    T = random_tensor([2, 2])
    S = random_tensor([2, 2])
    assert np.allclose((T + S).data, T.data + S.data)
    assert np.allclose((T - S).data, T.data - S.data)
    assert np.allclose((2.5 * T).data, 2.5 * T.data)
    assert np.allclose((-T).data, -T.data)


# ------------------------------------------------ the extension as a network


def _extension(k, d, seed):
    gen = np.random.default_rng(seed)
    mats = [gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)) for _ in range(k)]
    mats = [M / (2 * np.sqrt(d)) for M in mats]
    terms = " + ".join(f"x{l + 1}" for l in range(k))
    return parse_field(f"1/({terms} + {2 * k + 1})", k), mats


def _contractions(k, d, gen):
    """(name, operation) for every contraction of a k-slot tensor with slot dim d."""
    H = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    A = [np.eye(d) + 0.3 * gen.normal(size=(d, d)) for _ in range(k)]
    vecs = [gen.normal(size=d) + 1j * gen.normal(size=d) for _ in range(k)]
    ops = [
        ("as_matrix", lambda T: T.as_matrix()),
        ("apply_vectors", lambda T: apply_vectors(T, vecs)),
        ("conjugate_slots", lambda T: conjugate_slots(T, A)),
    ]
    for s in range(k):
        ops.append((f"trace_slot {s}", lambda T, s=s: trace_slot(T, s)))
        ops.append((f"transpose_slot {s}", lambda T, s=s: transpose_slot(T, s)))
        for t in range(k):
            ops.append((f"contract_pair {s} {t}", lambda T, s=s, t=t: contract_pair(T, s, t)))
    for s in range(k - 1):
        ops.append((f"contract_adjacent_through {s}",
                    lambda T, s=s: contract_adjacent_through(T, s, H)))
    return ops


def _value(x):
    return x.data if isinstance(x, OperatorTensor) else np.asarray(x)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_network_contractions_match_the_dense_tensor(k, d):
    f, mats = _extension(k, d, seed=10 * k + d)
    T = f_otimes(f, mats)
    D = OperatorTensor(f_otimes(f, mats).data)
    gen = np.random.default_rng(k + 7 * d)
    for name, op in _contractions(k, d, gen):
        got, want = op(T), op(D)
        pairs = [(name, got, want)]
        if isinstance(want, OperatorTensor):
            pairs += [(f"{name}, {second}", then(op(T)), then(want))
                      for second, then in _contractions(want.k, d, gen)]
        for label, x, y in pairs:
            x, y = _value(x), _value(y)
            assert x.shape == y.shape, label
            assert np.linalg.norm(x - y) <= 1e-13 * np.linalg.norm(y), label
    assert T._dense is None  # every contraction above ran on the network


def test_data_is_cached_read_only():
    f, mats = _extension(3, 3, seed=4)
    for T in (f_otimes(f, mats), trace_slot(f_otimes(f, mats), 1), random_tensor([2, 3])):
        first = T.data
        assert T.data is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[(0,) * first.ndim] = 1.0
    # the public constructor still copies the caller's array
    arr = np.ones((2, 2), dtype=complex)
    T = OperatorTensor(arr)
    arr[0, 0] = 5.0
    assert T.data[0, 0] == 1.0


def test_contractions_of_a_five_slot_extension_stay_small():
    f, mats = _extension(5, 4, seed=5)
    runs = {
        "chain_contract": lambda: chain_contract(f_otimes(f, mats)),
        "trace_slot": lambda: trace_slot(f_otimes(f, mats), 2).data,
        "distinct_tuple_sum": lambda: distinct_tuple_sum(f, mats[0], 5),
    }
    for name, run in runs.items():
        run()  # warm the derivative and contraction-path caches
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense 5-slot tensor alone is 16 MiB
        assert peak < 8 * 2**20, (name, peak)


def test_networks_beyond_einsums_letters():
    # 18 slots need 54 index letters as a network, more than einsum's 52;
    # conjugating 11 slots needs 55. Both fall back to the dense tensor.
    lams = np.linspace(0.5, 2.0, 18)
    f = parse_field("1/(" + " + ".join(f"x{l + 1}" for l in range(18)) + " + 1)", 18)
    # 1 x 1 slots are normal: the unitary route, and given spectra the Newton route
    for T in (f_otimes(f, [[[lam]] for lam in lams]),
              f_otimes(f, [[[lam]] for lam in lams], spectra=[analyze([[lam]]) for lam in lams])):
        assert T.slot_dims == (1,) * 18
        assert trace_slot(T, 4).data.reshape(-1)[0] == pytest.approx(1 / (lams.sum() + 1),
                                                                     rel=1e-12)
    g = parse_field("exp(" + " + ".join(f"x{l + 1}" for l in range(11)) + ")", 11)
    S = f_otimes(g, [[[lam]] for lam in lams[:11]])
    C = conjugate_slots(S, [[[2.0]]] * 11)
    assert C.data.reshape(-1)[0] == pytest.approx(np.exp(lams[:11].sum()), rel=1e-12)
    assert S._dense is not None  # the conjugation ran on the dense tensor
