"""Dense tensors with one (up, down) index pair per matrix slot.

A k-slot operator tensor stores coefficients T[i1, j1, ..., ik, jk] with
the up index i_l and down index j_l of slot l adjacent, so axis 2l is up
and axis 2l+1 is down. Reshaping with all up indices grouped before all
down indices identifies the tensor with an endomorphism of the tensor
product space; that reshape is :func:`as_matrix` and it is an algebra
isomorphism (matrix product of views = slotwise composition).

Slot indices in this module are 0-based.
"""

from __future__ import annotations

import string
import warnings

import numpy as np

from .scalarfield import MultiPoly
from .spectral import as_square_matrix

_LETTERS = string.ascii_letters


class OperatorTensor:
    """Immutable dense tensor with paired slot indices."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=complex)
        if arr.ndim == 0 or arr.ndim % 2 != 0:
            raise ValueError(f"operator tensors need an even number of axes, got {arr.ndim}")
        for l in range(arr.ndim // 2):
            if arr.shape[2 * l] != arr.shape[2 * l + 1]:
                raise ValueError(
                    f"slot {l} has mismatched index dimensions "
                    f"{arr.shape[2 * l]} and {arr.shape[2 * l + 1]}"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorTensor is immutable")

    @property
    def k(self) -> int:
        return self.data.ndim // 2

    @property
    def slot_dims(self) -> tuple[int, ...]:
        return tuple(self.data.shape[2 * l] for l in range(self.k))

    def as_matrix(self) -> np.ndarray:
        """The (prod d) x (prod d) matrix view, up indices first."""
        k = self.k
        perm = [2 * l for l in range(k)] + [2 * l + 1 for l in range(k)]
        n = int(np.prod(self.slot_dims))
        return np.transpose(self.data, perm).reshape(n, n)

    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __add__(self, other):
        if not isinstance(other, OperatorTensor):
            return NotImplemented
        return OperatorTensor(self.data + other.data)

    def __sub__(self, other):
        if not isinstance(other, OperatorTensor):
            return NotImplemented
        return OperatorTensor(self.data - other.data)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return OperatorTensor(self.data * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return OperatorTensor(-self.data)

    def __repr__(self):
        return f"OperatorTensor(slot_dims={self.slot_dims})"


def from_matrix(mat, slot_dims) -> OperatorTensor:
    """Inverse of :meth:`OperatorTensor.as_matrix` for given slot sizes."""
    dims = tuple(int(d) for d in slot_dims)
    n = int(np.prod(dims))
    arr = np.asarray(mat, dtype=complex)
    if arr.shape != (n, n):
        raise ValueError(f"matrix shape {arr.shape} does not match slot dims {dims}")
    k = len(dims)
    split = arr.reshape(dims + dims)
    perm = []
    for l in range(k):
        perm.extend([l, k + l])
    return OperatorTensor(np.transpose(split, perm))


def tensor_product(mats) -> OperatorTensor:
    """M_1 (x) ... (x) M_k as an operator tensor."""
    arrs = [as_square_matrix(M, f"slot {l} matrix") for l, M in enumerate(mats)]
    out = arrs[0]
    for M in arrs[1:]:
        out = np.multiply.outer(out, M)
    return OperatorTensor(out)


def _coeff_tensor(poly: MultiPoly) -> np.ndarray:
    """The coefficients of ``poly`` as a dense array, one axis per variable."""
    degs = [max(poly.degree(l), 0) for l in range(poly.arity)]
    total = np.zeros(tuple(n + 1 for n in degs), dtype=complex)
    for alpha, c in poly.coeffs.items():
        total[alpha] = c
    return total


def _power_stack(M: np.ndarray, n: int) -> np.ndarray:
    """(I, M, M^2, ..., M^n) as one array of shape (n + 1, d, d)."""
    stack = [np.eye(M.shape[0], dtype=complex)]
    for _ in range(n):
        stack.append(stack[-1] @ M)
    return np.array(stack)


def poly_tensor_eval(poly: MultiPoly, mats) -> OperatorTensor:
    """sum_alpha c_alpha M_1^{a_1} (x) ... (x) M_k^{a_k}."""
    arrs = [as_square_matrix(M, f"slot {l} matrix") for l, M in enumerate(mats)]
    if poly.arity != len(arrs):
        raise ValueError(
            f"polynomial in {poly.arity} variables but {len(arrs)} matrices given"
        )
    total = _coeff_tensor(poly)
    # Each tensordot sums the leading exponent axis against the slot's
    # power stack and appends that slot's (up, down) pair, so the result
    # ends in (i1, j1, ..., ik, jk) order.
    for M, n in zip(arrs, total.shape):
        total = np.tensordot(total, _power_stack(M, n - 1), axes=(0, 0))
    return OperatorTensor(total)


def _chain_fold(poly: MultiPoly, M: np.ndarray, H: np.ndarray) -> np.ndarray:
    """sum_alpha c_alpha M^{a_1} H M^{a_2} H ... H M^{a_k} as one matrix.

    This is ``poly_tensor_eval(poly, [M] * k)`` with every pair of
    adjacent slots contracted through H, computed without the d^(2k)
    tensor: a right fold Y <- sum_a M^a H Y[..., a] over the slots, which
    holds one d x d matrix per index of the slots not yet folded.
    """
    C = _coeff_tensor(poly)
    S = _power_stack(M, max(C.shape) - 1)
    Y = np.tensordot(C, S[: C.shape[-1]], axes=(-1, 0))
    for n in reversed(C.shape[:-1]):
        Y = (S[:n] @ (H @ Y)).sum(axis=-3)
    return Y


def transpose_slot(T: OperatorTensor, slot: int) -> OperatorTensor:
    """Swap the up and down index of one slot."""
    _check_slot(T, slot)
    return OperatorTensor(np.swapaxes(T.data, 2 * slot, 2 * slot + 1))


def _check_slot(T: OperatorTensor, slot: int):
    if not 0 <= slot < T.k:
        raise ValueError(f"slot {slot} out of range for a {T.k}-slot tensor")


def contract_pair(T: OperatorTensor, up_slot: int, down_slot: int):
    """Sum the up index of one slot against the down index of another.

    For distinct slots the two surviving indices (up of ``down_slot``,
    down of ``up_slot``) merge into a single slot placed at
    ``min(up_slot, down_slot)``; the result has one slot fewer. With
    ``up_slot == down_slot`` this is the slot trace. A 0-slot result is
    returned as a plain complex number.

    Chaining ``contract_pair(T, l+1, l)`` composes slots like a matrix
    product: on M (x) N it yields the matrix MN.
    """
    _check_slot(T, up_slot)
    _check_slot(T, down_slot)
    if up_slot == down_slot:
        return trace_slot(T, up_slot)
    p, q = up_slot, down_slot
    if T.data.shape[2 * p] != T.data.shape[2 * q + 1]:
        raise ValueError(
            f"cannot contract slot {p} (dim {T.data.shape[2 * p]}) with "
            f"slot {q} (dim {T.data.shape[2 * q + 1]})"
        )
    k = T.k
    sub = list(_LETTERS[: 2 * k])
    sum_letter = _LETTERS[2 * k]
    sub[2 * p] = sum_letter  # up index of the up_slot
    sub[2 * q + 1] = sum_letter  # down index of the down_slot
    merged = (_LETTERS[2 * q], _LETTERS[2 * p + 1])  # (surviving up, surviving down)
    out = []
    for l in sorted(set(range(k)) - {p, q}):
        out.append((l, (_LETTERS[2 * l], _LETTERS[2 * l + 1])))
    out.append((min(p, q), merged))
    out.sort(key=lambda item: item[0])
    out_letters = "".join(a + b for _, (a, b) in out)
    result = np.einsum("".join(sub) + "->" + out_letters, T.data)
    if result.ndim == 0:
        return complex(result)
    return OperatorTensor(result)


def trace_slot(T: OperatorTensor, slot: int):
    """Sum the paired indices of one slot; drops that slot."""
    _check_slot(T, slot)
    k = T.k
    sub = list(_LETTERS[: 2 * k])
    sub[2 * slot + 1] = sub[2 * slot]
    out_letters = "".join(
        _LETTERS[2 * l] + _LETTERS[2 * l + 1] for l in range(k) if l != slot
    )
    result = np.einsum("".join(sub) + "->" + out_letters, T.data)
    if result.ndim == 0:
        return complex(result)
    return OperatorTensor(result)


def contract_adjacent_through(T: OperatorTensor, left_slot: int, H) -> OperatorTensor:
    """Contract two adjacent slots through a matrix.

    Sums the down index of ``left_slot`` against the row index of ``H``
    and the up index of ``left_slot + 1`` against its column index. The
    two surviving indices form one slot in place, so the result has one
    slot fewer. This is the index pattern

        T[..., (i, a), (b, j), ...] H[a, b]  ->  S[..., (i, j), ...]

    used by the derivative formulas to feed a direction matrix between
    two copies of the same argument slot.
    """
    if not 0 <= left_slot < T.k - 1:
        raise ValueError(
            f"left_slot {left_slot} needs a following slot in a {T.k}-slot tensor"
        )
    Hm = as_square_matrix(H, "through matrix")
    p = left_slot
    if T.slot_dims[p] != Hm.shape[0] or T.slot_dims[p + 1] != Hm.shape[0]:
        raise ValueError(
            f"through matrix of dim {Hm.shape[0]} does not fit slots of dims "
            f"{T.slot_dims[p]} and {T.slot_dims[p + 1]}"
        )
    # tensordot removes the two contracted axes; the survivors (up of p,
    # down of p+1) are adjacent and already in slot order.
    data = np.tensordot(T.data, Hm, axes=([2 * p + 1, 2 * p + 2], [0, 1]))
    return OperatorTensor(data)


def apply_vectors(T: OperatorTensor, vectors) -> np.ndarray:
    """Contract every down index with a vector; returns a k-index array."""
    k = T.k
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if len(vecs) != k:
        raise ValueError(f"{k}-slot tensor needs {k} vectors, got {len(vecs)}")
    sub = list(_LETTERS[: 2 * k])
    operands = [T.data]
    pieces = ["".join(sub)]
    for l, v in enumerate(vecs):
        if v.shape[0] != T.slot_dims[l]:
            raise ValueError(
                f"vector {l} has length {v.shape[0]}, slot needs {T.slot_dims[l]}"
            )
        operands.append(v)
        pieces.append(sub[2 * l + 1])
    out_letters = "".join(sub[2 * l] for l in range(k))
    return np.einsum(",".join(pieces) + "->" + out_letters, *operands)


def conjugate_slots(T: OperatorTensor, mats) -> OperatorTensor:
    """Apply A_l to the up index and A_l^{-1} to the down index of slot l.

    This is how a tensor built from matrices M_l transforms when every
    M_l is replaced by A_l M_l A_l^{-1}. Near-singular A_l (condition
    above 1e12) triggers a warning; singular A_l raises.
    """
    k = T.k
    arrs = [as_square_matrix(A, f"slot {l} conjugator") for l, A in enumerate(mats)]
    if len(arrs) != k:
        raise ValueError(f"{k}-slot tensor needs {k} conjugators, got {len(arrs)}")
    data = T.data
    for l, A in enumerate(arrs):
        if A.shape[0] != T.slot_dims[l]:
            raise ValueError(
                f"conjugator {l} has dim {A.shape[0]}, slot needs {T.slot_dims[l]}"
            )
        kappa = float(np.linalg.cond(A))
        if not np.isfinite(kappa) or kappa > 1e12:
            warnings.warn(
                f"conjugator for slot {l} has condition {kappa:.3e}",
                RuntimeWarning,
                stacklevel=2,
            )
        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"conjugator for slot {l} is singular") from exc
        data = np.moveaxis(np.tensordot(A, data, axes=(1, 2 * l)), 0, 2 * l)
        data = np.moveaxis(np.tensordot(data, Ainv, axes=(2 * l + 1, 0)), -1, 2 * l + 1)
    return OperatorTensor(data)
