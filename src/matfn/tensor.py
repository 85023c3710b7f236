"""Operator tensors T[i1, j1, ..., ik, jk], one (up, down) index pair per 0-based slot.

Axis 2l of ``.data`` is slot l's up index and axis 2l+1 its down index; ``as_matrix``
(up indices first) is an algebra isomorphism. A tensor is a contraction network:
operands, their einsum subscripts and one (up, down) letter pair per slot.
Contractions edit subscripts and append operands; ``.data`` materialises it once.
"""

from __future__ import annotations

import functools
import math
import string
import warnings

import numpy as np

from .errors import MatfnError
from .scalarfield import MultiPoly
from .spectral import as_slot_matrices, as_square_matrix

_LETTERS = string.ascii_letters


@functools.lru_cache(maxsize=1024)
def _plan(spec: str, shapes: tuple) -> list:
    """The pairwise steps of ``spec`` on operands of these shapes, as einsum calls.

    Plain "greedy" caps intermediates at the largest operand or output; where no pair
    fits, numpy joins the rest in one loop over all their indices (0.24 s, not 0.12 ms,
    for a wedge at k = 3, d = 5): hence a 2**22 floor, and a :class:`MatfnError` naming
    the size of such a loop past it (minutes for a wedge at k = 3, d = 13)."""
    ins, out = spec.split("->")
    subs = ins.split(",")
    sizes = dict(zip("".join(subs), (n for shape in shapes for n in shape)))
    limit = max([2**22, math.prod(sizes[c] for c in out)] + [math.prod(s) for s in shapes])
    views = [np.broadcast_to(np.complex128(0), shape) for shape in shapes]
    steps = []
    for inds in np.einsum_path(spec, *views, optimize=("greedy", limit))[0][1:]:
        inds = sorted(inds, reverse=True)
        taken = [subs.pop(i) for i in inds]
        loop = math.prod(sizes[c] for c in set("".join(taken)))
        if len(taken) > 2 and loop > limit:
            raise MatfnError(f"contracting {spec} needs one loop over {loop:.3g} index "
                             f"combinations: no pairwise step stays within {limit:.3g} entries")
        rest = "".join(subs) + out
        kept = "".join(dict.fromkeys(c for c in "".join(taken) if c in rest)) if subs else out
        subs.append(kept)
        # numpy's own loop beats its matmul route below about 8,000 multiply-adds
        steps.append((inds, ",".join(taken) + "->" + kept, loop > 8192))
    return steps


def _contract(operands, subs, out: str) -> np.ndarray:
    """``einsum(subs -> out, *operands)`` along a memoised contraction path."""
    ops = list(operands)
    for inds, step, big in _plan(",".join(subs) + "->" + out, tuple(a.shape for a in ops)):
        taken = [ops.pop(i) for i in inds]
        path = big and ["einsum_path", tuple(range(len(taken)))]
        ops.append(np.einsum(step, *taken, optimize=path))
    return ops[0]


class OperatorTensor:
    """Immutable tensor with paired slot indices, held as a contraction network."""

    __slots__ = ("_operands", "_subs", "_out", "_dense")

    def __init__(self, data):
        arr = np.array(data, dtype=complex)
        if arr.ndim == 0 or arr.ndim % 2 != 0 or arr.shape[::2] != arr.shape[1::2]:
            raise ValueError(f"operator tensors need an even number of axes, paired "
                             f"(up, down) with equal sizes, got shape {arr.shape}")
        arr.setflags(write=False)
        pairs = _pairs(arr.ndim // 2)
        _network((arr,), ("".join(pairs),), pairs, arr, self)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorTensor is immutable")

    @property
    def data(self) -> np.ndarray:
        """The dense tensor: evaluated on first read, then cached read-only."""
        if self._dense is None:
            arr = _contract(self._operands, self._subs, "".join(self._out))
            arr.setflags(write=False)
            object.__setattr__(self, "_dense", arr)
        return self._dense

    @property
    def k(self) -> int:
        return len(self._out)

    @property
    def slot_dims(self) -> tuple[int, ...]:
        return tuple(self._dim(l) for l in range(self.k))

    def _dim(self, slot: int) -> int:
        """The size of ``slot``, read off the operand that carries its up letter."""
        up = self._out[slot][0]
        return next(a.shape[s.index(up)] for a, s in zip(self._operands, self._subs) if up in s)

    def _parts(self, fresh: int = 0):
        """(operands, subscripts, ``fresh`` free letters), dense once read or short of letters."""
        ops, subs = self._operands, self._subs
        if self._dense is None and not fresh:
            return ops, subs, []
        used = set("".join(subs))
        if self._dense is not None or len(used) + fresh > len(_LETTERS):
            ops, subs = (self.data,), ("".join(self._out),)
            used = set(subs[0])
        return ops, subs, [c for c in _LETTERS if c not in used][:fresh]

    def as_matrix(self) -> np.ndarray:
        """The (prod d) x (prod d) matrix view, up indices first."""
        ops, subs, _ = self._parts()
        ups, downs = zip(*self._out)
        return _contract(ops, subs, "".join(ups + downs)).reshape(2 * (math.prod(self.slot_dims),))

    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __add__(self, other):
        ok = isinstance(other, OperatorTensor)
        return OperatorTensor(self.data + other.data) if ok else NotImplemented

    def __sub__(self, other):
        ok = isinstance(other, OperatorTensor)
        return OperatorTensor(self.data - other.data) if ok else NotImplemented

    def __mul__(self, scalar):
        ok = isinstance(scalar, (int, float, complex))
        return OperatorTensor(self.data * scalar) if ok else NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return OperatorTensor(-self.data)

    def __repr__(self):
        return f"OperatorTensor(slot_dims={self.slot_dims})"


def _network(operands, subs, out, dense=None, T=None) -> OperatorTensor:
    """The tensor ``einsum(subs -> out, *operands)``; no operand may change later."""
    T = object.__new__(OperatorTensor) if T is None else T
    values = (tuple(operands), tuple(subs), tuple(out), dense)
    for name, value in zip(OperatorTensor.__slots__, values):
        object.__setattr__(T, name, value)
    return T


def _pairs(k: int) -> list[str]:
    return [_LETTERS[2 * l : 2 * l + 2] for l in range(k)]


def from_matrix(mat, slot_dims) -> OperatorTensor:
    """Inverse of :meth:`OperatorTensor.as_matrix` for given slot sizes."""
    dims = tuple(int(d) for d in slot_dims)
    arr = np.asarray(mat, dtype=complex)
    if arr.shape != (math.prod(dims),) * 2:
        raise ValueError(f"matrix shape {arr.shape} does not match slot dims {dims}")
    perm = np.arange(2 * len(dims)).reshape(2, -1).T.ravel()  # (up, down) of each slot
    return OperatorTensor(np.transpose(arr.reshape(dims + dims), perm))


def tensor_product(mats) -> OperatorTensor:
    """M_1 (x) ... (x) M_k as an operator tensor."""
    arrs = [as_square_matrix(M, f"slot {l} matrix").copy() for l, M in enumerate(mats)]
    return _network(arrs, _pairs(len(arrs)), _pairs(len(arrs)))


def _newton_stack(M: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """(N_0, ..., N_n), N_i = prod_{j<i} (M - z_j I) over the n centres, as one array."""
    d, n = M.shape[0], centres.size
    shifted = np.repeat(M[None], n, axis=0)
    shifted.reshape(n, d * d)[:, :: d + 1] -= centres[:, None]  # the factors M - z_j I
    stack = np.empty((n + 1, d, d), dtype=complex)
    stack[0] = np.eye(d)
    for i in range(n):
        np.matmul(stack[i], shifted[i], out=stack[i + 1])
    return stack


def poly_tensor_eval(poly: MultiPoly, mats) -> OperatorTensor:
    """sum_alpha c_alpha N_{1 a_1}(M_1) (x) ... (x) N_{k a_k}(M_k) from ``poly.dense``.

    N_{l a}(M) = prod_{j<a} (M - z_{lj} I) over the polynomial's centres for
    variable l; all of them 0, this is the power M^a. One stack is built
    per distinct matrix and centre sequence.
    """
    arrs = as_slot_matrices(mats)
    if poly.arity != len(arrs):
        raise ValueError(f"polynomial in {poly.arity} variables but {len(arrs)} matrices given")
    C, k = poly.dense, len(arrs)
    stacks, factors = {}, []
    for M, z in zip(arrs, poly.centres):
        key = (M.tobytes(), z.tobytes())
        if key not in stacks:
            stacks[key] = _newton_stack(M, z)
        factors.append(stacks[key])
    if not 0 < 3 * k <= len(_LETTERS):  # no slots, or more indices than einsum has letters
        for S in factors:
            C = np.tensordot(C, S, axes=(0, 0))
        return OperatorTensor(C)
    exps = _LETTERS[2 * k : 3 * k]
    subs = [exps] + [e + pair for e, pair in zip(exps, _pairs(k))]
    return _network([C] + factors, subs, _pairs(k))


def _eigenbasis_network(values, frames, inverses) -> OperatorTensor:
    """sum_m values[m] (x)_l V_l[:, m_l] W_l[m_l, :] as the lazy network (values, V_l, W_l).

    The eigenbasis routes' format: f at the eigenvalue tuples, each slot's frame and its
    inverse, contracted on the first ``.data`` along the path :func:`_plan` memoises. With more
    indices (3k) than einsum has letters, it is dense, built slot by slot.
    """
    k = len(frames)
    if 3 * k > len(_LETTERS):
        for V, W in zip(frames, inverses):
            values = np.tensordot(values, np.einsum("im,mj->mij", V, W), axes=(0, 0))
        return OperatorTensor(values)
    ms, pairs = _LETTERS[2 * k : 3 * k], _pairs(k)
    subs = [ms] + [up + m for m, (up, _) in zip(ms, pairs)]
    subs += [m + down for m, (_, down) in zip(ms, pairs)]
    return _network([values, *frames, *inverses], subs, pairs)


def _check_slot(T: OperatorTensor, slot: int):
    if not 0 <= slot < T.k:
        raise ValueError(f"slot {slot} out of range for a {T.k}-slot tensor")


def _edited(T: OperatorTensor, out, rename="", operands=(), subs=()):
    """T's network read out as ``out``, ``rename`` = (old, new) summing old against new."""
    ops, mine, _ = T._parts()
    mine = [s.replace(*rename) for s in mine] if rename else list(mine)
    ops, mine = ops + tuple(operands), mine + list(subs)
    return _network(ops, mine, out) if out else complex(_contract(ops, mine, ""))


def transpose_slot(T: OperatorTensor, slot: int) -> OperatorTensor:
    """Swap the up and down index of one slot."""
    _check_slot(T, slot)
    return _edited(T, T._out[:slot] + (T._out[slot][::-1],) + T._out[slot + 1 :])


def contract_pair(T: OperatorTensor, up_slot: int, down_slot: int):
    """Sum the up index of one slot against the down index of another.

    The survivors (up of ``down_slot``, down of ``up_slot``) form one slot at
    ``min(up_slot, down_slot)``; equal slots give the slot trace, a complex
    number at 0 slots. ``contract_pair(T, 1, 0)`` on M (x) N yields MN."""
    _check_slot(T, up_slot)
    _check_slot(T, down_slot)
    if up_slot == down_slot:
        return trace_slot(T, up_slot)
    p, q = up_slot, down_slot
    if T._dim(p) != T._dim(q):
        raise ValueError(f"cannot contract slot {p} (dim {T._dim(p)}) with "
                         f"slot {q} (dim {T._dim(q)})")
    out = list(T._out)
    out[min(p, q)] = out[q][0] + out[p][1]  # (surviving up, surviving down)
    del out[max(p, q)]
    return _edited(T, out, (T._out[q][1], T._out[p][0]))


def trace_slot(T: OperatorTensor, slot: int):
    """Sum the paired indices of one slot; drops that slot."""
    _check_slot(T, slot)
    return _edited(T, T._out[:slot] + T._out[slot + 1 :], T._out[slot][::-1])


def contract_adjacent_through(T: OperatorTensor, left_slot: int, H) -> OperatorTensor:
    """T[..., (i, a), (b, j), ...] H[a, b] -> S[..., (i, j), ...] at ``left_slot``.

    This feeds a direction matrix between two copies of one argument slot."""
    if not 0 <= left_slot < T.k - 1:
        raise ValueError(f"left_slot {left_slot} needs a following slot in a {T.k}-slot tensor")
    p, Hm = left_slot, as_square_matrix(H, "through matrix")
    if T._dim(p) != Hm.shape[0] or T._dim(p + 1) != Hm.shape[0]:
        raise ValueError(f"through matrix of dim {Hm.shape[0]} does not fit slots of dims "
                         f"{T._dim(p)} and {T._dim(p + 1)}")
    (up, a), (b, down) = T._out[p : p + 2]
    return _edited(T, T._out[:p] + (up + down,) + T._out[p + 2 :], "", [Hm.copy()], [a + b])


def apply_vectors(T: OperatorTensor, vectors) -> np.ndarray:
    """Contract every down index with a vector; returns a k-index array."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if tuple(len(v) for v in vecs) != T.slot_dims:
        raise ValueError(f"vectors of lengths {[len(v) for v in vecs]} "
                         f"for slots of dims {T.slot_dims}")
    ops, subs, _ = T._parts()
    ups, downs = zip(*T._out)
    return _contract(ops + tuple(vecs), subs + downs, "".join(ups))


def _sandwich(T: OperatorTensor, B: np.ndarray) -> np.ndarray:
    """B^H T B, T in its matrix view, as one contraction; B has prod(slot_dims) rows."""
    ops, subs, (r, c) = T._parts(2)
    ups, downs = ("".join(letters) for letters in zip(*T._out))
    Bt = B.reshape(T.slot_dims + B.shape[1:])
    return _contract(ops + (Bt.conj(), Bt), subs + (ups + r, downs + c), r + c)


def conjugate_slots(T: OperatorTensor, mats) -> OperatorTensor:
    """A_l on the up and A_l^{-1} on the down index of slot l: M_l -> A_l M_l A_l^{-1}.

    A condition of A_l above 1e12 warns; a singular A_l raises, before any warning."""
    arrs = [as_square_matrix(A, f"slot {l} conjugator") for l, A in enumerate(mats)]
    if tuple(len(A) for A in arrs) != T.slot_dims:
        raise ValueError(f"conjugators of dims {[len(A) for A in arrs]} "
                         f"for slots of dims {T.slot_dims}")
    invs = []
    for l, A in enumerate(arrs):  # every slot is inverted before any condition warns
        try:
            invs.append(np.linalg.inv(A))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"conjugator for slot {l} is singular") from exc
    ops, subs, fresh = T._parts(2 * T.k)
    out = []
    for l, (A, Ainv) in enumerate(zip(arrs, invs)):
        kappa = float(np.linalg.cond(A))
        if not np.isfinite(kappa) or kappa > 1e12:
            warnings.warn(f"conjugator for slot {l} has condition {kappa:.3e}", RuntimeWarning,
                          stacklevel=2)
        (up, down), new_up, new_down = T._out[l], fresh[2 * l], fresh[2 * l + 1]
        ops += (A.copy(), Ainv)
        subs += (new_up + up, down + new_down)
        out.append(new_up + new_down)
    return _network(ops, subs, out)
