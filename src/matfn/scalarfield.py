"""Expression trees for scalar functions of several complex variables.

A :class:`ScalarField` is an arity together with an immutable expression
tree. Fields evaluate elementwise over numpy arrays of points that
broadcast against each other, in one walk of the tree; a point of C^k is
walked as one-entry arrays (not 0-d ones, whose numpy-scalar results
round differently), so point and array calls agree to the bit. The same
walk can carry truncated Taylor series (jets) instead of values, which
is how derivative grids get their derivatives, or lower-triangular
matrices, which is how every divided difference is taken.
``ScalarField.partial`` differentiates symbolically, closed on the node
set, so mixed partial derivatives of any order stay representable as
fields. Besides the rational operations, integer
powers, exp and log, the tree supports divided differences of another
field in one of its slots (closed under differentiation through the
node-repetition rule) and the kernel functions used by the eigenprojector
perturbation series. Two evaluation-only builtins, ``abs`` and a clipped
minimum, exist for the piecewise tests and refuse differentiation.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldDomainError, FieldParseError

#: Nodes closer than this (relative, see :func:`confluent`) count as one node.
CONFLUENCE_TOL = 1e-10


def confluent(a, b, floor=1.0):
    """Whether nodes ``a`` and ``b`` count as one node, elementwise on arrays.

    The rule is |a - b| <= CONFLUENCE_TOL * max(floor, |a|, |b|), spelt
    out without ``max`` so that scalars stay Python scalars: relative above
    magnitude ``floor``, absolute below it. The projector kernel asks it
    with floor 1 to refuse an argument that nearly hits its anchor; the
    interpolation basis is unchanged by scaling its nodes, so
    :func:`~matfn.interp.hermite_basis` asks with a smaller floor.
    """
    gap = abs(a - b)
    return (gap <= CONFLUENCE_TOL * floor) | (gap <= CONFLUENCE_TOL * abs(a)) | (
        gap <= CONFLUENCE_TOL * abs(b)
    )


class Node:
    __slots__ = ()


#: Every node type is a frozen, slotted dataclass: equality and hash by value.
_node = dataclass(frozen=True, slots=True)


@_node
class Const(Node):
    value: complex


@_node
class Var(Node):
    index: int


@_node
class Add(Node):
    lhs: Node
    rhs: Node


@_node
class Sub(Node):
    lhs: Node
    rhs: Node


@_node
class Mul(Node):
    lhs: Node
    rhs: Node


@_node
class Div(Node):
    lhs: Node
    rhs: Node


@_node
class Neg(Node):
    arg: Node


@_node
class Pow(Node):
    base: Node
    exponent: int


@_node
class Exp(Node):
    arg: Node


@_node
class Log(Node):
    arg: Node


@_node
class AbsVal(Node):
    """|z| as a real number. Evaluation only; has no derivative node."""

    arg: Node


@_node
class MinConst(Node):
    """min(Re z, c) for a real constant c. Evaluation only.

    Arguments with a meaningful imaginary part are rejected instead of
    silently projected, since the comparison has no complex meaning.
    """

    arg: Node
    bound: float


@_node
class SlotDividedDifference(Node):
    """Divided difference of ``base`` taken in one of its variables.

    ``base`` has ``base_arity`` variables. Variable ``slot`` of the base is
    replaced by ``len(mults)`` node variables, inserted at the same
    position, so the surrounding field has arity
    ``base_arity - 1 + len(mults)``. Node variable ``t`` enters the
    difference ``mults[t]`` times. Repetitions are what make the
    node closed under differentiation: d/dy_t multiplies by ``mults[t]``
    and bumps that multiplicity by one.
    """

    base: Node
    base_arity: int
    slot: int
    mults: tuple[int, ...]


@_node
class ProjKernel(Node):
    """The coefficient function of the eigenprojector perturbation series.

    Symmetric in its ``order + 1`` arguments: the divided difference over
    them of the indicator of ``anchor``. With ``m`` of them equal to
    ``anchor`` and the rest z_h distinct from it, the value is the
    (m-1)-st Taylor coefficient of prod_h 1/(z - z_h) at ``anchor``; with
    m = 0 the value is 0. Evaluation only.
    """

    anchor: complex
    order: int


# ---------------------------------------------------------------------------
# smart constructors (conservative simplification)


def _const(v) -> Const:
    return Const(complex(v))


_ZERO = _const(0.0)
_ONE = _const(1.0)


def _is_const(n: Node, v=None) -> bool:
    if not isinstance(n, Const):
        return False
    return True if v is None else n.value == complex(v)


def _add(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return _neg(b)
    if a == b:
        return _ZERO
    return Sub(a, b)


def _neg(a: Node) -> Node:
    if isinstance(a, Const):
        return _const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def _div(a: Node, b: Node) -> Node:
    # No 0/x fold: it would erase a potential 0/0 domain error.
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return _const(a.value / b.value)
    if _is_const(b, 1):
        return a
    return Div(a, b)


def _pow(a: Node, n: int) -> Node:
    if n == 0:
        return _ONE
    if n == 1:
        return a
    if isinstance(a, Const) and not (a.value == 0 and n < 0):
        return _const(a.value**n)
    return Pow(a, n)


# ---------------------------------------------------------------------------
# the grammar: one table of binary operators for parsing, rendering and rebuilding

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

#: node class -> (text symbol, precedence, smart constructor); all left-associative
_BINARY = {
    Add: ("+", _PREC_ADD, _add),
    Sub: ("-", _PREC_ADD, _sub),
    Mul: ("*", _PREC_MUL, _mul),
    Div: ("/", _PREC_MUL, _div),
}

#: one-argument builtins written name(arg); ``abs`` is evaluation-only and not parsed
_CALLS = {Exp: "exp", Log: "log", AbsVal: "abs"}


# ---------------------------------------------------------------------------
# evaluation, of values and of Taylor jets


def _evaluate(node: Node, point: tuple, memo: dict, box=None):
    """Values of ``node`` over the broadcast of the arrays in ``point``.

    ``point`` holds one complex array per variable (a subtree without
    variables gives a scalar); callers silence numpy's floating-point
    warnings, see :func:`_evaluate_on`. ``memo`` maps ``id(node)`` to the
    values already computed in this call: trees share subtrees, and
    keying on node equality would hash whole subtrees. Domain violations
    raise :class:`FieldDomainError` naming the first offending point.

    With a ``box`` the same walk carries Taylor jets (:class:`_Box`) or
    lower-triangular matrices (:class:`_Opitz`) in place of every value
    that depends on a variable. Each node computes the value's head,
    coefficient 0 or the diagonal, with the numpy operation of the plain
    walk and runs its domain checks on it; only then does it extend the
    value. The evaluation-only nodes refuse a jet box.
    """
    t = type(node)
    if t is Const:
        return node.value
    if t is Var:
        x = point[node.index]
        return x if box is None else box.seed(x, node.index)
    if t is ProjKernel:
        _plain_only(node, box)
        v = _proj_kernel(node, point)
        return v if box is None else box.parlett(v, node)
    key = id(node)
    v = memo.get(key)
    if v is not None:
        return v
    if t is Add or t is Sub:
        a = _evaluate(node.lhs, point, memo, box)
        b = _evaluate(node.rhs, point, memo, box)
        if box is not None and _is_jet(a) != _is_jet(b):
            a, b = box.lift(a), box.lift(b)  # a constant moves coefficient 0 only
        v = a + b if t is Add else a - b
    elif t is Mul:
        a = _evaluate(node.lhs, point, memo, box)
        b = _evaluate(node.rhs, point, memo, box)
        v = box.mul(a, b) if box is not None and _is_jet(a) and _is_jet(b) else a * b
    elif t is Div:
        num = _evaluate(node.lhs, point, memo, box)
        den = _evaluate(node.rhs, point, memo, box)
        jet, den0 = _split(den, box)
        _check(den0 == 0, point, "division by zero", node)
        v = box.div(num, den) if jet else num / den
    elif t is Neg:
        v = -_evaluate(node.arg, point, memo, box)
    elif t is Pow:
        base = _evaluate(node.base, point, memo, box)
        jet, b0 = _split(base, box)
        if node.exponent < 0:
            _check(b0 == 0, point, "zero raised to negative power", node)
        v = b0**node.exponent
        if not np.isfinite(v).all():
            _check(~np.isfinite(v) & np.isfinite(b0), point, "power overflow", node)
        if jet:
            v = box.power(base, node.exponent, v)
    elif t is Exp:
        arg = _evaluate(node.arg, point, memo, box)
        jet, a0 = _split(arg, box)
        v = np.exp(a0)
        if not np.isfinite(v).all():
            _check(~np.isfinite(v) & np.isfinite(a0), point, "exp overflow", node)
        if jet:
            v = box.exp(arg, v)
    elif t is Log:
        arg = _evaluate(node.arg, point, memo, box)
        jet, a0 = _split(arg, box)
        _check(a0 == 0, point, "log of zero", node)
        v = np.log(a0)
        if jet:
            v = box.log(arg, v)
    elif t is SlotDividedDifference:
        v = _slot_dd(node, point, box)
    elif t is AbsVal or t is MinConst:
        _plain_only(node, box)
        z = _evaluate(node.arg, point, memo if box is None else {})  # on an Opitz diagonal
        if t is AbsVal:
            v = np.abs(z) + 0j
        else:
            bad = abs(z.imag) > 1e-9 * (1.0 + abs(z))
            _check(bad, point, "min builtin applied to a non-real value", node)
            v = np.minimum(z.real, node.bound) + 0j
        if box is not None:
            v = box.parlett(v, node)
    else:
        raise TypeError(f"unknown node type {type(node).__name__}")
    memo[key] = v
    return v


def _is_jet(v) -> bool:
    """In a walk with a box, whether ``v`` is a jet rather than a constant."""
    return type(v) is np.ndarray


def _split(v, box):
    """Whether ``v`` is a jet, and its head (:func:`_evaluate`); ``v`` itself in a plain walk."""
    jet = box is not None and _is_jet(v)
    return jet, (box.head(v) if jet else v)


def _no_derivative(node: Node) -> FieldDomainError:
    if isinstance(node, ProjKernel):
        return FieldDomainError("the projector kernel is evaluation-only and has no derivative")
    return FieldDomainError(
        f"{type(node).__name__} is an evaluation-only builtin and has no derivative"
    )


def _plain_only(node: Node, box):
    if isinstance(box, _Box):
        raise _no_derivative(node)


def _check(bad, point: tuple, what: str, node: Node):
    """Raise :class:`FieldDomainError` where ``bad``, an array or a bool, first holds."""
    if bad is False or (bad is not True and not bad.any()):
        return
    shape = np.broadcast_shapes(np.shape(bad), *(np.shape(p) for p in point))
    at = np.unravel_index(int(np.argmax(np.broadcast_to(bad, shape))), shape)
    where = tuple(complex(np.broadcast_to(p, shape)[at]) for p in point)
    raise FieldDomainError(f"{what} in {render(node)} at point {where}")


def _evaluate_on(root: Node, point) -> np.ndarray:
    """Values of ``root`` over the broadcast of the arrays in ``point``."""
    shape = np.broadcast_shapes(*(p.shape for p in point))
    with np.errstate(all="ignore"):
        v = _evaluate(root, tuple(point), {})
    # a fresh array of the full shape; a bare variable would be an input
    if type(v) is np.ndarray and v.shape == shape and all(v is not p for p in point):
        return v
    return np.full(shape, v, dtype=complex)


def _jets_on(root: Node, point, orders: tuple) -> np.ndarray:
    """Taylor jets of ``root`` over the broadcast of the arrays in ``point``.

    ``orders`` holds one order per variable; the result has the broadcast
    shape plus one trailing axis of prod(orders) coefficients, the box in
    C order (see :class:`_Box`). Where every order is 1 that axis holds
    the plain values.
    """
    if max(orders, default=1) == 1:
        return _evaluate_on(root, point)[..., None]
    box = _box(orders)
    shape = np.broadcast_shapes(*(p.shape for p in point)) + (box.size,)
    with np.errstate(all="ignore"):
        v = _evaluate(root, tuple(point), {}, box)
    # every jet is built by the walk, so a full-shaped one is fresh
    if _is_jet(v) and v.shape == shape:
        return v
    return np.broadcast_to(box.lift(v), shape).copy()


class _Box:
    """Index tables of truncated Taylor series in ``len(orders)`` variables.

    The jet of f at a point holds its Taylor coefficients d^j f / j! for
    the multi-indices j < ``orders`` (componentwise), flattened in C order
    along one axis of ``size`` entries; entry 0 is the value. A product
    is the truncated convolution: entry n sums a_i b_j over the pairs
    i + j = n, and reads no entry above n. Division, exp, log and
    negative integer powers use the standard recurrences (Griewank &
    Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13) with
    the total degree |n| in the role of the order: every entry of degree
    d is a sum over pairs with i != 0, whose j are of lower degree, so
    one shell of entries is solved at a time. In one variable these are
    the textbook recurrences; positive powers are repeated products.
    """

    def __init__(self, orders: tuple):
        self.orders = orders
        strides = np.cumprod((1,) + orders[:0:-1])[::-1]
        self.size = int(np.prod(orders))
        self.unit = [int(s) if r > 1 else None for r, s in zip(orders, strides)]
        # every pair i + j = n inside the box, in order of n
        i = j = np.zeros(1, dtype=int)
        for r, s in zip(orders, strides):
            il, jl = np.nonzero(np.add.outer(np.arange(r), np.arange(r)) < r)
            i, j = (i[:, None] + s * il).ravel(), (j[:, None] + s * jl).ravel()
        by_n = np.argsort(i + j, kind="stable")
        self.i, self.j = i[by_n], j[by_n]
        n = self.i + self.j
        self.starts = np.flatnonzero(np.diff(n, prepend=-1))
        degree = np.indices(orders).reshape(len(orders), -1).sum(axis=0)
        self.degree = degree.astype(float)
        # per degree d: its entries, and their pairs with i != 0 (and where each n starts)
        self.shells = []
        one_variable = sum(r > 1 for r in orders) == 1
        for d in range(1, int(degree.max()) + 1):
            if one_variable:  # entry d and its pairs (1, d-1) .. (d, 0), as slices
                self.shells.append((slice(d, d + 1), slice(1, d + 1), slice(d - 1, None, -1), None))
                continue
            keep = (degree[n] == d) & (self.i != 0)
            starts = np.flatnonzero(np.diff(n[keep], prepend=-1))
            self.shells.append((np.flatnonzero(degree == d), self.i[keep], self.j[keep], starts))

    def head(self, v):
        return v[..., 0]

    def seed(self, x, var: int) -> np.ndarray:
        """The jet of variable ``var`` at the values ``x``."""
        v = np.zeros(x.shape + (self.size,), dtype=complex)
        v[..., 0] = x
        if self.unit[var] is not None:
            v[..., self.unit[var]] = 1.0
        return v

    def lift(self, v):
        """``v`` as a jet: a constant has coefficient 0 only."""
        if _is_jet(v):
            return v
        c = np.zeros(self.size, dtype=complex)
        c[0] = v
        return c

    def mul(self, a, b):
        return _conv(a, b, self.i, self.j, self.starts)

    def _shells(self, v0, step):
        """The jet whose coefficient 0 is ``v0`` and whose shells ``step`` gives in turn."""
        v = np.empty(np.shape(v0) + (self.size,), dtype=complex)
        v[..., 0] = v0
        for at, i, j, starts in self.shells:
            v[..., at] = step(v, at, i, j, starts)
        return v

    def div(self, a, b):
        """a / b: b q = a, so b_0 q_n = a_n - sum b_i q_j."""
        a, b0 = self.lift(a), b[..., :1]
        return self._shells(
            a[..., 0] / b[..., 0],
            lambda q, at, i, j, s: (a[..., at] - _conv(b, q, i, j, s)) / b0,
        )

    def exp(self, a, e0):
        """exp(a) from e0 = exp(a_0): |n| e_n = sum |i| a_i e_j."""
        deg = self.degree
        da = a * deg
        return self._shells(e0, lambda e, at, i, j, s: _conv(da, e, i, j, s) / deg[at])

    def log(self, a, l0):
        """log(a) from l0 = log(a_0): a_0 |n| l_n = |n| a_n - sum a_i |j| l_j."""
        a0, deg = a[..., :1], self.degree
        return self._shells(
            l0,
            lambda l, at, i, j, s: (a[..., at] - _conv(a, l * deg, i, j, s) / deg[at]) / a0,
        )

    def power(self, a, r: int, p0):
        """a^r with coefficient 0 ``p0`` as the plain walk computes it."""
        if r < 0:  # a_0 |n| p_n = sum (r |i| - |j|) a_i p_j; a_0 != 0 is checked
            a0, deg = a[..., :1], self.degree
            ra = a * (r * deg)
            return self._shells(
                p0,
                lambda p, at, i, j, s: (_conv(ra, p, i, j, s) - _conv(a, p * deg, i, j, s))
                / (deg[at] * a0),
            )
        p = a if r else np.zeros_like(a)
        for bit in bin(r)[3:]:  # left to right: square, then multiply where the bit is set
            p = self.mul(p, p)
            if bit == "1":
                p = self.mul(p, a)
        p = p.copy() if p is a else p
        p[..., 0] = p0
        return p


def _conv(a, b, i, j, starts):
    """The sums of a_i b_j over the pairs (i, j) of each entry: in runs from ``starts``, or all."""
    prods = a[..., i] * b[..., j]
    if starts is None:
        return prods.sum(axis=-1, keepdims=True)
    return np.add.reduceat(prods, starts, axis=-1)


@lru_cache(maxsize=64)
def _box(orders: tuple) -> _Box:
    return _Box(orders)


def _slot_dd(node: SlotDividedDifference, point: tuple, box):
    """Values, jets or matrices of a divided difference in one slot.

    A value is block (last, first) of the base at the node variables'
    values (:func:`_dd_walk`); plain values are 1 x 1 blocks, and in an
    :class:`_Opitz` walk the blocks are its matrices. With a jet ``box``,
    d/dy_t bumps the multiplicity, as in :func:`_diff_slot_dd`: the
    coefficient of order j_t in node variable y_t is C(mults[t] + j_t - 1,
    j_t) times the difference with y_t entered mults[t] + j_t times. The
    multisets of one length (:func:`_bumps`) are one walk, whose blocks are
    Kronecker products over the other variables' orders r_o: other
    variable x_o is x_o I plus the shift of its own factor, so that column
    0 holds the differences of every Taylor coefficient in them at once.
    """
    lo, hi = node.slot, node.slot + len(node.mults)
    if not isinstance(box, _Box):
        vals = [x[..., None, None] if box is None else box.seed(x, v) for v, x in enumerate(point)]
        nodes = [vals[lo + y] for y in np.repeat(np.arange(len(node.mults)), node.mults)]
        F = _dd_walk(node.base, lo, nodes, vals[:lo] + vals[hi:])
        return F[..., 0, 0] if box is None else F
    cols = np.broadcast_arrays(*point)
    shape = cols[0].shape
    other, own = box.orders[:lo] + box.orders[hi:], box.orders[lo:hi]
    R, eye = math.prod(other), np.eye(math.prod(other))
    xs = [c[..., None, None, None] * eye for c in cols[:lo] + cols[hi:]]  # (grid, multisets, R, R)
    for o, r in enumerate(other):
        xs[o] = xs[o] + np.kron(np.kron(np.eye(math.prod(other[:o])), np.eye(r, k=-1)),
                                np.eye(math.prod(other[o + 1 :])))
    ys = np.stack(cols[lo:hi], axis=-1)
    out = np.empty((R, math.prod(own)) + shape, dtype=complex)
    for ids, var, comb in _bumps(node.mults, own):
        nodes = [ys[..., var[:, p], None, None] * eye for p in range(var.shape[-1])]
        F = _dd_walk(node.base, lo, nodes, xs)[..., 0] * comb[:, None]  # (grid, multisets, R)
        out[:, ids] = np.moveaxis(F, (-1, -2), (0, 1))
    # (other, own, grid) -> (grid, the variables in their order), one flat box
    k, g, t = len(other), len(shape), hi - lo
    perm = [*range(k + t, k + t + g), *range(lo), *range(k, k + t), *range(lo, k)]
    return out.reshape(other + own + shape).transpose(perm).reshape(shape + (box.size,))


def _dd_walk(base: Node, slot: int, nodes: list, others: list) -> np.ndarray:
    """Block (last, first) of ``base`` at commuting (m, m) blocks: in variable ``slot`` the
    block lower-bidiagonal matrix with ``nodes`` on its diagonal and identities below, each
    other variable its block of ``others`` in every diagonal block (Opitz's identity, with
    blocks). With m = 1 the other variables are plain values."""
    size, m = len(nodes), nodes[0].shape[-1]
    shape = np.broadcast_shapes(*(v.shape[:-2] for v in nodes + others))

    def blocks(diagonal, below=0.0):
        out = np.zeros(shape + (size, m, size, m), dtype=complex)
        for p, v in enumerate(diagonal):
            out[..., p, :, p, :] = v
            if p:
                out[..., p, :, p - 1, :] = below * np.eye(m)
        return out.reshape(shape + (size * m,) * 2)

    mats = {slot: blocks(nodes, 1.0)}
    if m > 1:
        mats.update((v + (v >= slot), blocks([x] * size)) for v, x in enumerate(others))
    args = [np.diagonal(mats[v], 0, -2, -1) if v in mats else others[v - (v > slot)][..., 0]
            for v in range(len(others) + 1)]
    return _opitz_walk(base, args, mats, slot)[..., (size - 1) * m :, :m]


@lru_cache(maxsize=64)
def _bumps(mults: tuple, orders: tuple):
    """The bumped multisets of a divided difference, batched by their length.

    For the multi-indices js < ``orders`` of one length: their flat
    indices (C order), the node variables of each multiset (variable t
    entered mults[t] + js[t] times), and the factors prod_t
    C(mults[t] + js[t] - 1, js[t]).
    """
    batches = {}
    for i, js in enumerate(itertools.product(*map(range, orders))):
        var = np.repeat(np.arange(len(mults)), np.add(mults, js))
        comb = math.prod(math.comb(m + j - 1, j) for m, j in zip(mults, js))
        batches.setdefault(sum(js), []).append((i, var, float(comb)))
    return [tuple(map(np.array, zip(*batch))) for batch in batches.values()]


def _proj_kernel(node: ProjKernel, point: tuple):
    """The divided difference, over ``point``, of the anchor's indicator.

    In closed form, the residue at the anchor a of prod_h 1/(zeta - z_h):
    with m arguments equal to a and y_h = 1/(a - z_h) for the others,
    u = (-1)^(m-1) prod_h y_h h_{m-1}(y), where h_j is the complete
    homogeneous symmetric polynomial of degree j, and u = 0 when m = 0.
    The anchor test and the reciprocals run on each argument's own array;
    only the recurrence h_j <- h_j - y h_{j-1}, which builds h_j(-y) =
    (-1)^j h_j(y), and the choice of h_{m-1} run on the broadcast grid. No
    difference of two arguments is divided by, so arguments that repeat or
    nearly coincide away from the anchor cost no accuracy. An argument
    :func:`confluent` with the anchor but not equal to it is refused.
    """
    lam = node.anchor
    bad = [confluent(z, lam) & (z != lam) for z in point]
    if any(b.any() for b in bad):
        nodes = np.stack(np.broadcast_arrays(*point), axis=-1)
        z = complex(nodes[np.stack(np.broadcast_arrays(*bad), axis=-1)][0])
        raise FieldDomainError(
            f"kernel argument {z} is confluent with the anchor {lam} "
            "but not equal to it; ambiguous confluence"
        )
    m, prod = 0, 1.0
    h = [1.0] + [0.0] * node.order  # h_j(-y) over the arguments so far
    for z in point:
        at = z == lam
        y = np.where(at, 0.0, 1.0 / (lam - z))  # the 1/0 at the anchor is discarded
        m = m + at
        prod = prod * np.where(at, 1.0, y)
        for j in range(1, node.order + 1):
            h[j] = h[j] - y * h[j - 1]
    u = 0j
    for j, hj in enumerate(h):
        u = np.where(m == j + 1, hj, u)
    return prod * u


# ---------------------------------------------------------------------------
# divided differences: walks on Opitz matrices


class _Opitz:
    """The walk's values as stacks of commuting lower-triangular (m, m) matrices.

    At the Opitz matrix Z, the nodes x_0..x_(m-1) on its diagonal and ones
    below it, f(Z)[i, j] = f[x_j, ..., x_i], repeated nodes allowed (Opitz,
    "Steigungsmatrizen", ZAMM 44, 1964). ``mats`` maps variables to their
    matrices, any other variable x is x I; the walk's point holds each
    variable's diagonal (m entries or 1), the head of its value. Quotients
    are triangular solves, exp and log (inverse) scaling and squaring
    (Higham, *Functions of Matrices*, SIAM 2008, ch. 6, 10, 11): no step
    divides by a difference of nodes but the Parlett recurrence of the
    evaluation-only nodes, on variable ``walked``, which refuses confluent ones.
    """

    def __init__(self, mats: dict, walked: int):
        self.mats, self.walked = mats, walked
        self.m = mats[walked].shape[-1]
        self.eye = np.eye(self.m)

    def head(self, v):
        return np.diagonal(v, axis1=-2, axis2=-1)

    def seed(self, x, var: int):
        v = self.mats.get(var)
        return x[..., None] * self.eye if v is None else v

    def lift(self, v):
        return v if _is_jet(v) else v * self.eye

    mul = staticmethod(np.matmul)

    def div(self, a, b):
        """a / b = b^-1 a by forward substitution, dividing by b's diagonal only."""
        a = self.lift(a)
        q = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
        for i in range(self.m):
            rest = (b[..., i : i + 1, :i] @ q[..., :i, :])[..., 0, :]
            q[..., i, :] = (a[..., i, :] - rest) / b[..., i, i, None]
        return q

    def exp(self, a, e0):
        """exp(a): Taylor to degree m + 15 at a / 2^s, then s squares with exact diagonals."""
        s = np.maximum(np.frexp(_norm1(a))[1] + 1, 0)  # ||a / 2^s||_1 < 1/2
        y, d = a * np.ldexp(1.0, -s)[..., None, None], self.head(a)
        e, term = self.eye + y, y
        for k in range(2, self.m + 16):
            term = term @ y / k
            e = e + term
        for j in reversed(range(int(s.max(initial=0)))):
            e = np.where((s > j)[..., None, None], _with_head(e @ e, np.exp(d * 0.5**j)), e)
        return _with_head(e, e0)

    def log(self, a, l0):
        """log(a) = 2^(k+1) atanh((r - I)(r + I)^-1), r = a^(1/2^k) within 1/4 of I."""
        r, z = a, self.head(a) - 1.0  # z: the diagonal of r - I, without cancellation
        k = np.zeros(np.shape(z)[:-1], dtype=int)
        for _ in range(64):
            more = _norm1(_with_head(r - self.eye, z)) > 0.25
            if not more.any():
                break
            root = _with_head(np.zeros(r.shape), np.sqrt(self.head(r)))  # Björck–Hammarling
            root = _by_bands(root, lambda i, j, q: (
                r[..., i, j] - (root[..., i[:, None], q] * root[..., q, j[:, None]]).sum(-1)
            ) / (root[..., i, i] + root[..., j, j]))
            r = np.where(more[..., None, None], root, r)
            z = np.where(more[..., None], z / (1.0 + self.head(root)), z)
            k = k + more
        y = self.div(_with_head(r - self.eye, z), _with_head(r + self.eye, 2.0 + z))
        total, term, y2 = y, y, y @ y
        for j in range(1, (self.m + 21) // 2):
            term = term @ y2
            total = total + term / (2 * j + 1)
        return _with_head(np.ldexp(2.0, k)[..., None, None] * total, l0)

    def power(self, a, r: int, p0):
        """a^r, by repeated squaring of a or of its inverse."""
        if r < 0:
            a, r = self.div(1.0, a), -r
        p = a if r else np.zeros_like(a)
        for bit in bin(r)[3:]:
            p = p @ p
            if bit == "1":
                p = p @ a
        return _with_head(p, p0)

    def parlett(self, f0, node: Node):
        """f(T) from its diagonal ``f0``, T the walked variable's matrix, from F T = T F."""
        T = self.mats[self.walked]
        d = self.head(T)
        if (confluent(d[..., :, None], d[..., None, :]).sum(axis=(-2, -1)) > self.m).any():
            raise _no_derivative(node)
        F = _with_head(np.zeros(np.broadcast_shapes(T.shape, np.shape(f0)[:-1] + (1, 1))), f0)
        return _by_bands(F, lambda i, j, q: (
            T[..., i, j] * (F[..., i, i] - F[..., j, j])
            + (F[..., i[:, None], q] * T[..., q, j[:, None]]
               - T[..., i[:, None], q] * F[..., q, j[:, None]]).sum(-1)
        ) / (T[..., i, i] - T[..., j, j]))


def _with_head(v, head) -> np.ndarray:
    """A complex copy of the stack ``v`` with ``head`` on its diagonals."""
    v = np.array(v, dtype=complex)
    at = np.arange(v.shape[-1])
    v[..., at, at] = head
    return v


def _by_bands(X, entry) -> np.ndarray:
    """X below its diagonal, band by band: entry(i, j, q) gives the X[i, j] of one band from
    the nearer bands, with q[n] the indices between j[n] and i[n]."""
    m = X.shape[-1]
    for p in range(1, m):
        j = np.arange(m - p)
        X[..., j + p, j] = entry(j + p, j, j[:, None] + np.arange(1, p))
    return X


def _norm1(a) -> np.ndarray:
    """The 1-norm of each matrix of a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _opitz_walk(root: Node, point, mats: dict, walked: int) -> np.ndarray:
    """``root`` at ``mats`` and ``point`` (see :class:`_Opitz`), broadcast to the full stack."""
    box = _Opitz(mats, walked)
    with np.errstate(all="ignore"):
        v = _evaluate(root, tuple(point), {}, box)
    shapes = [p.shape[:-1] for p in point] + [x.shape[:-2] for x in mats.values()]
    return np.broadcast_to(box.lift(v), np.broadcast_shapes(*shapes) + (box.m, box.m))


def divided_difference_matrix(f: "ScalarField", nodes) -> np.ndarray:
    """f(Z) at the Opitz matrix Z of ``nodes``, one walk (:class:`_Opitz`): entry [i, j] is
    f[x_j, ..., x_i], and column 0 holds the Newton coefficients."""
    if f.arity != 1:
        raise ValueError("divided differences need a one-variable field")
    z = np.asarray(nodes, dtype=complex)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("divided difference needs at least one node")
    return _opitz_walk(f.root, [z], {0: np.diag(z) + np.eye(z.size, k=-1)}, 0)


# ---------------------------------------------------------------------------
# differentiation


def _diff(node: Node, var: int, memo: dict) -> Node:
    """The symbolic partial derivative of ``node`` in variable ``var``.

    ``memo`` maps ``id(node)`` to the derivatives already taken in this
    call, as in :func:`_evaluate`: trees share subtrees, and nothing is
    held once the call returns. A divided-difference node takes its
    base's derivative with a memo of its own, since the base numbers its
    variables apart from the tree.
    """
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.index == var else _ZERO
    key = id(node)
    d = memo.get(key)
    if d is not None:
        return d
    if isinstance(node, Add):
        d = _add(_diff(node.lhs, var, memo), _diff(node.rhs, var, memo))
    elif isinstance(node, Sub):
        d = _sub(_diff(node.lhs, var, memo), _diff(node.rhs, var, memo))
    elif isinstance(node, Neg):
        d = _neg(_diff(node.arg, var, memo))
    elif isinstance(node, Mul):
        d = _add(
            _mul(_diff(node.lhs, var, memo), node.rhs),
            _mul(node.lhs, _diff(node.rhs, var, memo)),
        )
    elif isinstance(node, Div):
        num = _sub(
            _mul(_diff(node.lhs, var, memo), node.rhs),
            _mul(node.lhs, _diff(node.rhs, var, memo)),
        )
        d = _div(num, _pow(node.rhs, 2))
    elif isinstance(node, Pow):
        inner = _diff(node.base, var, memo)
        d = _mul(_mul(_const(node.exponent), _pow(node.base, node.exponent - 1)), inner)
    elif isinstance(node, Exp):
        d = _mul(Exp(node.arg), _diff(node.arg, var, memo))
    elif isinstance(node, Log):
        d = _div(_diff(node.arg, var, memo), node.arg)
    elif isinstance(node, (AbsVal, MinConst, ProjKernel)):
        raise _no_derivative(node)
    elif isinstance(node, SlotDividedDifference):
        d = _diff_slot_dd(node, var)
    else:
        raise TypeError(f"unknown node type {type(node).__name__}")
    memo[key] = d
    return d


def _diff_slot_dd(node: SlotDividedDifference, var: int) -> Node:
    t = len(node.mults)
    lo, hi = node.slot, node.slot + t
    if var < lo or var >= hi:
        base = _diff(node.base, var if var < lo else var - t + 1, {})
        if _is_const(base, 0):
            return _ZERO
        return SlotDividedDifference(base, node.base_arity, node.slot, node.mults)
    k = var - lo
    bumped = node.mults[:k] + (node.mults[k] + 1,) + node.mults[k + 1 :]
    return _mul(
        _const(node.mults[k]),
        SlotDividedDifference(node.base, node.base_arity, node.slot, bumped),
    )


# ---------------------------------------------------------------------------
# rendering


def _fmt_const(v: complex) -> tuple[str, int]:
    if v.imag == 0 and math.copysign(1.0, v.imag) > 0:  # as the parser reads a real literal
        s = repr(v.real).removesuffix(".0")
        return (s, _PREC_NEG if s[0] == "-" else _PREC_ATOM)
    return (f"({v.real!r}{v.imag:+}i)", _PREC_ATOM)


def _render(node: Node) -> tuple[str, int]:
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return (f"x{node.index + 1}", _PREC_ATOM)
    if type(node) in _BINARY:
        sym, prec, _ = _BINARY[type(node)]
        a, pa = _render(node.lhs)
        b, pb = _render(node.rhs)
        if pa < prec:
            a = f"({a})"
        # - and / do not associate, so their right operand is grouped at equal precedence
        if pb < prec or (pb == prec and sym in "-/"):
            b = f"({b})"
        return (f"{a} {sym} {b}" if prec == _PREC_ADD else f"{a}{sym}{b}", prec)
    if isinstance(node, Neg):
        a, pa = _render(node.arg)
        if pa < _PREC_NEG:
            a = f"({a})"
        return (f"-{a}", _PREC_NEG)
    if isinstance(node, Pow):
        a, pa = _render(node.base)
        if pa < _PREC_ATOM:
            a = f"({a})"
        e = node.exponent
        return (f"{a}^{e}" if e >= 0 else f"{a}^({e})", _PREC_POW)
    if type(node) in _CALLS:
        return (f"{_CALLS[type(node)]}({_render(node.arg)[0]})", _PREC_ATOM)
    if isinstance(node, MinConst):
        return (f"min({_render(node.arg)[0]}, {node.bound!r})", _PREC_ATOM)
    if isinstance(node, SlotDividedDifference):
        inner, _ = _render(node.base)
        reps = ",".join(str(m) for m in node.mults)
        return (f"divdiff[slot={node.slot + 1}; reps=({reps})]({inner})", _PREC_ATOM)
    if isinstance(node, ProjKernel):
        lam, _ = _fmt_const(node.anchor)
        return (f"projkernel[{lam}; order={node.order}]", _PREC_ATOM)
    raise TypeError(f"unknown node type {type(node).__name__}")


def render(node: Node) -> str:
    return _render(node)[0]


# ---------------------------------------------------------------------------
# the public field type


class ScalarField:
    """A scalar function of ``arity`` complex variables.

    Combine fields with the usual operators; plain numbers lift to
    constants. Calling the field evaluates it, ``partial`` differentiates
    it symbolically.
    """

    __slots__ = ("arity", "root")

    def __init__(self, arity: int, root: Node):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.arity = int(arity)
        self.root = root

    def __call__(self, *point):
        """The value at one point, or elementwise over broadcast arrays.

        With any argument a numpy array, every argument is taken as a
        complex array and the result is an array of their broadcast shape.
        Otherwise the point is evaluated as one-entry arrays (see the
        module docstring) and the result is a Python complex.
        """
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError(f"field of arity {self.arity} called with {len(point)} arguments")
        if any(isinstance(p, np.ndarray) for p in point):
            return _evaluate_on(self.root, [np.asarray(p, dtype=complex) for p in point])
        return _evaluate_on(self.root, [np.array([p], dtype=complex) for p in point]).item()

    def partial(self, var: int) -> "ScalarField":
        """The symbolic partial derivative in variable ``var`` (0-based), a new field.

        Each call differentiates the tree once, with a memo of its own
        (:func:`_diff`); no cache keeps the derivative once the returned
        field is dropped.
        """
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range for arity {self.arity}")
        return ScalarField(self.arity, _diff(self.root, var, {}))

    # -- operator sugar ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> Node | None:
        if isinstance(other, ScalarField):
            return other.root
        if isinstance(other, (int, float, complex)):
            return _const(other)
        return None

    def _combine(self, other, ctor, flip=False):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        arity = max(self.arity, other.arity) if isinstance(other, ScalarField) else self.arity
        a, b = (rhs, self.root) if flip else (self.root, rhs)
        return ScalarField(arity, ctor(a, b))

    def __add__(self, other):
        return self._combine(other, _add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, _sub)

    def __rsub__(self, other):
        return self._combine(other, _sub, flip=True)

    def __mul__(self, other):
        return self._combine(other, _mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, _div)

    def __rtruediv__(self, other):
        return self._combine(other, _div, flip=True)

    def __neg__(self):
        return ScalarField(self.arity, _neg(self.root))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        return ScalarField(self.arity, _pow(self.root, n))

    def __eq__(self, other):
        return (
            isinstance(other, ScalarField)
            and self.arity == other.arity
            and self.root == other.root
        )

    def __hash__(self):
        return hash((self.arity, self.root))

    def __str__(self):
        return render(self.root)

    def __repr__(self):
        return f"ScalarField(arity={self.arity}, expr={self})"


def constant(value, arity: int = 0) -> ScalarField:
    return ScalarField(arity, _const(value))


def variable(index: int, arity: int | None = None) -> ScalarField:
    """The coordinate field x_{index+1}; arity defaults to index + 1."""
    if arity is None:
        arity = index + 1
    if index >= arity:
        raise ValueError("variable index exceeds arity")
    return ScalarField(arity, Var(index))


def exp(f: ScalarField) -> ScalarField:
    return ScalarField(f.arity, Exp(f.root))


def log(f: ScalarField) -> ScalarField:
    return ScalarField(f.arity, Log(f.root))


def absval(f: ScalarField) -> ScalarField:
    return ScalarField(f.arity, AbsVal(f.root))


def min_const(f: ScalarField, bound: float) -> ScalarField:
    return ScalarField(f.arity, MinConst(f.root, float(bound)))


# ---------------------------------------------------------------------------
# variable plumbing: substitution, merging, composition


#: the smart constructor of each node class that has one; the others use the class
_REBUILD = {Neg: _neg, Pow: _pow, **{cls: ctor for cls, (_, _, ctor) in _BINARY.items()}}


def _map_vars(node: Node, fn) -> Node:
    """``node`` with each variable i replaced by ``fn(i)``, rebuilt bottom-up."""
    t = type(node)
    if t is Const:
        return node
    if t is Var:
        return fn(node.index)
    if t is SlotDividedDifference or t is ProjKernel:
        raise FieldDomainError(
            f"variable substitution through a {t.__name__} node is not supported"
        )
    parts = (getattr(node, name) for name in t.__slots__)
    return _REBUILD.get(t, t)(*(_map_vars(p, fn) if isinstance(p, Node) else p for p in parts))


def substitute_value(f: ScalarField, var: int, value) -> ScalarField:
    """Freeze variable ``var`` at ``value``; later variables shift down."""
    if not 0 <= var < f.arity:
        raise ValueError(f"variable index {var} out of range for arity {f.arity}")
    c = _const(value)

    def fn(i):
        if i == var:
            return c
        return Var(i - 1) if i > var else Var(i)

    return ScalarField(f.arity - 1, _map_vars(f.root, fn))


def merge_variables(f: ScalarField, keep: int, drop: int) -> ScalarField:
    """Identify variable ``drop`` with ``keep`` and remove it.

    The result has arity one less; variables above ``drop`` shift down.
    """
    if keep == drop:
        raise ValueError("keep and drop must differ")
    for v in (keep, drop):
        if not 0 <= v < f.arity:
            raise ValueError(f"variable index {v} out of range for arity {f.arity}")
    target = keep if keep < drop else keep - 1

    def fn(i):
        if i == drop:
            return Var(target)
        return Var(i - 1) if i > drop else Var(i)

    return ScalarField(f.arity - 1, _map_vars(f.root, fn))


def compose(outer: ScalarField, inners: list[ScalarField]) -> ScalarField:
    """outer(f_1(...), ..., f_r(...)) over the concatenated variable list.

    Inner field q sees the block of variables at offset
    arity(f_1) + ... + arity(f_{q-1}).
    """
    if len(inners) != outer.arity:
        raise ValueError(
            f"outer field has arity {outer.arity} but {len(inners)} inner fields were given"
        )
    offsets = list(itertools.accumulate((g.arity for g in inners), initial=0))
    shifted = [
        _map_vars(g.root, lambda i, off=off: Var(i + off)) for g, off in zip(inners, offsets)
    ]
    return ScalarField(offsets[-1], _map_vars(outer.root, shifted.__getitem__))


# ---------------------------------------------------------------------------
# derivative grids


def derivative_grid(f: ScalarField, spectra) -> np.ndarray:
    """Mixed Taylor coefficients of ``f`` on a spectral grid, as one tensor G.

    ``spectra`` is one sequence per variable of ``(eigenvalue, order)``
    pairs; ``order`` is how many Taylor coefficients in that variable the
    grid carries (j = 0 .. order-1). G is a complex array with one axis per
    variable, of length the sum of that variable's orders. Along axis l,
    node m and order j sit at row sum_{m' < m} r_{lm'} + j, the order of
    :attr:`~matfn.interp.HermiteBasis.functionals`; the entry at one row
    per axis is (prod_l d_l^{j_l} / j_l!) f at the node tuple, the
    coefficient of prod_l h_l^{j_l} in f's Taylor series there.

    Where every order is 1, G is one walk of the tree broadcast over the
    eigenvalues; a divided difference in it walks its base once on the
    stack of Opitz matrices of its node tuples (:func:`_slot_dd`).
    Otherwise each variable's eigenvalues split into those
    of order 1 and the rest, and the tree is walked once per combination
    of parts, broadcast over its eigenvalues and carrying Taylor jets up
    to each part's largest order (none on a part of order 1). Each walk
    fills its block of G with each node's first r coefficients as it holds
    them, and a non-finite entry among them is a
    :class:`FieldDomainError`. Coefficients that G does not gather are
    not looked at.
    """
    if len(spectra) != f.arity:
        raise ValueError(
            f"field of arity {f.arity} but spectra given for {len(spectra)} variables"
        )
    per_var = []
    for entries in spectra:
        entries = [(complex(lam), int(r)) for lam, r in entries]
        for _, r in entries:
            if r < 1:
                raise ValueError("every grid order must be at least 1")
        per_var.append(entries)

    k = f.arity

    def along(l, values, dtype):  # values on axis l of the grid
        return np.array(values, dtype=dtype).reshape((-1,) + (1,) * (k - 1 - l))

    def eigenvalues(spec):
        return [along(l, [lam for lam, _ in e], complex) for l, e in enumerate(spec)]

    def split(entries):  # the eigenvalues of order 1, and the rest
        simple = [m for m, (_, r) in enumerate(entries) if r == 1]
        rest = [m for m, (_, r) in enumerate(entries) if r > 1]
        return [ms for ms in (simple, rest) if ms]

    if all(r == 1 for entries in per_var for _, r in entries):
        return _evaluate_on(f.root, eigenvalues(per_var))
    # first row of each node along its axis
    starts = [list(itertools.accumulate((r for _, r in e), initial=0)) for e in per_var]
    G = np.empty(tuple(s[-1] for s in starts), dtype=complex)
    for part in itertools.product(*map(split, per_var)):
        sub = [[per_var[l][m] for m in ms] for l, ms in enumerate(part)]
        orders = tuple(max(r for _, r in e) for e in sub)
        jets = _jets_on(f.root, eigenvalues(sub), orders)
        jets = jets.reshape(jets.shape[:-1] + orders)
        # row (i, j) of axis l in the block reads node i of the part, coefficient j
        nodes = [
            along(l, [i for i, (_, r) in enumerate(e) for _ in range(r)], int)
            for l, e in enumerate(sub)
        ]
        js = [along(l, [j for _, r in e for j in range(r)], int) for l, e in enumerate(sub)]
        block = jets[tuple(nodes) + tuple(js)]
        bad = ~np.isfinite(block)
        if bad.any():
            at = np.unravel_index(int(np.argmax(bad)), block.shape)
            where = tuple(sub[l][int(i.flat[a])][0] for l, (i, a) in enumerate(zip(nodes, at)))
            order = tuple(int(j.flat[a]) for j, a in zip(js, at))
            raise FieldDomainError(
                f"non-finite derivative of order {order} in {render(f.root)} at point {where}"
            )
        rows = [
            [s[m] + j for m in ms for j in range(s[m + 1] - s[m])] for s, ms in zip(starts, part)
        ]
        G[np.ix_(*rows)] = block
    return G


# ---------------------------------------------------------------------------
# polynomials


class MultiPoly:
    """Polynomial in several variables: one dense coefficient array, a Newton basis per variable.

    ``dense`` has one axis per variable and ``dense[a_1, ..., a_k]`` is the
    coefficient of N_{1 a_1}(x_1) ... N_{k a_k}(x_k), with
    N_{l a}(x) = prod_{j < a} (x - centres[l][j]). Every centre is 0 unless
    ``centres`` is given, so the basis is the monomials x_1^{a_1} ... x_k^{a_k}.
    Trailing all-zero slices are trimmed, so axis l has length
    ``degree(l) + 1`` and ``centres[l]`` the ``degree(l)`` centres it uses;
    the zero polynomial is one zero, of shape (1, ..., 1). The constructor
    takes that array or an {exponent tuple: coefficient} map, and
    :attr:`coeffs` gives the map of the nonzero monomial coefficients back.
    Sums, products and partials are taken in the monomial basis.
    """

    __slots__ = ("arity", "dense", "centres")

    def __init__(self, arity: int, coeffs=None, centres=None):
        self.arity = k = int(arity)
        if coeffs is None or isinstance(coeffs, dict):
            coeffs = coeffs or {}
            alphas = [tuple(int(a) for a in alpha) for alpha in coeffs]
            for alpha in alphas:
                if len(alpha) != k:
                    raise ValueError(f"exponent tuple {alpha} does not match arity {k}")
                if any(a < 0 for a in alpha):
                    raise ValueError(f"negative exponent in {alpha}")
            shape = tuple(max(col) + 1 for col in zip(*alphas)) if alphas else (1,) * k
            dense = np.zeros(shape, dtype=complex)
            for alpha, c in zip(alphas, coeffs.values()):
                dense[alpha] += complex(c)
        else:
            dense = np.array(coeffs, dtype=complex)
            if dense.ndim != k:
                raise ValueError(f"coefficient array of rank {dense.ndim} is not arity {k}")
        if centres is not None:
            centres = [np.asarray(z, dtype=complex).reshape(-1) for z in centres]
            if len(centres) != k or any(z.size < n - 1 for z, n in zip(centres, dense.shape)):
                raise ValueError(f"centres of lengths {[z.size for z in centres]} "
                                 f"for coefficients of shape {dense.shape}")
        dense += 0  # -0.0 parts become 0.0, so equal arrays hold equal bytes
        nonzero = np.argwhere(dense)
        if len(nonzero):
            ends = nonzero.max(axis=0) + 1
            dense = np.ascontiguousarray(dense[tuple(map(slice, ends))])
        else:
            dense = np.zeros((1,) * k, dtype=complex)
        dense.flags.writeable = False
        self.dense = dense
        if centres is None:
            self.centres = tuple(np.zeros(n - 1, dtype=complex) for n in dense.shape)
        else:  # -0.0 parts become 0.0 here too
            self.centres = tuple(z[: n - 1] + 0 for z, n in zip(centres, dense.shape))
        for z in self.centres:
            z.flags.writeable = False

    def _monomial(self) -> np.ndarray:
        """``dense`` in the monomial basis."""
        T = self.dense
        if not any(z.any() for z in self.centres):
            return T
        for z in self.centres:
            # row a: the monomial coefficients of prod_{j < a} (x - z_j)
            basis = np.zeros((z.size + 1,) * 2, dtype=complex)
            basis[0, 0] = 1.0
            for a, c in enumerate(z):
                basis[a + 1, 1:] = basis[a, :-1]
                basis[a + 1] -= c * basis[a]
            T = np.tensordot(T, basis, axes=(0, 0))
        return T

    @property
    def coeffs(self) -> dict:
        """{exponent tuple: coefficient} of the nonzero monomial coefficients."""
        dense = self._monomial()
        mask = dense != 0
        return dict(zip(map(tuple, np.argwhere(mask).tolist()), dense[mask].tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and np.array_equal(self.dense, other.dense)
            and all(map(np.array_equal, self.centres, other.centres))
        )

    def __hash__(self):
        centres = b"".join(z.tobytes() for z in self.centres)
        return hash((self.arity, self.dense.shape, self.dense.tobytes(), centres))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._monomial(), other._monomial()
        total = np.zeros(tuple(map(max, a.shape, b.shape)), dtype=complex)
        total[tuple(map(slice, a.shape))] += a
        total[tuple(map(slice, b.shape))] += b
        return MultiPoly(self.arity, total)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-1) * other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-1) * self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MultiPoly(self.arity, self.dense * other, self.centres)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("polynomial arities differ")
        a, b = self._monomial(), other._monomial()
        total = np.zeros(tuple(m + n - 1 for m, n in zip(a.shape, b.shape)), dtype=complex)
        # each nonzero term of ``a`` adds a shifted copy of ``b``
        for alpha in np.argwhere(a).tolist():
            total[tuple(slice(s, s + n) for s, n in zip(alpha, b.shape))] += a[tuple(alpha)] * b
        return MultiPoly(self.arity, total)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.arity != self.arity:
                raise ValueError("polynomial arities differ")
            return other
        if isinstance(other, (int, float, complex)):
            return MultiPoly(self.arity, {(0,) * self.arity: other})
        return None

    def partial(self, var: int) -> "MultiPoly":
        last = np.moveaxis(self._monomial(), var, -1)
        scaled = last[..., 1:] * np.arange(1, last.shape[-1])
        return MultiPoly(self.arity, np.moveaxis(scaled, -1, var))

    def __call__(self, *point) -> complex:
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError(f"polynomial of arity {self.arity} called with {len(point)} values")
        total = self.dense
        for p, z in zip(point, self.centres):
            # nested multiplication along the leading axis, the one of this
            # variable: c_0 + (p - z_0) (c_1 + (p - z_1) (c_2 + ...))
            p, acc = complex(p), total[-1]
            for c, centre in zip(total[-2::-1], z[::-1]):
                acc = c + (p - centre) * acc
            total = acc
        return complex(total)

    def degree(self, var: int) -> int:
        """Largest exponent of ``var``; -1 for the zero polynomial."""
        return self.dense.shape[var] - 1 if self.dense.any() else -1

    def is_zero(self) -> bool:
        return not self.dense.any()

    def __repr__(self):
        return f"MultiPoly(arity={self.arity}, terms={np.count_nonzero(self.dense)})"

    def __str__(self):
        return str(poly_to_field(self))


def poly_to_field(poly: MultiPoly) -> ScalarField:
    total: Node = _ZERO
    for alpha, c in sorted(poly.coeffs.items()):
        term: Node = _const(c)
        for var, a in enumerate(alpha):
            term = _mul(term, _pow(Var(var), a))
        total = _add(total, term)
    return ScalarField(poly.arity, total)


# ---------------------------------------------------------------------------
# parsing

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
#: a complex constant as rendered, (a+bi), read as one token: folded from
#: its parts, -0.0 + bi would come out as 0.0 + bi and lose the sign
_COMPLEX_RE = re.compile(rf"\(\s*(-?)\s*({_NUMBER})\s*([+-])\s*({_NUMBER})i\s*\)")
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<complex>{_COMPLEX_RE.pattern})|(?P<num>{_NUMBER}i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {name: cls for cls, name in _CALLS.items() if cls is not AbsVal}

#: operator token -> (precedence, smart constructor)
_OPERATORS = {("op", sym): (prec, ctor) for sym, prec, ctor in _BINARY.values()}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stray = text[pos:].lstrip()
            if not stray:
                break
            raise FieldParseError(f"unexpected character {stray[0]!r} at position {pos}")
        pos = m.end()
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.max_var = -1

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def skip_op(self, op) -> bool:
        """Take the next token if it is the operator ``op``."""
        found = self.peek() == ("op", op)
        self.pos += found
        return found

    def expect_op(self, op):
        if not self.skip_op(op):
            raise FieldParseError(f"expected {op!r}, found {self.peek()[1]!r}")

    def parse_expr(self, min_prec: int = _PREC_ADD) -> Node:
        """Binary operators of precedence ``min_prec`` and above, left-associative."""
        node = self.parse_factor()
        while (op := _OPERATORS.get(self.peek())) is not None and op[0] >= min_prec:
            self.take()
            prec, ctor = op
            node = ctor(node, self.parse_expr(prec + 1))
        return node

    def parse_factor(self) -> Node:
        if self.skip_op("-"):
            arg = self.parse_factor()
            # a negated real constant stays real: -2 is -2+0i, where -(2+0i) is -2-0i
            if isinstance(arg, Const) and arg.value.imag == 0:
                return _const(-arg.value.real)
            return _neg(arg)
        if self.skip_op("+"):
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Node:
        """An atom, or an atom ^ n with n written 2, -2 or, as rendered, (-2)."""
        base = self.parse_atom()
        if not self.skip_op("^"):
            return base
        grouped = self.skip_op("(")
        sign = -1 if self.skip_op("-") else 1
        kind, val = self.take()
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise FieldParseError(f"exponent must be an integer literal, found {val!r}")
        if grouped:
            self.expect_op(")")
        return _pow(base, sign * int(val))

    def parse_atom(self) -> Node:
        kind, val = self.take()
        if kind == "complex":
            sign, re_part, im_sign, im_part = _COMPLEX_RE.fullmatch(val).groups()
            return _const(complex(float(sign + re_part), float(im_sign + im_part)))
        if kind == "num":  # a trailing i makes an imaginary literal
            return _const(complex(0.0, float(val[:-1])) if val[-1] == "i" else float(val))
        if kind == "name":
            if val in _FUNCTIONS:
                if self.peek()[0] == "complex":  # exp(2+3i): the call's parentheses
                    return _FUNCTIONS[val](self.parse_atom())
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return _FUNCTIONS[val](arg)
            m = re.fullmatch(r"x(\d+)", val)
            if m is None:
                raise FieldParseError(f"unknown identifier {val!r}")
            idx = int(m.group(1))
            if idx < 1:
                raise FieldParseError("variables are numbered from x1")
            self.max_var = max(self.max_var, idx - 1)
            return Var(idx - 1)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise FieldParseError(f"unexpected token {val!r}")


def parse_field(text: str, arity: int | None = None) -> ScalarField:
    """Parse field text like ``"exp(x1 + x2^2) / 3"``.

    Variables are written x1, x2, ... (1-based in text, 0-based in the
    tree). If ``arity`` is omitted the highest variable mentioned sets it.
    """
    parser = _Parser(_tokenize(text))
    root = parser.parse_expr()
    kind, val = parser.peek()
    if kind != "end":
        raise FieldParseError(f"trailing input starting at {val!r}")
    inferred = parser.max_var + 1
    # the field rejects a negative arity before the variables are counted
    field = ScalarField(max(inferred, 1) if arity is None else arity, root)
    if inferred > field.arity:
        raise FieldParseError(f"text references x{inferred} but arity {arity} was requested")
    return field
