"""Expression trees for scalar functions of several complex variables.

A :class:`ScalarField` is an arity together with an immutable expression
tree. Fields evaluate elementwise over numpy arrays of points that
broadcast against each other, in one walk of the tree; a point of C^k is
walked as one-entry arrays (not 0-d ones, whose numpy-scalar results
round differently), so point and array calls agree to the bit. Fields
differentiate symbolically, closed on the node set, so mixed partial
derivatives of any order stay representable. Besides the rational
operations, integer powers, exp and log, the tree supports divided
differences of another field in one of its slots (closed under
differentiation through the node-repetition rule) and the kernel
functions used by the eigenprojector perturbation series. Two
evaluation-only builtins, ``abs`` and a clipped minimum, exist for the
piecewise tests and refuse differentiation.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldDomainError, FieldParseError

#: Nodes closer than this (relative, see :func:`confluent`) are one node.
CONFLUENCE_TOL = 1e-10


def confluent(a, b, floor=1.0):
    """Whether nodes ``a`` and ``b`` count as one node, elementwise on arrays.

    The rule is |a - b| <= CONFLUENCE_TOL * max(floor, |a|, |b|), spelt
    out without ``max`` so that scalars stay Python scalars: relative above
    magnitude ``floor``, absolute below it. The divided difference tables
    ask it with floor 1, the unit of the field's argument, since a
    difference quotient of nodes closer than that loses eps/gap of its
    digits; the projector kernel asks it with the same floor to refuse an
    argument that nearly hits its anchor. The interpolation basis is
    unchanged by scaling its nodes, so :func:`~matfn.interp.hermite_basis`
    asks with a smaller floor; at magnitude 1 and above all three agree.
    """
    gap = abs(a - b)
    return (gap <= CONFLUENCE_TOL * floor) | (gap <= CONFLUENCE_TOL * abs(a)) | (
        gap <= CONFLUENCE_TOL * abs(b)
    )


class Node:
    __slots__ = ("_hash",)


def _node(cls):
    """A frozen, slotted dataclass whose hash is computed once per node.

    The generated hash walks the whole subtree, and the derivative cache
    and the divided-difference lookups hash the same nodes again and
    again, so the first value is kept in the ``_hash`` slot of ``Node``,
    which is no dataclass field: equality, repr and pickling ignore it.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    subtree_hash = cls.__hash__

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = subtree_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


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
    difference table ``mults[t]`` times. Repetitions are what make the
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
# evaluation


def _evaluate(node: Node, point: tuple, memo: dict):
    """Values of ``node`` over the broadcast of the arrays in ``point``.

    ``point`` holds one complex array per variable (a subtree without
    variables gives a scalar); callers silence numpy's floating-point
    warnings, see :func:`_evaluate_on`. ``memo`` maps ``id(node)`` to the
    values already computed in this call: derivative trees share subtrees
    heavily, and keying on node equality would hash whole subtrees.
    Domain violations raise :class:`FieldDomainError` naming the first
    offending point.
    """
    t = type(node)
    if t is Const:
        return node.value
    if t is Var:
        return point[node.index]
    if t is ProjKernel:
        return _proj_kernel(node, point)
    key = id(node)
    v = memo.get(key)
    if v is not None:
        return v
    if t is Add:
        v = _evaluate(node.lhs, point, memo) + _evaluate(node.rhs, point, memo)
    elif t is Sub:
        v = _evaluate(node.lhs, point, memo) - _evaluate(node.rhs, point, memo)
    elif t is Mul:
        v = _evaluate(node.lhs, point, memo) * _evaluate(node.rhs, point, memo)
    elif t is Div:
        num = _evaluate(node.lhs, point, memo)
        den = _evaluate(node.rhs, point, memo)
        _check(den == 0, point, "division by zero", node)
        v = num / den
    elif t is Neg:
        v = -_evaluate(node.arg, point, memo)
    elif t is Pow:
        base = _evaluate(node.base, point, memo)
        if node.exponent < 0:
            _check(base == 0, point, "zero raised to negative power", node)
        v = base**node.exponent
        if not np.isfinite(v).all():
            _check(~np.isfinite(v) & np.isfinite(base), point, "power overflow", node)
    elif t is Exp:
        arg = _evaluate(node.arg, point, memo)
        v = np.exp(arg)
        if not np.isfinite(v).all():
            _check(~np.isfinite(v) & np.isfinite(arg), point, "exp overflow", node)
    elif t is Log:
        arg = _evaluate(node.arg, point, memo)
        _check(arg == 0, point, "log of zero", node)
        v = np.log(arg)
    elif t is SlotDividedDifference:
        v = _slot_dd(node, point)
    elif t is AbsVal:
        v = np.abs(_evaluate(node.arg, point, memo)) + 0j
    elif t is MinConst:
        z = _evaluate(node.arg, point, memo)
        bad = abs(z.imag) > 1e-9 * (1.0 + abs(z))
        _check(bad, point, "min builtin applied to a non-real value", node)
        v = np.minimum(z.real, node.bound) + 0j
    else:
        raise TypeError(f"unknown node type {type(node).__name__}")
    memo[key] = v
    return v


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


def _slot_dd(node: SlotDividedDifference, point: tuple):
    lo, hi = node.slot, node.slot + len(node.mults)
    cols = np.broadcast_arrays(*point)
    nodes = np.stack(
        [y for y, m in zip(cols[lo:hi], node.mults) for _ in range(m)], axis=-1
    )
    sections = [node.base]

    def deriv(x, order, mask):
        while len(sections) <= order:
            sections.append(_diff(sections[-1], node.slot))
        if mask is None:
            lead = (..., None)  # the other variables, against the node axis
        else:
            at = np.nonzero(mask)
            lead, x = at[:-1], x[at]
        args = [c[lead] for c in cols[:lo]] + [x] + [c[lead] for c in cols[hi:]]
        return _evaluate_on(sections[order], args)

    return confluent_divided_difference(deriv, nodes)


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
# divided differences (confluent, shared by calculus and the dd node)


def divided_difference_levels(deriv, nodes):
    """All levels of the confluent Newton table, elementwise over points.

    ``nodes`` has the nodes of one table along its last axis; leading axes
    index independent tables. Along each table the nodes are sorted (real
    part, then imaginary part), and nodes :func:`confluent` with the head
    of their group are merged into the group's centroid; a table entry
    spanning one group is deriv/span!.
    ``deriv(x, m, mask)`` returns the m-th derivative at ``x[mask]`` as a
    1-D array, or at every entry of ``x`` when ``mask`` is None; it is
    asked only where a group is confluent. Returns ``(merged_nodes,
    levels)`` with ``levels[s][..., i]`` the difference over
    merged_nodes[..., i : i+s+1]; the full difference is
    ``levels[-1][..., 0]``.
    """
    z = np.sort(np.asarray(nodes, dtype=complex), axis=-1)
    if z.ndim == 0 or z.shape[-1] == 0:
        raise ValueError("divided difference needs at least one node")
    n = z.shape[-1]
    with np.errstate(all="ignore"):
        group = np.zeros(z.shape, dtype=int)
        head = z[..., 0]
        for i in range(1, n):
            same = confluent(z[..., i], head)
            group[..., i] = group[..., i - 1] + ~same
            head = np.where(same, head, z[..., i])
        member = group[..., :, None] == group[..., None, :]
        zs = (member * z[..., None, :]).sum(axis=-1) / member.sum(axis=-1)

        levels = [np.asarray(deriv(zs, 0, None))]
        for span in range(1, n):
            prev = levels[-1]
            level = (prev[..., 1:] - prev[..., :-1]) / (zs[..., span:] - zs[..., :-span])
            spans_group = group[..., :-span] == group[..., span:]
            if spans_group.any():
                section = deriv(zs[..., :-span], span, spans_group)
                level[spans_group] = section / math.factorial(span)
            levels.append(level)
    return zs, levels


def confluent_divided_difference(deriv, nodes):
    """Divided difference over ``nodes`` of the function behind ``deriv``.

    Arguments as for :func:`divided_difference_levels`; one value per
    table, a complex for a single table.
    """
    _, levels = divided_difference_levels(deriv, nodes)
    value = levels[-1][..., 0]
    return value if value.ndim else complex(value)


# ---------------------------------------------------------------------------
# differentiation


@lru_cache(maxsize=None)
def _diff(node: Node, var: int) -> Node:
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.index == var else _ZERO
    if isinstance(node, Add):
        return _add(_diff(node.lhs, var), _diff(node.rhs, var))
    if isinstance(node, Sub):
        return _sub(_diff(node.lhs, var), _diff(node.rhs, var))
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, var))
    if isinstance(node, Mul):
        return _add(
            _mul(_diff(node.lhs, var), node.rhs),
            _mul(node.lhs, _diff(node.rhs, var)),
        )
    if isinstance(node, Div):
        num = _sub(
            _mul(_diff(node.lhs, var), node.rhs),
            _mul(node.lhs, _diff(node.rhs, var)),
        )
        return _div(num, _pow(node.rhs, 2))
    if isinstance(node, Pow):
        inner = _diff(node.base, var)
        return _mul(_mul(_const(node.exponent), _pow(node.base, node.exponent - 1)), inner)
    if isinstance(node, Exp):
        return _mul(Exp(node.arg), _diff(node.arg, var))
    if isinstance(node, Log):
        return _div(_diff(node.arg, var), node.arg)
    if isinstance(node, (AbsVal, MinConst)):
        raise FieldDomainError(
            f"{type(node).__name__} is an evaluation-only builtin and has no derivative"
        )
    if isinstance(node, SlotDividedDifference):
        return _diff_slot_dd(node, var)
    if isinstance(node, ProjKernel):
        raise FieldDomainError("the projector kernel is evaluation-only and has no derivative")
    raise TypeError(f"unknown node type {type(node).__name__}")


def _diff_slot_dd(node: SlotDividedDifference, var: int) -> Node:
    t = len(node.mults)
    lo, hi = node.slot, node.slot + t
    if var < lo:
        base = _diff(node.base, var)
        if _is_const(base, 0):
            return _ZERO
        return SlotDividedDifference(base, node.base_arity, node.slot, node.mults)
    if var >= hi:
        base = _diff(node.base, var - t + 1)
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
    if v.imag == 0:
        r = v.real
        if r == int(r) and abs(r) < 1e15:
            s = str(int(r))
        else:
            s = repr(r)
        return (s, _PREC_ATOM if r >= 0 else _PREC_NEG)
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
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range for arity {self.arity}")
        return ScalarField(self.arity, _diff(self.root, var))

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
    """Mixed partial derivatives of ``f`` on a spectral grid, as one tensor G.

    ``spectra`` is one sequence per variable of ``(eigenvalue, order)``
    pairs; ``order`` is how many derivatives in that variable the grid
    carries (j = 0 .. order-1). G is a complex array with one axis per
    variable, of length the sum of that variable's orders. Along axis l,
    node m and order j sit at row sum_{m' < m} r_{lm'} + j, the order of
    :attr:`~matfn.interp.HermiteBasis.functionals`; the entry at one row
    per axis is (prod_l d_l^{j_l}) f at the node tuple.

    Each mixed partial is built and walked once per derivative
    multi-index j: its tree is evaluated by broadcasting over the
    eigenvalues whose order exceeds j_l in every variable l, and the
    values land in G with one indexed assignment.
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

    max_order = [max((r for _, r in entries), default=1) for entries in per_var]
    # first row of each node along its axis
    starts = [
        list(itertools.accumulate((r for _, r in entries), initial=0))
        for entries in per_var
    ]

    # Mixed partials, filled by raising one index at a time.
    partials: dict[tuple[int, ...], Node] = {(0,) * f.arity: f.root}

    def partial_node(jt: tuple[int, ...]) -> Node:
        node = partials.get(jt)
        if node is not None:
            return node
        l = next(i for i, j in enumerate(jt) if j > 0)
        prev = partial_node(jt[:l] + (jt[l] - 1,) + jt[l + 1 :])
        node = _diff(prev, l)
        partials[jt] = node
        return node

    k = f.arity
    G = np.zeros(tuple(s[-1] for s in starts), dtype=complex)
    for j_tuple in itertools.product(*(range(r) for r in max_order)):
        # per variable, the eigenvalues whose order exceeds j_l
        ms = [
            [m for m, (_, r) in enumerate(entries) if r > j]
            for entries, j in zip(per_var, j_tuple)
        ]
        axes = [
            np.array([per_var[l][m][0] for m in ml], dtype=complex).reshape(
                (-1,) + (1,) * (k - 1 - l)
            )
            for l, ml in enumerate(ms)
        ]
        rows = [[s[m] + j for m in ml] for s, ml, j in zip(starts, ms, j_tuple)]
        G[np.ix_(*rows)] = _evaluate_on(partial_node(j_tuple), axes)
    return G


# ---------------------------------------------------------------------------
# polynomials


class MultiPoly:
    """Polynomial in several variables, one dense coefficient array.

    ``dense`` has one axis per variable and ``dense[a_1, ..., a_k]`` is
    the coefficient of x_1^{a_1} ... x_k^{a_k}. Trailing all-zero slices
    are trimmed, so axis l has length ``degree(l) + 1``; the zero
    polynomial is one zero, of shape (1, ..., 1). The constructor takes
    that array or an {exponent tuple: coefficient} map, and
    :attr:`coeffs` gives the map of the nonzero coefficients back.
    """

    __slots__ = ("arity", "dense")

    def __init__(self, arity: int, coeffs=None):
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
        dense += 0  # -0.0 parts become 0.0, so equal arrays hold equal bytes
        nonzero = np.argwhere(dense)
        if len(nonzero):
            ends = nonzero.max(axis=0) + 1
            dense = np.ascontiguousarray(dense[tuple(map(slice, ends))])
        else:
            dense = np.zeros((1,) * k, dtype=complex)
        dense.flags.writeable = False
        self.dense = dense

    @property
    def coeffs(self) -> dict:
        """{exponent tuple: coefficient} of the nonzero coefficients."""
        mask = self.dense != 0
        return dict(zip(map(tuple, np.argwhere(mask).tolist()), self.dense[mask].tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and np.array_equal(self.dense, other.dense)
        )

    def __hash__(self):
        return hash((self.arity, self.dense.shape, self.dense.tobytes()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.dense, other.dense
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
            return MultiPoly(self.arity, self.dense * other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("polynomial arities differ")
        a, b = self.dense, other.dense
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
        last = np.moveaxis(self.dense, var, -1)
        scaled = last[..., 1:] * np.arange(1, last.shape[-1])
        return MultiPoly(self.arity, np.moveaxis(scaled, -1, var))

    def __call__(self, *point) -> complex:
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError(f"polynomial of arity {self.arity} called with {len(point)} values")
        total = self.dense
        for p in point:
            # Horner along the leading axis, the one of this variable
            total = np.polynomial.polynomial.polyval(complex(p), total)
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
            return _neg(self.parse_factor())
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
