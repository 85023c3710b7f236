"""Expression trees for scalar functions of several complex variables.

A :class:`ScalarField` is an arity together with an immutable expression
tree. Fields evaluate at a point of C^k, or elementwise over numpy arrays
of points that broadcast against each other in one walk of the tree, and
they differentiate symbolically. Differentiation is closed on the node
set, so mixed partial derivatives of any order stay representable.
Besides the rational operations, integer powers, exp and log, the tree
supports divided differences of another field in one of its slots
(closed under differentiation through the node-repetition rule) and the
kernel functions used by the eigenprojector perturbation series. Two
evaluation-only builtins, ``abs`` and a clipped minimum, exist for the
piecewise tests and refuse differentiation.
"""

from __future__ import annotations

import cmath
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
    and the projector kernel ask it with floor 1, the unit of the field's
    argument, since a difference quotient of nodes closer than that loses
    eps/gap of its digits. The interpolation basis is unchanged by scaling
    its nodes, so :func:`~matfn.interp.hermite_basis` asks with a smaller
    floor; at magnitude 1 and above all three agree.
    """
    gap = abs(a - b)
    return (gap <= CONFLUENCE_TOL * floor) | (gap <= CONFLUENCE_TOL * abs(a)) | (
        gap <= CONFLUENCE_TOL * abs(b)
    )


class Node:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Node):
    value: complex


@dataclass(frozen=True, slots=True)
class Var(Node):
    index: int


@dataclass(frozen=True, slots=True)
class Add(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True, slots=True)
class Sub(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True, slots=True)
class Mul(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True, slots=True)
class Div(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True, slots=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True, slots=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True, slots=True)
class Exp(Node):
    arg: Node


@dataclass(frozen=True, slots=True)
class Log(Node):
    arg: Node


@dataclass(frozen=True, slots=True)
class AbsVal(Node):
    """|z| as a real number. Evaluation only; has no derivative node."""

    arg: Node


@dataclass(frozen=True, slots=True)
class MinConst(Node):
    """min(Re z, c) for a real constant c. Evaluation only.

    Arguments with a meaningful imaginary part are rejected instead of
    silently projected, since the comparison has no complex meaning.
    """

    arg: Node
    bound: float


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
# evaluation

_INF = complex(math.inf)
_ndarray = np.ndarray  # one lookup fewer on the scalar call path


def _evaluate(node: Node, point: tuple, memo: dict):
    """Value of ``node`` at ``point``.

    ``point`` holds one value per variable: all Python complex scalars, or
    complex arrays that broadcast against each other, in which case the
    value is elementwise over the broadcast points (callers silence
    numpy's floating-point warnings; see :func:`_evaluate_on`). Values
    stay Python complex wherever no array enters. ``memo`` maps
    ``id(node)`` to the values already computed in this call: derivative
    trees share subtrees heavily, and keying on node equality would hash
    whole subtrees. Domain violations raise :class:`FieldDomainError`
    naming the first offending point.
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
        bad = den == 0
        if bad is not False:
            _check(bad, point, "division by zero", node)
        v = num / den
    elif t is Neg:
        v = -_evaluate(node.arg, point, memo)
    elif t is Pow:
        base = _evaluate(node.base, point, memo)
        if node.exponent < 0:
            bad = base == 0
            if bad is not False:
                _check(bad, point, "zero raised to negative power", node)
        if type(base) is complex:
            try:
                v = base**node.exponent
            except (OverflowError, ZeroDivisionError):
                v = _INF
        else:
            v = base**node.exponent
        _check_finite(v, base, point, "power overflow", node)
    elif t is Exp:
        arg = _evaluate(node.arg, point, memo)
        if type(arg) is complex:
            try:
                v = cmath.exp(arg)
            except OverflowError:
                v = _INF
        else:
            v = np.exp(arg)
        _check_finite(v, arg, point, "exp overflow", node)
    elif t is Log:
        arg = _evaluate(node.arg, point, memo)
        bad = arg == 0
        if bad is not False:
            _check(bad, point, "log of zero", node)
        v = cmath.log(arg) if type(arg) is complex else np.log(arg)
    elif t is SlotDividedDifference:
        v = _slot_dd(node, point)
    elif t is AbsVal:
        arg = _evaluate(node.arg, point, memo)
        v = complex(abs(arg)) if type(arg) is complex else np.abs(arg) + 0j
    elif t is MinConst:
        z = _evaluate(node.arg, point, memo)
        bad = abs(z.imag) > 1e-9 * (1.0 + abs(z))
        if bad is not False:
            _check(bad, point, "min builtin applied to a non-real value", node)
        if type(z) is complex:
            v = complex(min(z.real, node.bound))
        else:
            v = np.minimum(z.real, node.bound) + 0j
    else:
        raise TypeError(f"unknown node type {type(node).__name__}")
    memo[key] = v
    return v


def _check(bad, point: tuple, what: str, node: Node):
    """Raise :class:`FieldDomainError` at the first point where ``bad`` holds."""
    if bad is not True and not bad.any():
        return
    shape = np.broadcast_shapes(np.shape(bad), *(np.shape(p) for p in point))
    at = np.unravel_index(int(np.argmax(np.broadcast_to(bad, shape))), shape)
    where = tuple(complex(np.broadcast_to(p, shape)[at]) for p in point)
    raise FieldDomainError(f"{what} in {render(node)} at point {where}")


def _check_finite(value, arg, point: tuple, what: str, node: Node):
    """A finite argument must give a finite value."""
    if type(value) is complex:
        if not cmath.isfinite(value) and cmath.isfinite(arg):
            _check(True, point, what, node)
    elif not np.isfinite(value).all():
        _check(~np.isfinite(value) & np.isfinite(arg), point, what, node)


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

    The indicator is 1 on the nodes :func:`confluent` with the anchor and
    0 elsewhere, so its derivatives vanish; the table merges the anchor's
    copies into a centroid that may miss the anchor by rounding, hence
    the test by confluence rather than equality.
    """
    lam = node.anchor
    nodes = np.stack(np.broadcast_arrays(*point), axis=-1)
    bad = confluent(nodes, lam) & (nodes != lam)
    if bad.any():
        z = complex(nodes[bad][0])
        raise FieldDomainError(
            f"kernel argument {z} is confluent with the anchor {lam} "
            "but not equal to it; ambiguous confluence"
        )

    def deriv(x, m, mask):
        x = x if mask is None else x[mask]
        return confluent(x, lam) + 0j if m == 0 else np.zeros(x.shape, dtype=complex)

    return confluent_divided_difference(deriv, nodes)


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

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_const(v: complex) -> tuple[str, int]:
    if v.imag == 0:
        r = v.real
        if r == int(r) and abs(r) < 1e15:
            s = str(int(r))
        else:
            s = repr(r)
        return (s, _PREC_ATOM if r >= 0 else _PREC_NEG)
    return (f"({v.real:g}{v.imag:+g}i)", _PREC_ATOM)


def _render(node: Node) -> tuple[str, int]:
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return (f"x{node.index + 1}", _PREC_ATOM)
    if isinstance(node, Add):
        a, pa = _render(node.lhs)
        b, pb = _render(node.rhs)
        return (f"{a} + {b}", _PREC_ADD)
    if isinstance(node, Sub):
        a, pa = _render(node.lhs)
        b, pb = _render(node.rhs)
        if pb <= _PREC_ADD:
            b = f"({b})"
        return (f"{a} - {b}", _PREC_ADD)
    if isinstance(node, Neg):
        a, pa = _render(node.arg)
        if pa < _PREC_NEG:
            a = f"({a})"
        return (f"-{a}", _PREC_NEG)
    if isinstance(node, Mul):
        a, pa = _render(node.lhs)
        b, pb = _render(node.rhs)
        if pa < _PREC_MUL:
            a = f"({a})"
        if pb < _PREC_MUL:
            b = f"({b})"
        return (f"{a}*{b}", _PREC_MUL)
    if isinstance(node, Div):
        a, pa = _render(node.lhs)
        b, pb = _render(node.rhs)
        if pa < _PREC_MUL:
            a = f"({a})"
        if pb <= _PREC_MUL:
            b = f"({b})"
        return (f"{a}/{b}", _PREC_MUL)
    if isinstance(node, Pow):
        a, pa = _render(node.base)
        if pa < _PREC_ATOM:
            a = f"({a})"
        e = node.exponent
        return (f"{a}^{e}" if e >= 0 else f"{a}^({e})", _PREC_POW)
    if isinstance(node, Exp):
        return (f"exp({_render(node.arg)[0]})", _PREC_ATOM)
    if isinstance(node, Log):
        return (f"log({_render(node.arg)[0]})", _PREC_ATOM)
    if isinstance(node, AbsVal):
        return (f"abs({_render(node.arg)[0]})", _PREC_ATOM)
    if isinstance(node, MinConst):
        return (f"min({_render(node.arg)[0]}, {node.bound:g})", _PREC_ATOM)
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
        """
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError(f"field of arity {self.arity} called with {len(point)} arguments")
        for p in point:
            if isinstance(p, _ndarray):
                return _evaluate_on(self.root, [np.asarray(p, dtype=complex) for p in point])
        return _evaluate(self.root, tuple(map(complex, point)), {})

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


def _map_vars(node: Node, fn) -> Node:
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return fn(node.index)
    if isinstance(node, Add):
        return _add(_map_vars(node.lhs, fn), _map_vars(node.rhs, fn))
    if isinstance(node, Sub):
        return _sub(_map_vars(node.lhs, fn), _map_vars(node.rhs, fn))
    if isinstance(node, Mul):
        return _mul(_map_vars(node.lhs, fn), _map_vars(node.rhs, fn))
    if isinstance(node, Div):
        return _div(_map_vars(node.lhs, fn), _map_vars(node.rhs, fn))
    if isinstance(node, Neg):
        return _neg(_map_vars(node.arg, fn))
    if isinstance(node, Pow):
        return _pow(_map_vars(node.base, fn), node.exponent)
    if isinstance(node, Exp):
        return Exp(_map_vars(node.arg, fn))
    if isinstance(node, Log):
        return Log(_map_vars(node.arg, fn))
    if isinstance(node, AbsVal):
        return AbsVal(_map_vars(node.arg, fn))
    if isinstance(node, MinConst):
        return MinConst(_map_vars(node.arg, fn), node.bound)
    if isinstance(node, (SlotDividedDifference, ProjKernel)):
        raise FieldDomainError(
            f"variable substitution through a {type(node).__name__} node is not supported"
        )
    raise TypeError(f"unknown node type {type(node).__name__}")


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
    offsets = []
    total = 0
    for g in inners:
        offsets.append(total)
        total += g.arity
    shifted = []
    for g, off in zip(inners, offsets):
        shifted.append(_map_vars(g.root, lambda i, off=off: Var(i + off)))

    def fn(i):
        return shifted[i]

    return ScalarField(total, _map_vars(outer.root, fn))


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
    """Polynomial in several variables, exponent tuple -> coefficient.

    Zero coefficients are never stored; the zero polynomial has an empty
    table.
    """

    __slots__ = ("arity", "coeffs")

    def __init__(self, arity: int, coeffs: dict | None = None):
        self.arity = int(arity)
        table = {}
        for alpha, c in (coeffs or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != arity:
                raise ValueError(f"exponent tuple {alpha} does not match arity {arity}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            c = complex(c)
            if c != 0:
                table[alpha] = table.get(alpha, 0j) + c
                if table[alpha] == 0:
                    del table[alpha]
        self.coeffs = table

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.coeffs.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        table = dict(self.coeffs)
        for a, c in other.coeffs.items():
            table[a] = table.get(a, 0j) + c
        return MultiPoly(self.arity, table)

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
            return MultiPoly(self.arity, {a: c * other for a, c in self.coeffs.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("polynomial arities differ")
        table: dict[tuple, complex] = {}
        for a1, c1 in self.coeffs.items():
            for a2, c2 in other.coeffs.items():
                key = tuple(x + y for x, y in zip(a1, a2))
                table[key] = table.get(key, 0j) + c1 * c2
        return MultiPoly(self.arity, table)

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
        table = {}
        for alpha, c in self.coeffs.items():
            if alpha[var] == 0:
                continue
            key = alpha[:var] + (alpha[var] - 1,) + alpha[var + 1 :]
            table[key] = table.get(key, 0j) + c * alpha[var]
        return MultiPoly(self.arity, table)

    def __call__(self, *point) -> complex:
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError(f"polynomial of arity {self.arity} called with {len(point)} values")
        point = [complex(p) for p in point]
        total = 0j
        for alpha, c in self.coeffs.items():
            term = c
            for p, a in zip(point, alpha):
                term *= p**a
            total += term
        return total

    def degree(self, var: int) -> int:
        """Largest exponent of ``var``; -1 for the zero polynomial."""
        return max((alpha[var] for alpha in self.coeffs), default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        return f"MultiPoly(arity={self.arity}, terms={len(self.coeffs)})"

    def __str__(self):
        return str(poly_to_field(self))


def poly_to_field(poly: MultiPoly) -> ScalarField:
    total: Node = _ZERO
    for alpha in sorted(poly.coeffs):
        term: Node = _const(poly.coeffs[alpha])
        for var, a in enumerate(alpha):
            term = _mul(term, _pow(Var(var), a))
        total = _add(total, term)
    return ScalarField(poly.arity, total)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {"exp", "log"}


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
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
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

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise FieldParseError(f"expected {op!r}, found {val!r}")

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.parse_term()
            node = _add(node, rhs) if op == "+" else _sub(node, rhs)
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.parse_factor()
            node = _mul(node, rhs) if op == "*" else _div(node, rhs)
        return node

    def parse_factor(self) -> Node:
        if self.peek() == ("op", "-"):
            self.take()
            return _neg(self.parse_factor())
        if self.peek() == ("op", "+"):
            self.take()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            kind, val = self.take()
            if kind != "num" or not re.fullmatch(r"\d+", val):
                raise FieldParseError(f"exponent must be an integer literal, found {val!r}")
            return _pow(base, sign * int(val))
        return base

    def parse_atom(self) -> Node:
        kind, val = self.take()
        if kind == "num":
            return _const(float(val))
        if kind == "name":
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Exp(arg) if val == "exp" else Log(arg)
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
    if arity is None:
        arity = max(inferred, 1)
    elif inferred > arity:
        raise FieldParseError(
            f"text references x{inferred} but arity {arity} was requested"
        )
    return ScalarField(arity, root)
