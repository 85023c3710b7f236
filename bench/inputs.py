"""Seeded input generators and the field families the oracles know.

Everything here is plain numpy and the standard library. The package is
only asked to parse a family's text; every value an oracle needs comes
from the closed forms in :class:`Family`, never from the package.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np


def rng_for(seed: int, *tags) -> np.random.Generator:
    """An independent stream per (seed, tag...) so workloads never share draws."""
    key = hashlib.sha256(repr((int(seed),) + tags).encode()).digest()
    return np.random.default_rng(int.from_bytes(key[:8], "little"))


def draw(rng, lo: float, hi: float) -> float:
    """A constant rounded to 6 decimals, so field text and closed form agree."""
    return round(float(rng.uniform(lo, hi)), 6)


# ---------------------------------------------------------------------------
# field families with closed-form mixed partials


@dataclass(frozen=True)
class Family:
    """A scalar field of ``arity`` variables with known mixed partials.

    ``kind`` is one of
      - ``res``: 1/(s + c), where s = x1 + ... + xk
      - ``exp``: exp(c s)
      - ``log``: log(s + c)
      - ``sq``:  s^2
      - ``prod``: x1^p1 ... xk^pk with ``powers`` = (p1, ..., pk)
    For the first four the partial of multi-order j depends only on
    |j| = j1 + ... + jk, as a one-variable derivative of s.
    """

    kind: str
    arity: int
    c: float = 0.0
    powers: tuple[int, ...] = ()

    def text(self) -> str:
        s = " + ".join(f"x{l + 1}" for l in range(self.arity))
        paren = f"({s})" if self.arity > 1 else s
        if self.kind == "res":
            return f"1/{paren}" if self.c == 0 else f"1/({s} + {self.c!r})"
        if self.kind == "exp":
            return f"exp({self.c!r}*{paren})"
        if self.kind == "log":
            return f"log({s})" if self.c == 0 else f"log({s} + {self.c!r})"
        if self.kind == "sq":
            return f"{paren}^2"
        if self.kind == "prod":
            return "*".join(
                f"x{l + 1}" if p == 1 else f"x{l + 1}^{p}"
                for l, p in enumerate(self.powers)
                if p
            )
        raise ValueError(f"unknown family {self.kind!r}")

    def _derivative_of_sum(self, order: int, s):
        c = self.c
        if self.kind == "res":
            return (-1) ** order * math.factorial(order) / (s + c) ** (order + 1)
        if self.kind == "exp":
            return c**order * np.exp(c * s)
        if self.kind == "log":
            if order == 0:
                return np.log(s + c)
            return (-1) ** (order - 1) * math.factorial(order - 1) / (s + c) ** order
        if self.kind == "sq":
            return [s * s, 2 * s, 2 + 0 * s][order] if order <= 2 else 0 * s
        raise ValueError(f"family {self.kind!r} is not a function of the sum")

    def partial(self, orders, points):
        """d^orders f at ``points`` (one array per variable, broadcast together)."""
        pts = [np.asarray(p, dtype=complex) for p in points]
        if self.kind == "prod":
            out = 1.0 + 0j
            for p, j, x in zip(self.powers, orders, pts):
                if j > p:
                    return 0 * sum(pts)
                out = out * (math.factorial(p) // math.factorial(p - j)) * x ** (p - j)
            return out * (1 + 0 * sum(pts))
        return self._derivative_of_sum(sum(orders), sum(pts))

    def __call__(self, *points):
        return self.partial((0,) * self.arity, points)


# ---------------------------------------------------------------------------
# matrices with known structure


def unitary(rng, d: int) -> np.ndarray:
    """Haar-like unitary from a complex Gaussian QR with fixed phases."""
    Z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(Z)
    ph = np.diag(R) / np.abs(np.diag(R))
    return Q * ph


def separated_spectrum(rng, d: int, *, center=2.0, width=1.0, height=None,
                       scale=1.0) -> np.ndarray:
    """d points in the box center +- (width/2, height/2), times ``scale``.

    A jittered grid: d distinct cells of a g x g grid, one point in the
    middle 60% of each, so points are at least 0.4*min(width, height)/g
    apart. Unlike rejection sampling this never fails, whatever d is.
    """
    height = width if height is None else height
    g = math.ceil(math.sqrt(d))
    cells = rng.permutation(g * g)[:d]
    u = (cells % g + 0.2 + 0.6 * rng.random(d)) / g
    v = (cells // g + 0.2 + 0.6 * rng.random(d)) / g
    pts = (center - width / 2 + width * u) + 1j * (height * v - height / 2)
    return scale * pts


def conjugator(rng, d: int, skew: float = 0.25) -> np.ndarray:
    """Orthogonal times (1 + skew * Gaussian): mildly non-normal, well conditioned."""
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Q @ (np.eye(d) + skew * rng.normal(size=(d, d)))


@dataclass(frozen=True)
class Structured:
    """M = S J S^-1 with J block diagonal of Jordan blocks.

    ``blocks`` lists (eigenvalue, size); ``S`` is None when M = J exactly
    and ``unitary`` marks S^-1 = S^H.
    """

    blocks: tuple[tuple[complex, int], ...]
    S: np.ndarray | None = None
    unitary: bool = False

    @property
    def dim(self) -> int:
        return sum(size for _, size in self.blocks)

    def jordan(self) -> np.ndarray:
        J = np.zeros((self.dim, self.dim), dtype=complex)
        at = 0
        for lam, size in self.blocks:
            for i in range(size):
                J[at + i, at + i] = lam
                if i + 1 < size:
                    J[at + i, at + i + 1] = 1.0
            at += size
        return J

    def S_inv(self) -> np.ndarray:
        if self.S is None:
            return None
        return self.S.conj().T if self.unitary else np.linalg.inv(self.S)

    def matrix(self) -> np.ndarray:
        J = self.jordan()
        if self.S is None:
            return J
        return self.S @ J @ self.S_inv()

    def condition(self) -> float:
        return 1.0 if self.S is None or self.unitary else float(np.linalg.cond(self.S))


def normal_matrix(rng, d: int, **spectrum) -> Structured:
    lams = separated_spectrum(rng, d, **spectrum)
    return Structured(tuple((complex(z), 1) for z in lams), unitary(rng, d), True)


def diagonalizable_matrix(rng, d: int, **spectrum) -> Structured:
    lams = separated_spectrum(rng, d, **spectrum)
    return Structured(tuple((complex(z), 1) for z in lams), conjugator(rng, d))


def jordan_structure(rng, sizes, *, conjugate: bool, spread=1.5) -> Structured:
    """Blocks of the given sizes at separated eigenvalues near 1."""
    lams = separated_spectrum(rng, len(sizes), center=1.0, width=spread)
    blocks = tuple((complex(z), int(s)) for z, s in zip(lams, sizes))
    d = sum(sizes)
    return Structured(blocks, conjugator(rng, d) if conjugate else None)


def random_direction(rng, d: int, scale: float = 0.5) -> np.ndarray:
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(d)


# ---------------------------------------------------------------------------
# reproducibility


def digest(*parts) -> str:
    """SHA-256 over arrays (bytes), numbers and strings, in order."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()
