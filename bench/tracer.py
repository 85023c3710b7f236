"""Spans around calls into the package's public functions.

The benchmark's own files install this; the package itself is not
edited. ``install`` wraps every public function a layer module defines
and rebinds the wrapper wherever the package holds the original: in the
defining module, in every module that imported it by name (``funcalc``
binds ``analyze``, ``calculus`` binds ``f_otimes`` ...), in the package
namespace and in the ``verify.SUITES`` table. Without the rebinding,
calls between modules would go uncounted.

Spans are recorded only while an operation is open, so set-up and
oracle work never show up. A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spectral", "scalarfield", "interp", "tensor", "funcalc", "calculus",
          "algebraic_ops", "antisym", "verify", "fileio", "cli")
CONTRACTIONS = ("contract_pair", "trace_slot", "contract_adjacent_through",
                "apply_vectors", "conjugate_slots")
ORACLE_ROUTES = ("f_otimes_diagonalizable", "jordan_closed_form")


class Tracer:
    """Records spans (name, start, end, parent, op) and per-function totals."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op: str | None = None
        # open spans: [id, child time, name, start, time in other layers' spans]
        self._stack: list[list] = []
        self._next_id = 0
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.incl_s = defaultdict(float)  # duration minus nested other-layer spans
        self.counters = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.worst: dict[str, float] = {}
        self._fields_seen: set = set()
        self._op_matrices: set = set()
        self._patches: list = []

    # -- operations ------------------------------------------------------

    def begin(self, op_id: str):
        self.op = op_id
        self._op_matrices = set()
        self._open("bench.op")

    def end(self):
        self._close(ok=True)
        self.op = None

    def _open(self, name):
        self._stack.append([self._next_id, 0.0, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self, ok: bool):
        t1 = time.perf_counter()
        span_id, child, name, t0, foreign = self._stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.incl_s[name] += dur - foreign
        if not ok:
            self.errors[name] += 1
        parent = None
        if self._stack:
            up = self._stack[-1]
            parent = up[0]
            up[1] += dur
            up[4] += dur if layer_of(up[2]) != layer_of(name) else foreign
        if len(self.spans) < self.max_spans:
            self.spans.append((name, t0, t1, span_id, parent, self.op))
        else:
            self.dropped += 1

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            tracer._open(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(ok)
            if hook is not None:
                # hook time belongs to the tracer, not to the enclosing span
                h0 = time.perf_counter()
                hook(tracer, _Args(args, kwargs), out)
                spent = time.perf_counter() - h0
                tracer.self_s["bench.hooks"] += spent
                if tracer._stack:
                    tracer._stack[-1][1] += spent
                    tracer._stack[-1][4] += spent
            return out

        traced.__wrapped_original__ = fn
        return traced

    def install(self):
        import matfn

        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"matfn.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [matfn] + [importlib.import_module(f"matfn.{l}") for l in LAYERS]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, originals[id(obj)][1])
        suites = importlib.import_module("matfn.verify").SUITES
        for key, obj in list(suites.items()):
            if id(obj) in originals:
                self._patches.append((suites, key, obj))
                suites[key] = originals[id(obj)][1]

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            if isinstance(ns, dict):
                ns[attr] = obj
            else:
                setattr(ns, attr, obj)
        self._patches = []

    # -- merging (spans from child processes) ----------------------------

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "errors": dict(self.errors),
                "self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "incl_s": dict(self.incl_s),
                "counters": dict(self.counters), "maxima": dict(self.maxima),
                "worst": dict(self.worst)}

    def adopt(self, totals: dict):
        """Merge a child process's totals; its spanned time leaves the open span's self time."""
        self.merge(totals)
        if self._stack:
            self._stack[-1][1] += totals["spanned_s"]
            self._stack[-1][4] += totals["spanned_s"]

    def merge(self, totals: dict):
        for key in ("calls", "errors", "self_s", "total_s", "incl_s", "counters"):
            mine = getattr(self, key)
            for name, v in totals[key].items():
                mine[name] += v
        for key in ("maxima", "worst"):
            mine = getattr(self, key)
            for name, v in totals[key].items():
                mine[name] = max(mine.get(name, -math.inf), v)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _raise_max(tracer, key, value):
    tracer.maxima[key] = max(tracer.maxima.get(key, -math.inf), value)


class _Args:
    """A call's arguments by position or by name, as the hooks need them."""

    def __init__(self, args, kwargs):
        self.args, self.kwargs = args, kwargs

    def get(self, i: int, name: str):
        return self.args[i] if i < len(self.args) else self.kwargs[name]


def _poly_tensor_eval(tracer, args, out):
    poly, mats = args.get(0, "poly"), args.get(1, "mats")
    cells = 1
    for M in mats:
        cells *= np.asarray(M).shape[0] ** 2
    monomials = len(poly.coeffs)
    tracer.counters["tensor.assemble_madds"] += monomials * cells
    # computed, not measured: each monomial writes its k-fold outer product
    # and reads and writes the running total, 16 bytes per complex entry
    tracer.counters["tensor.assemble_bytes"] += 3 * 16 * monomials * cells


def _derivative_grid(tracer, args, out):
    f, spectra = args.get(0, "f"), args.get(1, "spectra")
    tracer.counters["scalarfield.grid_entries"] += len(out)
    orders = [int(r) - 1 for entries in spectra for _, r in entries]
    _raise_max(tracer, "scalarfield.max_order", max(orders, default=0))
    tracer.counters["scalarfield.grid_calls"] += 1
    if f in tracer._fields_seen:
        tracer.counters["scalarfield.grid_repeats"] += 1
    else:
        tracer._fields_seen.add(f)


def _hermite_basis(tracer, args, out):
    _raise_max(tracer, "interp.cond_max_log10", math.log10(max(out.condition, 1.0)))
    _raise_max(tracer, "interp.basis_size_max", out.size)


def _analyze(tracer, args, out):
    key = np.ascontiguousarray(np.asarray(args.get(0, "M"), dtype=complex)).tobytes()
    tracer.counters["spectral.analyses"] += 1
    if key in tracer._op_matrices:
        tracer.counters["spectral.repeats"] += 1
    else:
        tracer._op_matrices.add(key)


def _antisym_projector(tracer, args, out):
    dim, k = args.get(0, "dim"), args.get(1, "k")
    tracer.counters["antisym.projector_entries"] += dim ** (2 * k)


def _suite(name):
    def hook(tracer, args, out):
        # a residual can be a signed gap (lipschitz); below zero it is simply met
        ratios = [max(r.residual, 0.0) / r.bound if r.bound > 0 else math.inf for r in out]
        tracer.worst[name] = max(tracer.worst.get(name, -math.inf), max(ratios, default=0.0))
    return hook


_HOOKS = {
    "tensor.poly_tensor_eval": _poly_tensor_eval,
    "scalarfield.derivative_grid": _derivative_grid,
    "interp.hermite_basis": _hermite_basis,
    "spectral.analyze": _analyze,
    "antisym.antisym_projector": _antisym_projector,
}
SUITE_NAMES = ("paths", "product", "compose", "contr", "diff", "lipschitz", "antisym", "zero")
for _name in SUITE_NAMES:
    _HOOKS[f"verify.suite_{_name}"] = _suite(_name)
