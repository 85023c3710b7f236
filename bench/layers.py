"""Per-layer metrics from a traced loop.

The layers are the package modules. Every layer reports calls, self
time, self-time share of the traced loop and calls that ended in an
exception. The extra metrics below are the ones tied, in README.md, to
the end-to-end metric each should move.
"""

from __future__ import annotations

import math

from tracer import CONTRACTIONS, LAYERS, ORACLE_ROUTES, SUITE_NAMES, layer_of

#: name -> (unit, better); the order is the order of the output
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.self_frac"] = ("frac", "lower")
    PER_LAYER[f"{_layer}.errors"] = ("count", "lower")
PER_LAYER.update({
    "bench.self_frac": ("frac", "lower"),
    "tensor.poly_tensor_eval.self_s": ("s", "lower"),
    "tensor.assemble_madds": ("madd", "lower"),
    "tensor.assemble_bytes": ("B", "lower"),
    "tensor.contract.self_s": ("s", "lower"),
    "scalarfield.derivative_grid.self_s": ("s", "lower"),
    "scalarfield.grid_entries": ("count", "lower"),
    "scalarfield.max_order": ("order", "lower"),
    "scalarfield.grid_repeat_frac": ("frac", "lower"),
    "interp.hermite_basis.self_s": ("s", "lower"),
    "interp.interpolate.self_s": ("s", "lower"),
    "interp.cond_max_log10": ("log10", "lower"),
    "interp.basis_size_max": ("count", "lower"),
    "spectral.analyze.self_s": ("s", "lower"),
    "spectral.repeat_frac": ("frac", "lower"),
    "funcalc.f_otimes.self_s": ("s", "lower"),
    "funcalc.oracle.self_s": ("s", "lower"),
    "antisym.antisym_projector.self_s": ("s", "lower"),
    "antisym.wedge_basis.self_s": ("s", "lower"),
    "antisym.projector_entries": ("count", "lower"),
})
for _suite in SUITE_NAMES:
    PER_LAYER[f"verify.{_suite}.wall_s"] = ("s", "lower")
    PER_LAYER[f"verify.{_suite}.worst_ratio"] = ("ratio", "lower")
PER_LAYER.update({
    "cli.import_s": ("s", "lower"),
    "cli.compute_frac": ("frac", "higher"),
    "defects.failing": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
})

COMPUTE_LAYERS = tuple(l for l in LAYERS if l not in ("cli", "fileio"))


def per_layer(tr, tally):
    """Metrics (name -> (value, unit)) and the names not exercised here.

    ``<layer>.<function>.self_s`` is the function's time minus the time of
    nested calls into other layers (its own layer's helpers included).
    ``defects.failing`` and ``trace.overhead_frac`` are filled in by the caller.
    """
    wall = tally.loop_s
    values: dict[str, float] = {}
    called: set[str] = set()

    def put(name, value, was_called):
        values[name] = value
        if was_called:
            called.add(name)

    layer_self = {}
    for layer in LAYERS:
        names = [n for n in tr.calls if layer_of(n) == layer]
        calls = sum(tr.calls[n] for n in names)
        self_s = sum(tr.self_s[n] for n in names)
        layer_self[layer] = self_s
        for key, value in (("calls", calls), ("self_s", self_s),
                           ("self_frac", self_s / wall), ("errors", sum(tr.errors[n] for n in names))):
            put(f"{layer}.{key}", value, calls > 0)
    put("bench.self_frac", 1.0 - sum(layer_self.values()) / wall, True)

    def fn_time(*names):
        return sum(tr.incl_s.get(n, 0.0) for n in names), any(tr.calls.get(n) for n in names)

    for metric, fns in (
        ("tensor.poly_tensor_eval.self_s", ["tensor.poly_tensor_eval"]),
        ("tensor.contract.self_s", [f"tensor.{n}" for n in CONTRACTIONS]),
        ("scalarfield.derivative_grid.self_s", ["scalarfield.derivative_grid"]),
        ("interp.hermite_basis.self_s", ["interp.hermite_basis"]),
        ("interp.interpolate.self_s", ["interp.interpolate"]),
        ("spectral.analyze.self_s", ["spectral.analyze"]),
        ("funcalc.f_otimes.self_s", ["funcalc.f_otimes"]),
        ("funcalc.oracle.self_s", [f"funcalc.{n}" for n in ORACLE_ROUTES]),
        ("antisym.antisym_projector.self_s", ["antisym.antisym_projector"]),
        ("antisym.wedge_basis.self_s", ["antisym.wedge_basis"]),
    ):
        put(metric, *fn_time(*fns))

    c, mx = tr.counters, tr.maxima
    assembled = tr.calls.get("tensor.poly_tensor_eval", 0) > 0
    put("tensor.assemble_madds", c.get("tensor.assemble_madds", 0.0), assembled)
    put("tensor.assemble_bytes", c.get("tensor.assemble_bytes", 0.0), assembled)
    grids = c.get("scalarfield.grid_calls", 0.0)
    put("scalarfield.grid_entries", c.get("scalarfield.grid_entries", 0.0), grids > 0)
    put("scalarfield.max_order", mx.get("scalarfield.max_order", 0.0), grids > 0)
    put("scalarfield.grid_repeat_frac",
        c.get("scalarfield.grid_repeats", 0.0) / grids if grids else 0.0, grids > 0)
    bases = tr.calls.get("interp.hermite_basis", 0) > 0
    put("interp.cond_max_log10", mx.get("interp.cond_max_log10", 0.0), bases)
    put("interp.basis_size_max", mx.get("interp.basis_size_max", 0.0), bases)
    analyses = c.get("spectral.analyses", 0.0)
    put("spectral.repeat_frac",
        c.get("spectral.repeats", 0.0) / analyses if analyses else 0.0, analyses > 0)
    put("antisym.projector_entries", c.get("antisym.projector_entries", 0.0),
        tr.calls.get("antisym.antisym_projector", 0) > 0)

    for suite in SUITE_NAMES:
        fn = f"verify.suite_{suite}"
        n = tr.calls.get(fn, 0)
        put(f"verify.{suite}.wall_s", tr.total_s.get(fn, 0.0) / n if n else 0.0, n > 0)
        put(f"verify.{suite}.worst_ratio", tr.worst.get(suite, 0.0), n > 0)

    imports = tr.calls.get("cli.import", 0)
    put("cli.import_s", tr.self_s.get("cli.import", 0.0) / imports if imports else 0.0, imports > 0)
    compute = sum(layer_self[l] for l in COMPUTE_LAYERS)
    put("cli.compute_frac", compute / wall if imports else 0.0, imports > 0)

    metrics = {name: (float(values[name]), PER_LAYER[name][0])
               for name in PER_LAYER if name in values}
    not_called = [name for name in metrics if name not in called]
    for name, (v, _) in metrics.items():
        if not math.isfinite(v):
            raise ValueError(f"per-layer metric {name} is not finite: {v}")
    return metrics, not_called
