"""The closed loop, the grading of results and the metric arithmetic.

One caller sends the next operation only after the previous one has
returned, for a fixed wall-clock budget, cycling through the corpus.
Each attempt is timed around ``op.call()`` alone; grading against the
oracle happens after the clock stops.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

#: Margins log10(tolerance / error) are clamped to [FLOOR, CAP] digits and
#: a failed check enters at FLOOR. The floor sits a tenth of a digit above
#: zero, not at or below it, because a reported metric must never read 0.
MARGIN_FLOOR = 0.1
MARGIN_CAP = 8.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Calibrator:
    """Machine-speed probe for a shared, noisy host.

    The host's speed drifts by tens of percent over seconds as other
    tenants load it, and a run's operations drift with it. A fixed kernel
    of interpreter work, small numpy calls and larger array products - the
    mix the package spends its time in, but none of the package's code -
    is timed just before every operation. A time t is reported as
    t * NOMINAL_S / k, with k the median of the last WINDOW kernel times:
    wall time rescaled to a host where the kernel takes NOMINAL_S. Before
    a long operation the kernel runs several times (about 2% of the
    previous operation's time), so the window spans a few operations at
    most, whatever they cost. Raw wall-clock values are printed alongside.
    """

    NOMINAL_S = 1e-3
    WINDOW = 25
    #: Work done in child processes (interpreter start-up, imports, page
    #: faults) follows the host's drift about half as strongly as the
    #: kernel does: over two sets of ten cli-calls runs, the full
    #: correction overshot in fast phases and p90 spread 27%, half of it
    #: (in logarithm) left every spread at 10% or less.
    CHILD_STRENGTH = 0.5

    def __init__(self, strength: float = 1.0):
        import numpy as np

        self.strength = strength
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        self._wide = rng.normal(size=(16, 16)) + 0j
        self._recent: list[float] = []
        self.samples: list[float] = []
        for _ in range(3):  # first runs pay for cold caches; not a speed sample
            self._kernel()

    def _kernel(self):
        # about a third each of interpreter work, small complex products
        # and memory-bound array traffic (a 1 MB outer product)
        import numpy as np

        table = {}
        for i in range(1000):
            table[(i % 97, i % 13)] = table.get((i % 97, i % 13), 0) + i * i
        a = self._small
        for _ in range(30):
            a = a @ self._small
            a = a / np.abs(a).max()
        for _ in range(2):
            np.multiply.outer(self._wide, self._wide).sum()
        return table, a

    def probe(self, budget_s: float = 0.0):
        spent = 0.0
        for _ in range(self.WINDOW):
            t0 = time.perf_counter()
            self._kernel()
            k = time.perf_counter() - t0
            self.samples.append(k)
            self._recent = (self._recent + [k])[-self.WINDOW:]
            spent += k
            if spent >= budget_s:
                break

    def scale(self) -> float:
        """Factor that turns wall seconds now into reference seconds."""
        return (self.NOMINAL_S / statistics.median(self._recent)) ** self.strength


def margin(err: float, tol: float) -> float:
    if not err <= tol:  # also catches NaN
        return MARGIN_FLOOR
    if err <= 0:  # residuals such as a Lipschitz gap can be negative
        return MARGIN_CAP
    return min(max(math.log10(tol / err), MARGIN_FLOOR), MARGIN_CAP)


@dataclass
class Tally:
    """What a closed loop saw: timings, graded checks and failures."""

    count_checks: bool = False
    passed: list = field(default_factory=list)  # per attempt: did every check pass
    latencies: list = field(default_factory=list)  # reference seconds
    raw_latencies: list = field(default_factory=list)  # wall seconds
    attempted: int = 0
    failed: int = 0
    margins: list = field(default_factory=list)
    # template -> {count, ids, first reason, defect label}
    failures: dict = field(default_factory=dict)
    wraps: int = 0
    loop_s: float = 0.0

    def record(self, op, seconds, result, raised, scale=1.0):
        self.raw_latencies.append(seconds)
        self.latencies.append(seconds * scale)
        if raised is not None:
            pairs = [(math.inf, 0.0)]
            reason = f"{type(raised).__name__}: {str(raised).splitlines()[0][:80] if str(raised) else ''}"
        else:
            pairs = op.check(result)
            reason = ""
        ok_op = True
        units = [[p] for p in pairs] if self.count_checks else [pairs]
        for unit in units:
            ok = all(err <= tol for err, tol in unit)
            self.attempted += 1
            self.margins.append(min(margin(err, tol) for err, tol in unit))
            if not ok:
                self.failed += 1
                ok_op = False
        self.passed.append(ok_op)
        if ok_op:
            return
        if not reason:
            worst = max(pairs, key=lambda p: p[0] / p[1] if p[1] > 0 else math.inf)
            reason = f"error {worst[0]:.2e} > tolerance {worst[1]:.2e}"
        entry = self.failures.setdefault(
            op.template, {"count": 0, "ids": [], "reason": reason, "defect": op.defect})
        entry["count"] += 1
        if op.id not in entry["ids"]:
            entry["ids"].append(op.id)


def attempt(op, tracer=None):
    """Run one operation; return (seconds, result, exception)."""
    if tracer is not None:
        tracer.begin(op.id)
    t0 = time.perf_counter()
    try:
        result, raised = op.call(), None
    except Exception as exc:  # the loop must survive any failing operation
        result, raised = None, exc
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end()
    return seconds, result, raised


def closed_loop(ops, seconds: float, count_checks: bool, tracer=None, calibrator=None) -> Tally:
    tally = Tally(count_checks=count_checks)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    spent = 0.0
    while time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        scale = 1.0
        if calibrator is not None:
            calibrator.probe(budget_s=0.02 * spent)
            scale = calibrator.scale()
        spent, result, raised = attempt(op, tracer)
        tally.record(op, spent, result, raised, scale)
        i += 1
    tally.loop_s = time.perf_counter() - start
    tally.wraps = (i - 1) // len(ops) if i else 0
    return tally


def probe(ops) -> Tally:
    """Run each known-defect operation once, untimed, and grade it."""
    tally = Tally()
    for op in ops:
        tally.record(op, *attempt(op))
    return tally


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (the 'inclusive' rule)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def whole_cycles(n: int, cycle: int) -> int:
    """How many of n attempts the timing metrics use.

    Operations cost very different amounts, so a trailing partial cycle
    of templates would tilt the mix by where the deadline fell; it is
    left out unless no cycle completed.
    """
    return n - n % cycle if n >= cycle else n


def throughput(tally: Tally, cycle: int, latencies=None) -> float:
    """Passed operations per second of operation time, over whole cycles."""
    lat = tally.latencies if latencies is None else latencies
    n = whole_cycles(len(lat), cycle)
    busy = sum(lat[:n])
    return sum(tally.passed[:n]) / busy if busy > 0 else 0.0


def end_to_end(tally: Tally, cycle: int, setup_s: float, peak_rss_mb: float) -> dict:
    n = whole_cycles(len(tally.latencies), cycle)
    lat_ms = [1e3 * s for s in tally.latencies[:n]]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (throughput(tally, cycle), "1/s"),
        "latency_p50_ms": (quantile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "margin_digits_p10": (quantile(tally.margins, 0.1), "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def machine_record() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }
