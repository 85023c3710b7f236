"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Human-readable lines start with '#'; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones from a separate traced loop. See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3
#: Operations whose traced and untraced outputs are compared bytewise.
OVERHEAD_SAMPLE = 6


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["verify-suites", "wide-slots", "deep-orders", "cli-calls"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _say(line: str):
    print(f"# {line}", flush=True)


def fingerprint(result) -> bytes:
    """Bytes that identify an operation's output, for traced/untraced comparison."""
    import numpy as np

    if isinstance(result, tuple):
        return b"|".join(fingerprint(r) for r in result)
    if isinstance(result, (bytes, str)):
        return result.encode() if isinstance(result, str) else result
    data = getattr(result, "data", result)
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).tobytes()
    return repr(result).encode()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "matfn" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'matfn'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    # Single-threaded BLAS, set before numpy loads; CLI children inherit it.
    for var in harness.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for this process and its children, so the calibration kernel
    # runs where the operations run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    # rank-decision warnings are diagnostics, not results
    warnings.simplefilter("ignore")

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import matfn
    import matfn.cli  # noqa: F401
    import workloads  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(matfn.__file__).resolve().parent != (SRC / "matfn").resolve():
        print(f"bench: imported matfn from {matfn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _build(args, workdir, tr):
    import workloads

    if args.workload == "cli-calls":
        return workloads.build_cli_calls(args.seed, args.seconds, SRC, workdir, tracer=tr)
    builder = {"verify-suites": workloads.build_verify_suites,
               "wide-slots": workloads.build_wide_slots,
               "deep-orders": workloads.build_deep_orders}[args.workload]
    return builder(args.seed, args.seconds)


def _run(args, import_s, workdir) -> int:
    tr = None
    if args.trace:
        from tracer import Tracer

        tr = Tracer()
    cal = harness.Calibrator(
        harness.Calibrator.CHILD_STRENGTH if args.workload == "cli-calls" else 1.0)
    cal.probe(budget_s=1.0)  # fills the window
    reps, corpus = [], None
    for _ in range(SETUP_REPS):
        cal.probe(budget_s=0.01)
        t = time.perf_counter()
        built = _build(args, workdir, tr)
        reps.append(time.perf_counter() - t)
        if corpus is None:
            corpus = built
        elif built.digest != corpus.digest:
            print("bench: the same seed built different inputs", file=sys.stderr)
            return 2
    t = time.perf_counter()
    for op in corpus.warmup:
        harness.attempt(op)
    warmup_s = time.perf_counter() - t
    cal.probe(budget_s=0.01)
    setup_wall_s = import_s + statistics.median(reps) + warmup_s
    setup_s = setup_wall_s * cal.scale()

    _say(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    _say("machine " + json.dumps(harness.machine_record(), sort_keys=True))
    _say(f"inputs sha256={corpus.digest} ops_in_corpus={len(corpus.ops)}")
    _say(f"setup import_s={import_s:.4f} build_s={[round(r, 4) for r in reps]} "
         f"(median of {SETUP_REPS}) warmup_s={warmup_s:.4f}")

    if tr is not None:
        import layers

        tr.install()
        try:
            tally = harness.closed_loop(corpus.ops, args.seconds, corpus.count_checks, tracer=tr)
            metrics, not_called = layers.per_layer(tr, tally)
            # after the loop, so the sample's spans do not enter the metrics
            overhead, identical = _overhead(corpus, tr, cal)
        finally:
            tr.uninstall()
        defects = harness.probe(corpus.defects)
        metrics["defects.failing"] = (float(defects.failed), "count")
        metrics["trace.overhead_frac"] = (overhead, "frac")
        _write_spans(args, tr)
        _say(f"traced ops={len(tally.latencies)} loop_s={tally.loop_s:.3f} "
             f"spans={len(tr.spans)} dropped={tr.dropped} outputs_identical={identical}")
        if not_called:
            _say("not called on this workload (reported as 0): " + ", ".join(not_called))
        correct = identical and tally.failed == 0
    else:
        tally = harness.closed_loop(corpus.ops, args.seconds, corpus.count_checks,
                                    calibrator=cal)
        rss = harness.peak_rss_mb(children=args.workload == "cli-calls")
        metrics = harness.end_to_end(tally, corpus.cycle, setup_s, rss)
        n = harness.whole_cycles(len(tally.latencies), corpus.cycle)
        lat = tally.latencies[:n]
        p90 = harness.quantile(lat, 0.9)
        raw = [1e3 * x for x in tally.raw_latencies[:n]]
        kernel = sorted(cal.samples)
        _say(f"samples latency={n} (whole cycles of {corpus.cycle} of {len(tally.latencies)} timed) "
             f"beyond_p90={sum(1 for x in lat if x > p90)} "
             f"graded={tally.attempted} corpus_wraps={tally.wraps}")
        _say(f"wall clock (not rescaled): setup_s={setup_wall_s:.4f} "
             f"latency_p50_ms={harness.quantile(raw, 0.5):.4f} "
             f"latency_p90_ms={harness.quantile(raw, 0.9):.4f} "
             f"ops_per_s={harness.throughput(tally, corpus.cycle, tally.raw_latencies):.4f}")
        _say(f"calibration kernel: {len(kernel)} probes, median {1e3 * harness.quantile(kernel, 0.5):.4f} ms, "
             f"p10 {1e3 * harness.quantile(kernel, 0.1):.4f} ms, p90 {1e3 * harness.quantile(kernel, 0.9):.4f} ms "
             f"(reference {1e3 * cal.NOMINAL_S:g} ms)")
        _say(f"fail_frac={tally.failed / tally.attempted:.6f} "
             f"({tally.failed} of {tally.attempted} {'checks' if corpus.count_checks else 'operations'})")
        defects = harness.probe(corpus.defects)
        correct = tally.failed == 0

    _report_failures(tally)
    if defects.attempted:
        _say(f"defect probe (untimed, not in attempted/failed): {defects.failed} of "
             f"{defects.attempted} known-defect operations fail")
        for op, ok in zip(corpus.defects, defects.passed):
            if ok:
                _say(f"  passes on this seed's input: {op.id} ({op.defect})")
        _report_failures(defects)
    for name, (value, unit) in metrics.items():
        _say(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _report_failures(tally):
    for template, f in sorted(tally.failures.items()):
        tag = f"known defect: {f['defect']}" if f["defect"] else "UNEXPECTED"
        _say(f"FAIL {template} x{f['count']} ({tag}): {f['reason']}")
        _say(f"  ids: {' '.join(f['ids'])}")


def _overhead(corpus, tr, cal):
    """Run a sample untraced and traced; compare output bytes and time.

    The sample comes from the end of the corpus, which the timed loop
    does not reach, so fresh-field operations stay fresh there.
    """
    sample = corpus.ops[-OVERHEAD_SAMPLE:]
    plain = traced = 0.0
    identical = True

    def timed(op, tracer=None):
        cal.probe(budget_s=0.05)
        spent, result, raised = harness.attempt(op, tracer)
        return spent * cal.scale(), result, raised

    for op in sample:
        untraced = dataclasses.replace(op, call=op.plain) if op.plain else op
        tr.uninstall()
        harness.attempt(untraced)  # warm: caches filled before any timed call
        best = [math.inf, math.inf]
        # alternate, rescale, and keep each side's fastest of three
        for _ in range(3):
            tr.uninstall()
            s0, r0, e0 = timed(untraced)
            tr.install()
            s1, r1, e1 = timed(op, tr)
            best = [min(best[0], s0), min(best[1], s1)]
        plain += best[0]
        traced += best[1]
        same = (type(e0) is type(e1)) if (e0 or e1) else fingerprint(r0) == fingerprint(r1)
        if not same:
            identical = False
            _say(f"traced output differs from untraced on {op.id}")
    return (traced / plain - 1.0 if plain > 0 else 0.0), identical


def _write_spans(args, tr):
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, span_id, parent, op in tr.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "id": span_id,
                                 "parent": parent, "op": op}) + "\n")
    _say(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
