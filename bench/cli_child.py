"""Run the command line under the tracer, in a child process.

    BENCH_TRACE_OUT=totals.json BENCH_OP=id python3 bench/cli_child.py <matfn args>

The traced form of ``python -m matfn.cli``: it times the import of
``matfn.cli`` (numpy included) as the span ``cli.import``, runs
``cli.main`` with every public function traced, writes the tracer's
totals to BENCH_TRACE_OUT and exits with the command's code.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import matfn.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

tracer = Tracer(max_spans=0)
tracer.install()
tracer.op = os.environ.get("BENCH_OP", "")
for table in (tracer.self_s, tracer.total_s, tracer.incl_s):
    table["cli.import"] += import_s
tracer.calls["cli.import"] += 1

t1 = time.perf_counter()
code = 1
try:
    code = matfn.cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse usage errors exit here
    code = exc.code if isinstance(exc.code, int) else 1
finally:
    totals = tracer.totals()
    totals["spanned_s"] = import_s + (time.perf_counter() - t1)
    with open(os.environ["BENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(totals, fh)
sys.exit(code)
