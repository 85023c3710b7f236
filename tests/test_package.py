"""The package's public surface."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import matfn

#: The spectral decision; no other public callable may take a tolerance.
SPECTRAL_DECISION = {"analyze"}


def test_all_names_resolve_once():
    assert len(matfn.__all__) == len(set(matfn.__all__))
    missing = [name for name in matfn.__all__ if not hasattr(matfn, name)]
    assert missing == []


def test_tolerances_are_set_only_in_the_spectral_decision():
    knobs = {"cluster_tol", "rank_tol", "commute_tol"}
    offenders = {}
    for name in matfn.__all__:
        obj = getattr(matfn, name)
        if name in SPECTRAL_DECISION or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # the exception types have no signature
            continue
        found = knobs & set(params)
        if found:
            offenders[name] = sorted(found)
    assert offenders == {}


def _fresh_interpreter(code: str, *args: str) -> str:
    """stdout of ``code`` run, with ``args``, by a new Python that imports this package."""
    src = str(Path(matfn.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_the_upper_layers_unloaded():
    out = _fresh_interpreter("import sys, matfn.cli; print(' '.join(sys.modules))")
    loaded = set(out.split())
    assert "matfn.cli" in loaded
    unused = {"matfn.verify", "matfn.algebraic_ops", "matfn.antisym", "matfn.calculus"}
    assert unused & loaded == set()


def test_star_import_binds_every_public_name():
    out = _fresh_interpreter(
        "import matfn\nfrom matfn import *\n"
        "print(' '.join(n for n in matfn.__all__ if n not in globals()))"
    )
    assert out.split() == []


_EVERY_SUBCOMMAND = """
import argparse, contextlib, io, os, sys
import numpy as np
from matfn import cli, fileio

parser = cli._build_parser()
(sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
for name in sub.choices:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            parser.parse_args([name, "--help"])
        except SystemExit as exc:
            assert exc.code == 0, name
m = os.path.join(sys.argv[1], "m.json")
fileio.save_json(m, fileio.matrix_to_obj(np.eye(1, dtype=complex)))
# one command per layer that a handler imports when it runs
for argv in (["det-traces", "--mat", m],
             ["projderiv", "--mat", m, "--dir", m, "--eigen", "1", "--order", "0"],
             ["contract", "--theorem", "trace", "--func", "x1*x2", "--mat", m, "--mat", m,
              "--slot", "1"],
             ["verify", "--suite", "paths", "--trials", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(" ".join(sub.choices))
"""


def test_every_subcommand_parses_and_runs_its_imports_in_a_fresh_interpreter(tmp_path):
    assert "verify" in _fresh_interpreter(_EVERY_SUBCOMMAND, str(tmp_path)).split()
