"""The four workloads as seeded operation corpora.

A workload's ``build(seed, seconds)`` returns a :class:`Corpus`: the
operations the closed loop cycles through, each with its oracle already
computed, plus a separate warm-up list and the known-defect operations
of the defect probe. Building is the set-up that
``setup_s`` times. Operations call the package through module attributes
at call time, so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import matfn
from matfn import antisym, calculus, cli, fileio, funcalc, scalarfield, tensor, verify

import inputs as I
import oracles as O


@dataclass
class Op:
    """One timed operation: ``call`` runs the package, ``check`` grades it.

    ``check(result)`` returns (error, tolerance) pairs; a pair fails when
    error > tolerance. ``inputs`` (field text, matrices) feed the corpus
    digest. ``defect`` names the known defect an operation reproduces;
    such operations run only in the defect probe, never in the timed loop.
    """

    id: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    inputs: tuple = ()
    defect: str = ""
    plain: Callable[[], Any] | None = None  # untraced variant, where ``call`` traces

    @property
    def template(self) -> str:
        return self.id.split(":", 1)[-1]


@dataclass
class Corpus:
    ops: list
    warmup: list
    digest: str
    cycle: int  # operations per round of templates
    count_checks: bool = False  # verify-suites grades checks, not calls
    defects: list = field(default_factory=list)  # run once, untimed, after the loop


def _array(result) -> np.ndarray:
    if isinstance(result, tensor.OperatorTensor):
        return result.data
    return np.asarray(result, dtype=complex)


def _against(ref, kappa):
    tol = O.tolerance(kappa)
    return lambda result: [(O.rel_err(_array(result), ref), tol)]


def _field(family):
    return scalarfield.parse_field(family.text(), family.arity)


def _chain(T) -> np.ndarray:
    """Oracle side of ``chain_contract``: sum T[i,a,a,b,b,...,j]."""
    k = T.ndim // 2
    letters = "abcdefghijklmnop"
    sub = ["i"] + [letters[l] for l in range(k - 1) for _ in (0, 1)] + ["j"]
    return np.einsum("".join(sub) + "->ij", T)


def _trace_slot(T, slot: int) -> np.ndarray:
    k = T.ndim // 2
    letters = "abcdefghijklmnop"
    sub = list(letters[: 2 * k])
    sub[2 * slot + 1] = sub[2 * slot]
    out = "".join(letters[2 * l] + letters[2 * l + 1] for l in range(k) if l != slot)
    return np.einsum("".join(sub) + "->" + out, T)


def _kron_sum(mats) -> np.ndarray:
    """M_1 (x) I (x) ... + ... + I (x) ... (x) M_k, the matrix view of x1 + ... + xk."""
    dims = [M.shape[0] for M in mats]
    n = int(np.prod(dims))
    K = np.zeros((n, n), dtype=complex)
    for l, M in enumerate(mats):
        term = np.eye(1)
        for q, d in enumerate(dims):
            term = np.kron(term, M if q == l else np.eye(d))
        K += term
    return K


def _from_view(V, dims) -> np.ndarray:
    k = len(dims)
    split = V.reshape(tuple(dims) + tuple(dims))
    perm = []
    for l in range(k):
        perm.extend([l, k + l])
    return np.transpose(split, perm)


def _resolvent_frechet(c, mats, slot, H):
    """d/dt of (K + c)^-1 with slot ``slot`` moved along H: -R E R."""
    dims = [M.shape[0] for M in mats]
    B = _kron_sum(mats) + c * np.eye(int(np.prod(dims)))
    R = np.linalg.inv(B)
    E = np.eye(1)
    for q, d in enumerate(dims):
        E = np.kron(E, H if q == slot else np.eye(d))
    kappa = float(np.linalg.cond(B)) ** 2 * B.shape[0]
    return _from_view(-R @ E @ R, dims), kappa


# ---------------------------------------------------------------------------
# deep-orders: one- and two-slot calls at high order or dimension, fresh fields

#: The spectral box of the package's own verify corpora (Re in [-2, 2],
#: Im in [-1, 1]); used wherever an operation measures speed
#: rather than the spectral defects of deep-orders.
WIDE_SPECTRUM = {"center": 0.0, "width": 4.0, "height": 2.0}

# Known defect classes. Operations that reproduce one fail at the commit
# that defined the benchmark; they run in the defect probe, once per run
# and untimed, and never in the timed loop, where any failure makes the
# run incorrect.
ACCURACY = "silent accuracy loss on clustered spectra (Baseline: d=14 normal)"
CLUSTERING = "near-defective input split by clustering (Baseline: J4 + 1e-14)"
HIGH_ORDER = "derivative order 8 and up (Baseline: 11x11 Jordan 1/(x1+5))"

# Templates are split by these classes. A Jordan block of size s with
# the family's closed form needs derivatives up to order s - 1, so sizes
# 9-11 are HIGH_ORDER; normal matrices of d >= 12 in the default unit box
# of spectra, and the two-slot d = 8 resolvent (64 eigenvalue sums), are
# ACCURACY; conjugated blocks are CLUSTERING.
DEEP_JORDAN = [  # (block size, family), timed
    (5, "res"), (6, "log"), (7, "exp"), (7, "res"), (8, "log"),
]
DEEP_JORDAN_HIGH = [(9, "res"), (9, "exp"), (10, "log"), (11, "exp")]  # probe
DEEP_NORMAL = [  # (dim, family, spectral scale), timed
    (8, "res", 1.0), (8, "exp", 4.0), (8, "log", 8.0),
]
DEEP_NORMAL_HIGH = [  # probe
    (12, "res", 1.0), (12, "log", 8.0), (16, "exp", 1.0), (16, "res", 4.0),
]
DEEP_CURVE = [("curve", 2, 4), ("curve", 3, 3), ("curve", 4, 2),
              ("trace", 2, 4), ("trace", 3, 3), ("trace", 4, 3)]
DEEP_PERTURB = [("projector", 2, 6), ("projector", 3, 8),
                ("eigenvalue", 2, 7), ("eigenvalue", 3, 8)]


def _fresh_family(rng, kind, arity=1, scale=1.0):
    # shifts keep poles and branch cuts at least 1 away from the spectra
    if kind == "res":
        return I.Family("res", arity, I.draw(rng, 2.0, 4.0))
    if kind == "exp":
        return I.Family("exp", arity, I.draw(rng, 0.2, 0.6) / scale)
    if kind == "log":
        return I.Family("log", arity, I.draw(rng, 1.5, 3.0))
    raise ValueError(kind)


def _deep_jordan(rng, tag, size, kind, conj=False):
    st = I.jordan_structure(rng, [size, 2], conjugate=conj, spread=3.0)
    fam = _fresh_family(rng, kind)
    f, M = _field(fam), st.matrix()
    ref, kappa = O.tensor_extension(fam, [st])
    defect = CLUSTERING if conj else HIGH_ORDER if size >= 9 else ""
    return Op(f"{tag}:jordan{size}{'c' if conj else ''}-{kind}",
              lambda: matfn.f_otimes(f, [M]), _against(ref, kappa), (fam.text(), M), defect)


def _deep_normal(rng, tag, d, kind, scale):
    st = I.normal_matrix(rng, d, scale=scale)
    fam = _fresh_family(rng, kind, scale=scale)
    f, M = _field(fam), st.matrix()
    ref, kappa = O.tensor_extension(fam, [st])
    return Op(f"{tag}:normal{d}-{kind}-s{scale:g}", lambda: matfn.f_otimes(f, [M]),
              _against(ref, kappa), (fam.text(), M), ACCURACY if d >= 12 else "")


def _deep_two_slot(rng, tag, kind):
    if kind == "jordan":
        sts = [I.jordan_structure(rng, [5], conjugate=False, spread=3.0),
               I.jordan_structure(rng, [4, 2], conjugate=False, spread=3.0)]
        fam = _fresh_family(rng, "exp", arity=2)
    else:
        sts = [I.normal_matrix(rng, 8, scale=2.0) for _ in range(2)]
        fam = _fresh_family(rng, "res", arity=2)
    f, mats = _field(fam), [st.matrix() for st in sts]
    ref, kappa = O.tensor_extension(fam, sts)
    return Op(f"{tag}:two-slot-{kind}-{fam.kind}",
              lambda: matfn.f_otimes(f, mats), _against(ref, kappa), (fam.text(), *mats),
              ACCURACY if kind == "normal" else "")


def _deep_curve(rng, tag, what, n, d):
    st = I.normal_matrix(rng, d, **WIDE_SPECTRUM)
    M, H = st.matrix(), I.random_direction(rng, d)
    fam = I.Family("res", 1, I.draw(rng, 4.0, 6.0))
    f = _field(fam)
    ref, kappa = O.resolvent_curve(M, H, fam.c, n)
    if what == "curve":
        return Op(f"{tag}:curve{n}-d{d}", lambda: calculus.nth_derivative_curve(f, M, H, n),
                  _against(ref, kappa), (fam.text(), M, H))
    return Op(f"{tag}:trace{n}-d{d}", lambda: calculus.trace_derivative(f, M, H, n),
              _against(np.trace(ref), kappa), (fam.text(), M, H))


def _deep_perturb(rng, tag, what, n, d):
    st = I.normal_matrix(rng, d, **WIDE_SPECTRUM)
    M, H = st.matrix(), I.random_direction(rng, d, scale=0.3)
    lams = sorted((lam for lam, _ in st.blocks), key=lambda z: (z.real, z.imag))
    which = int(rng.integers(d))
    lam = lams[which]
    radius = 0.5 * min(abs(lam - z) for z in lams if z != lam)
    if what == "projector":
        ref, kappa = O.projector_derivative(M, H, lam, radius, n)
        call = lambda: calculus.projector_derivative(M, H, which, n)
    else:
        ref, kappa = O.eigenvalue_derivative(M, H, lam, radius, n)
        call = lambda: calculus.eigenvalue_derivative(M, H, which, n)
    return Op(f"{tag}:{what}{n}-d{d}", call, _against(ref, kappa), (M, H, which))


def _near_defective_j4():
    """J4(1) + [2.5] with 1e-14 in the block's lower-left corner.

    X = M_block - I satisfies X^4 = 1e-14 I, so f(1 + X) is
    sum_r X^r sum_q f^(4q+r)(1)/(4q+r)! 1e-14^q, exact after q = 2.
    """
    eps = 1e-14
    M = np.zeros((5, 5), dtype=complex)
    M[:4, :4] = np.eye(4) + np.diag(np.ones(3), 1)
    M[3, 0] = eps
    M[4, 4] = 2.5
    fam = I.Family("exp", 1, 1.0)
    X = M[:4, :4] - np.eye(4)
    block = np.zeros((4, 4), dtype=complex)
    for r in range(4):
        coeff = sum(
            fam.partial((4 * q + r,), (1.0,)) / math.factorial(4 * q + r) * eps**q
            for q in range(3)
        )
        block += coeff * np.linalg.matrix_power(X, r)
    ref = np.zeros((5, 5), dtype=complex)
    ref[:4, :4] = block
    ref[4, 4] = fam(2.5)
    return M, fam, ref


def _deep_defects(rng, tag):
    """The ROADMAP Baseline defects, fixed inputs (no fresh constants)."""
    out = []
    for text, fam, scale in (("1/x1", I.Family("res", 1, 0.0), 1.0),
                             ("log(x1)", I.Family("log", 1, 0.0), 8.0)):
        st = I.normal_matrix(rng, 14, scale=scale)
        f, M = _field(fam), st.matrix()
        ref, kappa = O.tensor_extension(fam, [st])
        out.append(Op(f"{tag}:defect-normal14-{text}", lambda f=f, M=M: matfn.f_otimes(f, [M]),
                      _against(ref, kappa), (text, M), ACCURACY))
    st = I.Structured(((1.0 + 0j, 11),))
    fam = I.Family("res", 1, 5.0)
    f, M = _field(fam), st.matrix()
    ref, kappa = O.tensor_extension(fam, [st])
    out.append(Op(f"{tag}:defect-jordan11-1/(x1+5)", lambda: matfn.f_otimes(f, [M]),
                  _against(ref, kappa), (fam.text(), M), HIGH_ORDER))
    M4, fam4, ref4 = _near_defective_j4()
    f4 = _field(fam4)
    out.append(Op(f"{tag}:defect-j4-corner1e-14", lambda: matfn.f_otimes(f4, [M4]),
                  _against(ref4, 5.0), (fam4.text(), M4), CLUSTERING))
    return out


def _deep_cycle(rng, cycle: int) -> list:
    ops = []
    tag = lambda i: f"c{cycle:03d}.{i:02d}"
    for spec in DEEP_JORDAN:
        ops.append(_deep_jordan(rng, tag(len(ops)), *spec))
    for spec in DEEP_NORMAL:
        ops.append(_deep_normal(rng, tag(len(ops)), *spec))
    ops.append(_deep_two_slot(rng, tag(len(ops)), "jordan"))
    for spec in DEEP_CURVE:
        ops.append(_deep_curve(rng, tag(len(ops)), *spec))
    for spec in DEEP_PERTURB:
        ops.append(_deep_perturb(rng, tag(len(ops)), *spec))
    return ops


def _deep_probe(rng) -> list:
    """One instance of every known-defect template of deep-orders."""
    ops = [_deep_jordan(rng, "probe", *spec) for spec in DEEP_JORDAN_HIGH]
    ops += [_deep_jordan(rng, "probe", 5, "exp", conj=True),
            _deep_jordan(rng, "probe", 8, "res", conj=True)]
    ops += [_deep_normal(rng, "probe", *spec) for spec in DEEP_NORMAL_HIGH]
    ops.append(_deep_two_slot(rng, "probe", "normal"))
    return ops + _deep_defects(I.rng_for(0, "deep-defects"), "probe")


def build_deep_orders(seed: int, seconds: float) -> Corpus:
    rng = I.rng_for(seed, "deep-orders")
    # Enough cycles that today's code never runs out (it does about 5
    # cycles a second on the 2-core development host); a faster build that
    # does wraps around and reuses fields, which the `# samples` line reports.
    cycles = 8 * int(seconds) + 2
    ops = [op for c in range(cycles) for op in _deep_cycle(rng, c)]
    warm = I.rng_for(seed, "deep-orders-warmup")
    warmup = [_deep_jordan(warm, "warm", 5, "exp"),
              _deep_normal(warm, "warm", 8, "res", 1.0),
              _deep_curve(warm, "warm", "curve", 2, 2),
              _deep_perturb(warm, "warm", "projector", 2, 4)]
    defects = _deep_probe(I.rng_for(seed, "deep-orders-probe"))
    return Corpus(ops, warmup, _digest_ops(ops + defects), len(ops) // cycles,
                  defects=defects)


# ---------------------------------------------------------------------------
# wide-slots: 3-4 effective slots at d = 3-5, fields from a fixed pool

WIDE_POOL = {  # resolvent shifts keep the pole clear of every spectral sum
    1: [I.Family("res", 1, 5.0)],
    2: [I.Family("res", 2, 7.0)],
    3: [I.Family("res", 3, 9.0), I.Family("prod", 3, powers=(1, 1, 1)),
        I.Family("exp", 3, 0.3), I.Family("sq", 3)],
    4: [I.Family("res", 4, 11.0), I.Family("prod", 4, powers=(1, 1, 1, 1)),
        I.Family("sq", 4), I.Family("exp", 4, 0.25)],
}
WIDE_TEMPLATES = [
    ("otimes-chain", 3, 4, "diag"), ("otimes-trace", 3, 5, "diag"),
    ("otimes-chain", 4, 3, "diag"), ("otimes-trace", 4, 4, "diag"),
    ("otimes-chain", 3, 3, "jordan"),
    ("frechet", 2, 4, "diag"), ("frechet", 3, 3, "diag"),
    ("curve", 2, 5, "diag"), ("curve", 3, 4, "diag"),
    ("trace", 3, 5, "diag"), ("trace", 4, 4, "diag"),
    ("distinct", 3, 5, "diag"), ("distinct", 4, 4, "diag"),
    ("wedge", 3, 5, "diag"), ("wedge", 4, 4, "diag"),
]
_WIDE_FIELDS: dict = {}


def _wide_field(fam):
    # the pool is parsed once per process and reused, as a library user would
    if fam not in _WIDE_FIELDS:
        _WIDE_FIELDS[fam] = _field(fam)
    return _WIDE_FIELDS[fam]


def _wide_op(rng, tag, what, k, d, inputs, pick):
    # "jordan-conj" is a conjugated block; the package splits it (CLUSTERING)
    defect = CLUSTERING if inputs == "jordan-conj" else ""
    if inputs.startswith("jordan"):
        sts = [I.jordan_structure(rng, [2] + [1] * (d - 2), conjugate=inputs == "jordan-conj",
                                  spread=3.0)
               for _ in range(k)]
    else:
        sts = [I.diagonalizable_matrix(rng, d, **WIDE_SPECTRUM) for _ in range(k)]
    name = f"{tag}:{what}-k{k}-d{d}-{inputs}"
    if what in ("curve", "trace"):
        fam = WIDE_POOL[1][0]
        f, M, H = _wide_field(fam), sts[0].matrix(), I.random_direction(rng, d)
        ref, kappa = O.resolvent_curve(M, H, fam.c, k)
        if what == "curve":
            return Op(name, lambda: calculus.nth_derivative_curve(f, M, H, k),
                      _against(ref, kappa), (M, H))
        return Op(name, lambda: calculus.trace_derivative(f, M, H, k),
                  _against(np.trace(ref), kappa), (M, H))
    if what == "frechet":
        fam = WIDE_POOL[k][0]
        f, mats = _wide_field(fam), [st.matrix() for st in sts]
        slot = pick % k
        H = I.random_direction(rng, d)
        ref, kappa = _resolvent_frechet(fam.c, mats, slot, H)
        return Op(name, lambda: calculus.frechet_derivative(f, mats, slot, H),
                  _against(ref, kappa), (*mats, H))
    fam = WIDE_POOL[k][pick % len(WIDE_POOL[k])]
    f = _wide_field(fam)
    name += f"-{fam.kind}"
    if what in ("distinct", "wedge"):
        st = sts[0]
        M = st.matrix()
        if what == "distinct":
            ref, kappa = O.distinct_tuple_sum(fam, [lam for lam, _ in st.blocks], k)
            kappa *= st.condition() ** k
            return Op(name, lambda: antisym.distinct_tuple_sum(f, M, k), _against(ref, kappa), (M,))
        T, kappa = O.tensor_extension(fam, [st] * k)
        ref = O.wedge_restrict(T, d, k)
        return Op(name, lambda: antisym.wedge_restrict(f, M, k), _against(ref, kappa), (M,))
    mats = [st.matrix() for st in sts]
    T, kappa = O.tensor_extension(fam, sts)
    if what == "otimes-chain":
        return Op(name, lambda: funcalc.chain_contract(matfn.f_otimes(f, mats)),
                  _against(_chain(T), kappa), tuple(mats), defect)
    slot = pick % k
    return Op(name, lambda: tensor.trace_slot(matfn.f_otimes(f, mats), slot),
              _against(_trace_slot(T, slot), kappa), tuple(mats), defect)


def build_wide_slots(seed: int, seconds: float) -> Corpus:
    rng = I.rng_for(seed, "wide-slots")
    instances = 12
    ops = []
    for r in range(instances):
        for i, spec in enumerate(WIDE_TEMPLATES):
            ops.append(_wide_op(rng, f"i{r}.{i:02d}", *spec, pick=r + i))
    # Small (d = 2) calls on every pool field and derived difference field
    # fill the derivative caches the timed calls then share.
    warm = I.rng_for(seed, "wide-slots-warmup")
    warmup = [_wide_op(warm, f"warm.{k}.{p}", "otimes-chain", k, 2, "diag", pick=p)
              for k in (3, 4) for p in range(len(WIDE_POOL[k]))]
    warmup += [_wide_op(warm, f"warm.{what}{k}", what, k, 2, "diag", pick=0)
               for what, k in (("frechet", 2), ("frechet", 3), ("curve", 2), ("curve", 3),
                               ("trace", 3), ("trace", 4))]
    # the conjugated-Jordan chain once on each 3-slot pool field
    probe = I.rng_for(seed, "wide-slots-probe")
    defects = [_wide_op(probe, f"probe.{p}", "otimes-chain", 3, 3, "jordan-conj", pick=p)
               for p in range(len(WIDE_POOL[3]))]
    return Corpus(ops, warmup, _digest_ops(ops + defects), len(WIDE_TEMPLATES),
                  defects=defects)


# ---------------------------------------------------------------------------
# verify-suites: `matfn verify --suite NAME --seed S` through cli.main

#: ``matfn verify --suite all --seed 42``, the ROADMAP's end-to-end
#: measure, runs suite i at seed 42 + 1000 i; this workload makes the same
#: calls one suite at a time. The corpora's cost swings threefold with the
#: verify seed (antisym draws its d=4 cases at random), so a seed-drawn
#: corpus would make the timings unsteady: the benchmark seed only shuffles
#: the suite order, and every run verifies the same corpora.
VERIFY_BASE = 42
_CHECK_RE = re.compile(r"^\[(pass|FAIL)\] (\S+): residual (\S+) vs bound (\S+)$")


def _verify_call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _parse_checks(rc, text):
    checks = []
    for line in text.splitlines():
        m = _CHECK_RE.match(line)
        if m:
            checks.append((float(m.group(3)), float(m.group(4))))
    if rc not in (0, 3) or not checks:
        checks.append((math.inf, 0.0))
    return checks


def build_verify_suites(seed: int, seconds: float) -> Corpus:
    rng = I.rng_for(seed, "verify-suites")
    names = list(verify.SUITES)
    ops = []
    for i in rng.permutation(len(names)):
        argv = ["verify", "--suite", names[i], "--seed", str(VERIFY_BASE + 1000 * int(i))]
        ops.append(Op(f"{names[i]}@{argv[-1]}", lambda argv=argv: _verify_call(argv),
                      lambda res: _parse_checks(*res)))
    warmup = [Op(f"warm-{n}", lambda n=n: _verify_call(["verify", "--suite", n, "--trials", "2"]),
                 lambda res: _parse_checks(*res)) for n in names]
    return Corpus(ops, warmup, I.digest(*[op.id for op in ops]), len(ops), count_checks=True)


# ---------------------------------------------------------------------------
# cli-calls: one fresh `python -m matfn.cli` process per operation

CLI_TIMEOUT_S = 60


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliFailure(Exception):
    """The command exited with a code other than success (or, for verify, 3)."""


def _finish(argv, proc):
    if proc.returncode == 0 or (argv[0] == "verify" and proc.returncode == 3):
        return proc.returncode, proc.stdout
    lines = proc.stderr.decode(errors="replace").strip().splitlines()
    raise CliFailure(f"exit {proc.returncode}: {lines[-1] if lines else ''}")


def run_cli(argv, cwd, env):
    proc = subprocess.run([sys.executable, "-m", "matfn.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    return _finish(argv, proc)


CHILD = Path(__file__).resolve().parent / "cli_child.py"


def run_cli_traced(argv, cwd, env, tracer):
    """``run_cli`` through cli_child.py, folding the child's spans into ``tracer``."""
    totals_path = Path(cwd) / "child-trace.json"
    child_env = dict(env, BENCH_TRACE_OUT=str(totals_path), BENCH_OP=tracer.op or "")
    proc = subprocess.run([sys.executable, str(CHILD), *argv], cwd=cwd, env=child_env,
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    with open(totals_path, encoding="utf-8") as fh:
        tracer.adopt(json.load(fh))
    totals_path.unlink()
    return _finish(argv, proc)


def _json_checks(extract):
    return lambda res: extract(json.loads(res[1]))


def _pair_array(obj):
    return np.array([complex(a, b) for a, b in obj["entries"]])


def _cli_ops(rng, tag, workdir: Path):
    """One instance of every CLI command, inputs written under ``workdir``."""
    def save(name, M):
        fileio.save_json(str(workdir / f"{tag}-{name}.json"), fileio.matrix_to_obj(M))
        return f"{tag}-{name}.json"

    ops = []
    # eval: two slots, tensor output
    sts = [I.diagonalizable_matrix(rng, d, **WIDE_SPECTRUM) for d in (3, 2)]
    fam = I.Family("res", 2, I.draw(rng, 4.0, 6.0))
    T, kappa = O.tensor_extension(fam, sts)
    argv = ["eval", "--func", fam.text(), "--mat", save("a", sts[0].matrix()),
            "--mat", save("b", sts[1].matrix())]
    tol = O.tolerance(kappa)
    ops.append((f"{tag}:eval", argv, _json_checks(
        lambda o, T=T, tol=tol: [(O.rel_err(_pair_array(o), T.reshape(-1)), tol)])))
    # derivative in slot 2 of a resolvent of the sum
    mats = [I.diagonalizable_matrix(rng, 3, **WIDE_SPECTRUM).matrix() for _ in range(2)]
    H = I.random_direction(rng, 3)
    c = I.draw(rng, 4.0, 6.0)
    D, kappa = _resolvent_frechet(c, mats, 1, H)
    argv = ["derivative", "--func", I.Family("res", 2, c).text(), "--mat", save("m1", mats[0]),
            "--mat", save("m2", mats[1]), "--slot", "2", "--dir", save("h", H)]
    tol = O.tolerance(kappa)
    ops.append((f"{tag}:derivative", argv, _json_checks(
        lambda o, D=D, tol=tol: [(O.rel_err(_pair_array(o), D.reshape(-1)), tol)])))
    # second derivative along a line
    st = I.normal_matrix(rng, 4, **WIDE_SPECTRUM)
    M, H = st.matrix(), I.random_direction(rng, 4)
    c = I.draw(rng, 4.0, 6.0)
    R, kappa = O.resolvent_curve(M, H, c, 2)
    argv = ["curve", "--func", I.Family("res", 1, c).text(), "--mat", save("cm", M),
            "--dir", save("ch", H), "--order", "2"]
    tol = O.tolerance(kappa)
    ops.append((f"{tag}:curve", argv, _json_checks(
        lambda o, R=R, tol=tol: [(O.rel_err(_pair_array(o), R.reshape(-1)), tol)])))
    # trace contraction theorem: the contracted tensor
    sts = [I.diagonalizable_matrix(rng, 3, **WIDE_SPECTRUM) for _ in range(2)]
    fam = I.Family("prod", 2, powers=(2, 1))
    T, kappa = O.tensor_extension(fam, sts)
    ref = _trace_slot(T, 0)
    argv = ["contract", "--theorem", "trace", "--func", fam.text(), "--mat",
            save("t1", sts[0].matrix()), "--mat", save("t2", sts[1].matrix()), "--slot", "1"]
    tol = O.tolerance(kappa)
    ops.append((f"{tag}:contract", argv, _json_checks(
        lambda o, ref=ref, tol=tol: [(O.rel_err(_pair_array(o["result"]), ref.reshape(-1)), tol)])))
    # wedge: distinct-tuple sum and the restriction
    st = I.diagonalizable_matrix(rng, 4, **WIDE_SPECTRUM)
    fam = I.Family("exp", 2, I.draw(rng, 0.2, 0.5))
    S, ks = O.distinct_tuple_sum(fam, [lam for lam, _ in st.blocks], 2)
    T, kt = O.tensor_extension(fam, [st, st])
    W = O.wedge_restrict(T, 4, 2)
    argv = ["wedge", "--func", fam.text(), "--mat", save("w", st.matrix()), "--k", "2"]
    ts, tw = O.tolerance(ks * st.condition() ** 2), O.tolerance(kt)
    ops.append((f"{tag}:wedge", argv, _json_checks(
        lambda o, S=S, W=W, ts=ts, tw=tw: [
            (O.rel_err(complex(*o["distinct_tuple_sum"]["value"]), S), ts),
            (O.rel_err(_pair_array(o["restricted"]), W.reshape(-1)), tw)])))
    # determinant from traces
    st = I.diagonalizable_matrix(rng, 4, **WIDE_SPECTRUM)
    det = complex(np.prod([lam for lam, _ in st.blocks]))
    argv = ["det-traces", "--mat", save("dt", st.matrix())]
    tol = O.tolerance(4 * st.condition())
    ops.append((f"{tag}:det-traces", argv, _json_checks(
        lambda o, det=det, tol=tol: [(O.rel_err(complex(*o["value"]), det), tol)])))
    # eigenvalue and projector derivatives
    st = I.normal_matrix(rng, 4, **WIDE_SPECTRUM)
    M, H = st.matrix(), I.random_direction(rng, 4, scale=0.3)
    lams = sorted((lam for lam, _ in st.blocks), key=lambda z: (z.real, z.imag))
    which = int(rng.integers(4))
    radius = 0.5 * min(abs(lams[which] - z) for z in lams if z != lams[which])
    lam2, kl = O.eigenvalue_derivative(M, H, lams[which], radius, 2)
    P2, kp = O.projector_derivative(M, H, lams[which], radius, 2)
    argv = ["projderiv", "--mat", save("pm", M), "--dir", save("ph", H),
            "--eigen", str(which + 1), "--order", "2"]
    tl, tp = O.tolerance(kl), O.tolerance(kp)
    ops.append((f"{tag}:projderiv", argv, _json_checks(
        lambda o, lam2=lam2, P2=P2, tl=tl, tp=tp: [
            (O.rel_err(complex(*o["eigenvalue_derivative"]["value"]), lam2), tl),
            (O.rel_err(_pair_array(o["projector_derivative"]), P2.reshape(-1)), tp)])))
    # a small verify run: the residual lines are the checks
    argv = ["verify", "--suite", "zero", "--trials", "3", "--seed", str(int(rng.integers(1000)))]
    ops.append((f"{tag}:verify", argv,
                lambda res: _parse_checks(res[0], res[1].decode())))
    return ops


def build_cli_calls(seed: int, seconds: float, src: Path, workdir: Path, tracer=None) -> Corpus:
    rng = I.rng_for(seed, "cli-calls")
    env = cli_env(src)
    # the Baseline near-defective input; the CLI exits 1 ("bad input") on it
    M4, fam4, ref4 = _near_defective_j4()
    fileio.save_json(str(workdir / "j4.json"), fileio.matrix_to_obj(M4))
    tol = O.tolerance(5.0)
    j4 = ("defect-j4-corner1e-14",
          ["eval", "--func", fam4.text(), "--mat", "j4.json", "--as-matrix"],
          _json_checks(lambda o: [(O.rel_err(_pair_array(o), ref4.reshape(-1)), tol)]))
    # a cycle is two instances of every command
    specs = []
    for r in range(4):
        specs.extend(_cli_ops(rng, f"i{r}", workdir))
    ops = []
    for op_id, argv, check in specs:
        plain = lambda argv=argv: run_cli(argv, workdir, env)
        call = plain if tracer is None else (
            lambda argv=argv: run_cli_traced(argv, workdir, env, tracer))
        ops.append(Op(op_id, call, check, tuple(argv),
                      plain=None if tracer is None else plain))
    warmup = [Op("warm", lambda: run_cli(["det-traces", "--mat", "j4.json"], workdir, env),
                 lambda res: [(0.0, 1.0)])]
    defects = [Op(j4[0], lambda: run_cli(j4[1], workdir, env), j4[2], tuple(j4[1]),
                  defect=CLUSTERING)]
    files = sorted(workdir.glob("*.json"))
    digest = I.digest(*[op.id for op in ops + defects], *[p.read_bytes() for p in files])
    return Corpus(ops, warmup, digest, len(ops) // 2, defects=defects)


def _digest_ops(ops) -> str:
    return I.digest(*[part for op in ops for part in (op.id, *op.inputs)])


WORKLOADS = ("verify-suites", "wide-slots", "deep-orders", "cli-calls")
