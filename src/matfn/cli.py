"""Command line entry points.

Slots and eigenvalue indices are 1-based on the command line, matching
the x1, x2, ... variable names in field expressions; the library itself
counts from 0. JSON results go to stdout, notes and errors to stderr.

Exit codes: 0 success, 1 bad input (unparsable field, malformed file,
out-of-range slot), 2 numerical failure (clustering, interpolation,
domain trouble, a failed numpy.linalg routine, an allocation beyond
the memory available, or a RuntimeWarning that ``-W error`` turned into
an exception), 3 verification suite failure. The package's
warnings go to stderr as one ``matfn: warning:`` line each, before the
one-line error, which is always the last line.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import fileio
from .errors import FieldParseError, MatfnError
from .funcalc import f_otimes
from .scalarfield import parse_field
from .tensor import OperatorTensor


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(obj, out_path=None):
    if out_path:
        fileio.save_json(out_path, obj)
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(fileio.dumps(obj))


def _slot_index(value: int, count: int, what: str = "slot") -> int:
    if not 1 <= value <= count:
        raise ValueError(f"{what} {value} out of range 1..{count}")
    return value - 1


def _load_mats(paths):
    return [fileio.load_matrix(p) for p in paths]


def _contracted_obj(contracted):
    if isinstance(contracted, OperatorTensor):
        return fileio.tensor_to_obj(contracted)
    return fileio.scalar_to_obj(contracted)


# ---------------------------------------------------------------------------
# subcommand handlers; each imports the layers beyond f_otimes that it uses


def _cmd_eval(args) -> int:
    mats = _load_mats(args.mat)
    f = parse_field(args.func, arity=len(mats))
    T = f_otimes(f, mats)
    obj = fileio.matrix_to_obj(T.as_matrix()) if args.as_matrix else fileio.tensor_to_obj(T)
    _emit(obj, args.out)
    return 0


def _cmd_derivative(args) -> int:
    from . import calculus as calc

    mats = _load_mats(args.mat)
    f = parse_field(args.func, arity=len(mats))
    slot = _slot_index(args.slot, len(mats))
    H = fileio.load_matrix(args.dir)
    D = calc.frechet_derivative(f, mats, slot, H)
    obj = fileio.matrix_to_obj(D.as_matrix()) if args.as_matrix else fileio.tensor_to_obj(D)
    _emit(obj, args.out)
    return 0


def _cmd_curve(args) -> int:
    from . import calculus as calc

    M = fileio.load_matrix(args.mat)
    H = fileio.load_matrix(args.dir)
    f = parse_field(args.func, arity=1)
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    R = calc.nth_derivative_curve(f, M, H, args.order, args.at)
    _emit(fileio.matrix_to_obj(R), args.out)
    return 0


def _cmd_contract(args) -> int:
    from . import algebraic_ops as aops

    mats = _load_mats(args.mat)
    f = parse_field(args.func, arity=len(mats))
    if args.theorem == "trace":
        slot = _slot_index(args.slot, len(mats))
        check = aops.contract_trace_theorem(f, mats, slot)
        payload = {
            "theorem": "trace",
            "result": _contracted_obj(check.contracted),
            "reduced_field": str(check.reduced_field),
            "residual": check.residual,
            "scale": check.scale,
        }
    elif args.theorem == "equal":
        if args.slot2 is None:
            raise ValueError("--theorem equal needs --slot and --slot2")
        keep = _slot_index(args.slot, len(mats))
        drop = _slot_index(args.slot2, len(mats), "slot2")
        check = aops.contract_equal_slots_theorem(f, mats, keep, drop)
        payload = {
            "theorem": "equal",
            "result": _contracted_obj(check.contracted),
            "reduced_field": str(check.reduced_field),
            "order_residual": check.order_residual,
            "reduced_residual": check.reduced_residual,
            "scale": check.scale,
        }
    else:
        if args.slot2 is None:
            raise ValueError("--theorem swap needs --slot and --slot2")
        p = _slot_index(args.slot, len(mats))
        q = _slot_index(args.slot2, len(mats), "slot2")
        check = aops.commuting_swap_check(f, mats, p, q)
        payload = {
            "theorem": "swap",
            "residual": check.residual,
            "scale": check.scale,
            "commutator_norm": check.commutator_norm,
        }
    _emit(payload, args.out)
    return 0


def _cmd_wedge(args) -> int:
    from . import antisym as asym

    if args.k < 1:
        raise ValueError("--k must be at least 1")
    M = fileio.load_matrix(args.mat)
    f = parse_field(args.func, arity=args.k)
    total = asym.distinct_tuple_sum(f, M, args.k)
    restricted = asym.wedge_restrict(f, M, args.k)
    payload = {
        "k": args.k,
        "distinct_tuple_sum": fileio.scalar_to_obj(total),
        "restricted": fileio.matrix_to_obj(restricted),
    }
    _emit(payload, args.out)
    return 0


def _cmd_det_traces(args) -> int:
    from . import antisym as asym

    M = fileio.load_matrix(args.mat)
    _emit(fileio.scalar_to_obj(asym.det_from_traces(M)), args.out)
    return 0


def _cmd_projderiv(args) -> int:
    from . import calculus as calc

    M = fileio.load_matrix(args.mat)
    H = fileio.load_matrix(args.dir)
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    which = _slot_index(args.eigen, len(M), "eigen")
    lam = calc.eigenvalue_derivative(M, H, which, args.order, args.at)
    proj = calc.projector_derivative(M, H, which, args.order, args.at)
    payload = {
        "eigen": args.eigen,
        "order": args.order,
        "eigenvalue_derivative": fileio.scalar_to_obj(lam),
        "projector_derivative": fileio.matrix_to_obj(proj),
    }
    _emit(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suites

    results = run_suites([args.suite], seed=args.seed, trials=args.trials)
    failed = 0
    for r in results:
        print(r.line())
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="matfn",
        description="Functions of several variables applied to matrix tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        return p

    p = add("eval", _cmd_eval, "tensor extension of a field at matrices")
    p.add_argument("--func", required=True, help="field expression in x1..xk")
    p.add_argument("--mat", action="append", required=True, help="matrix JSON file, once per slot")
    p.add_argument("--as-matrix", action="store_true", help="emit the square matrix view")

    p = add("derivative", _cmd_derivative, "directional derivative in one slot")
    p.add_argument("--func", required=True)
    p.add_argument("--mat", action="append", required=True)
    p.add_argument("--slot", type=int, required=True, help="differentiated slot, 1-based")
    p.add_argument("--dir", required=True, help="direction matrix JSON file")
    p.add_argument("--as-matrix", action="store_true")

    p = add("curve", _cmd_curve, "d^n/dz^n f(M + zH)")
    p.add_argument("--func", required=True, help="one-variable field in x1")
    p.add_argument("--mat", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--at", type=float, default=0.0)

    p = add("contract", _cmd_contract, "contraction identities")
    p.add_argument("--theorem", choices=["trace", "equal", "swap"], required=True)
    p.add_argument("--func", required=True)
    p.add_argument("--mat", action="append", required=True)
    p.add_argument("--slot", type=int, required=True, help="1-based")
    p.add_argument("--slot2", type=int, help="second slot for equal/swap, 1-based")

    p = add("wedge", _cmd_wedge, "antisymmetric pairing and restriction")
    p.add_argument("--func", required=True)
    p.add_argument("--mat", required=True)
    p.add_argument("--k", type=int, required=True, help="tensor factors")

    p = add("det-traces", _cmd_det_traces, "determinant from power-sum traces")
    p.add_argument("--mat", required=True)

    p = add("projderiv", _cmd_projderiv, "eigenvalue and projector perturbation")
    p.add_argument("--mat", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--eigen", type=int, required=True, help="eigenvalue index, 1-based sorted order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--at", type=float, default=0.0)

    p = sub.add_parser("verify", help="run residual suites")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument(
        "--suite",
        default="all",
        help="all, or the name of one suite",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.handler(args)
        except FieldParseError as exc:
            code, error = 1, f"field error: {exc}"
        except (MatfnError, np.linalg.LinAlgError, RuntimeWarning) as exc:
            # before ValueError, which LinAlgError subclasses; a RuntimeWarning
            # arrives here as an exception when warnings are errors (-W error)
            code, error = 2, f"numerical failure: {exc}"
        except MemoryError as exc:
            reason = str(exc) or "allocation refused"
            code, error = 2, f"numerical failure: out of memory: {reason}"
        except ValueError as exc:
            code, error = 1, f"input error: {exc}"
    for w in caught:
        print(f"matfn: warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"matfn: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
