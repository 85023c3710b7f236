"""Exercise the command line surface in-process plus one installed-script run."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from matfn import cli
from matfn import fileio
from matfn import verify as verify_mod


def write_matrix(tmp_path, name, M):
    path = tmp_path / name
    fileio.save_json(str(path), fileio.matrix_to_obj(np.asarray(M, dtype=complex)))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_matrix_view(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", np.diag([1.0, 2.0]))
    b = write_matrix(tmp_path, "b.json", np.diag([3.0, 4.0]))
    code, out, _ = run_cli(
        capsys, ["eval", "--func", "x1*x2", "--mat", a, "--mat", b, "--as-matrix"]
    )
    assert code == 0
    M = fileio.matrix_from_obj(json.loads(out))
    assert np.allclose(M, np.diag([3.0, 4.0, 6.0, 8.0]), atol=1e-12)


def test_eval_tensor_output(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", [[0.0, 1.0], [0.0, 0.0]])
    code, out, _ = run_cli(capsys, ["eval", "--func", "exp(x1)", "--mat", a])
    assert code == 0
    T = fileio.tensor_from_obj(json.loads(out))
    assert T.slot_dims == (2,)
    assert np.allclose(T.as_matrix(), [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)


def test_eval_out_file(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", np.eye(2))
    dest = tmp_path / "result.json"
    code, out, err = run_cli(
        capsys, ["eval", "--func", "x1^2", "--mat", a, "--as-matrix", "--out", str(dest)]
    )
    assert code == 0
    assert out == ""
    assert "wrote" in err
    assert np.allclose(fileio.load_matrix(str(dest)), np.eye(2))


def test_eval_unwritable_out_exit_1(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", np.eye(2))
    dest = tmp_path / "no-such-dir" / "result.json"
    code, out, err = run_cli(capsys, ["eval", "--func", "x1^2", "--mat", a, "--out", str(dest)])
    assert code == 1
    assert out == ""
    assert "cannot write" in err
    assert len(err.strip().splitlines()) == 1


def test_derivative_matches_closed_form(tmp_path, capsys):
    M = np.array([[1.0, 0.5], [0.0, 2.0]])
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = write_matrix(tmp_path, "m.json", M)
    h = write_matrix(tmp_path, "h.json", H)
    code, out, _ = run_cli(
        capsys,
        ["derivative", "--func", "x1^2", "--mat", m, "--slot", "1", "--dir", h, "--as-matrix"],
    )
    assert code == 0
    D = fileio.matrix_from_obj(json.loads(out))
    assert np.allclose(D, M @ H + H @ M, atol=1e-9)


def test_curve_second_order(tmp_path, capsys):
    M = np.array([[1.0, 1.0], [0.0, 3.0]])
    H = np.array([[0.0, 1.0], [0.5, 0.0]])
    m = write_matrix(tmp_path, "m.json", M)
    h = write_matrix(tmp_path, "h.json", H)
    code, out, _ = run_cli(
        capsys, ["curve", "--func", "x1^3", "--mat", m, "--dir", h, "--order", "2"]
    )
    assert code == 0
    R = fileio.matrix_from_obj(json.loads(out))
    want = 2 * (M @ H @ H + H @ M @ H + H @ H @ M)
    assert np.allclose(R, want, atol=1e-8)


def test_contract_trace_payload(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", np.diag([1.0, 3.0]))
    b = write_matrix(tmp_path, "b.json", np.diag([2.0, 5.0]))
    code, out, _ = run_cli(
        capsys,
        ["contract", "--theorem", "trace", "--func", "x1*x2", "--mat", a, "--mat", b,
         "--slot", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "trace"
    assert payload["residual"] < 1e-10
    reduced = fileio.tensor_from_obj(payload["result"])
    # tracing out slot 1 of x1*x2 leaves (tr A) * B = 4 B
    assert np.allclose(reduced.as_matrix(), 4.0 * np.diag([2.0, 5.0]), atol=1e-10)


def test_contract_swap_payload(tmp_path, capsys):
    M = np.array([[1.0, 0.3], [0.0, 2.0]])
    N = M @ M - 2.0 * M  # commutes with M
    m = write_matrix(tmp_path, "m.json", M)
    n = write_matrix(tmp_path, "n.json", N)
    code, out, _ = run_cli(
        capsys,
        ["contract", "--theorem", "swap", "--func", "x1 + 2*x2", "--mat", m, "--mat", n,
         "--slot", "1", "--slot2", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["commutator_norm"] < 1e-12
    assert payload["residual"] < 1e-8 * max(1.0, payload["scale"])


def test_contract_equal_requires_slot2(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", np.diag([1.0, 2.0]))
    code, _, err = run_cli(
        capsys,
        ["contract", "--theorem", "equal", "--func", "x1*x2", "--mat", a, "--mat", a,
         "--slot", "1"],
    )
    assert code == 1
    assert "slot2" in err


def test_wedge_payload(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", np.diag([1.0, 2.0]))
    code, out, _ = run_cli(capsys, ["wedge", "--func", "x1*x2", "--mat", m, "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert fileio.scalar_from_obj(payload["distinct_tuple_sum"]) == pytest.approx(4.0, abs=1e-9)
    W = fileio.matrix_from_obj(payload["restricted"])
    assert np.allclose(W, [[2.0]], atol=1e-9)


def test_det_traces(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", [[1.0, 1.0], [0.0, 2.0]])
    code, out, _ = run_cli(capsys, ["det-traces", "--mat", m])
    assert code == 0
    assert fileio.scalar_from_obj(json.loads(out)) == pytest.approx(2.0, abs=1e-12)


def test_det_traces_of_a_nilpotent_matrix_exit_0(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", [[0.0, 1.0], [0.0, 0.0]])
    code, out, err = run_cli(capsys, ["det-traces", "--mat", m])
    assert (code, err) == (0, "")
    assert fileio.scalar_from_obj(json.loads(out)) == 0


def test_det_beyond_the_float_range_exit_2(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", [[1e200, 0.0], [0.0, 1e200]])
    code, out, err = run_cli(capsys, ["det-traces", "--mat", m])
    assert (code, out) == (2, "")
    assert err == ("matfn: numerical failure: the determinant of the 2x2 matrix "
                   "is beyond the float range\n")


def test_projderiv_payload(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", np.diag([1.0, 2.0, 4.0]))
    h = write_matrix(tmp_path, "h.json", np.full((3, 3), 0.5))
    code, out, _ = run_cli(
        capsys, ["projderiv", "--mat", m, "--dir", h, "--eigen", "2", "--order", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    # first derivative of the middle eigenvalue of diag + zH is H[1,1]
    assert fileio.scalar_from_obj(payload["eigenvalue_derivative"]) == pytest.approx(
        0.5, abs=1e-9
    )
    P1 = fileio.matrix_from_obj(payload["projector_derivative"])
    assert np.trace(P1) == pytest.approx(0.0, abs=1e-9)


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


_REPRO_M = [[1.0, 0.3], [0.0, 2.0]]
_REPRO_H = np.array([[0.1, 0.2], [0.3, 0.4]])


def test_curve_beyond_order_170_prints_finite_json(tmp_path, capsys):
    # 171! is beyond the float range, the derivative (about 1e118) is not
    m = write_matrix(tmp_path, "m.json", _REPRO_M)
    h = write_matrix(tmp_path, "h.json", _REPRO_H)
    argv = ["curve", "--func", "1/(x1+5)", "--mat", m, "--dir", h, "--order", "171"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    R = fileio.matrix_from_obj(_strict_json(out))
    assert np.isfinite(R).all() and np.abs(R).max() > 1e100


@pytest.mark.parametrize("action", ["error", "default"])
def test_projderiv_beyond_the_float_range_exit_2(tmp_path, capsys, action):
    # the order-160 derivatives overflow: one line naming the order, with or without -W error
    m = write_matrix(tmp_path, "m.json", _REPRO_M)
    h = write_matrix(tmp_path, "h.json", 100 * _REPRO_H)
    argv = ["projderiv", "--mat", m, "--dir", h, "--eigen", "1", "--order", "160"]
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("matfn: numerical failure: the order-160 derivative is not finite")
    assert len(err.splitlines()) == 1


def test_projderiv_runs_the_recursion_once(tmp_path, capsys, monkeypatch):
    # both series of order n read one recursion of n steps, one diagonal fill each
    steps = []
    fill = np.fill_diagonal

    def counted(a, val, wrap=False):
        steps.append(a.shape)
        return fill(a, val, wrap)

    monkeypatch.setattr(np, "fill_diagonal", counted)
    m = write_matrix(tmp_path, "m.json", [[1.0, 0.5, 0.0], [0.0, 3.0, 0.2], [0.1, 0.0, -1.0]])
    h = write_matrix(tmp_path, "h.json", [[0.2, 1.0, 0.0], [-0.7, 0.4, 0.3], [0.0, 0.5, 0.1]])
    argv = ["projderiv", "--mat", m, "--dir", h, "--eigen", "2", "--order", "4"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert steps == [(3, 3)] * 4
    payload = json.loads(out)
    assert payload["order"] == 4 and payload["projector_derivative"]["dim"] == 3


def test_projderiv_decomposes_once(tmp_path, capsys, monkeypatch):
    # the eigenvalue and the projector series read one eig of M + at H
    calls = []
    eig = np.linalg.eig

    def counted(A):
        calls.append(A.shape)
        return eig(A)

    monkeypatch.setattr(np.linalg, "eig", counted)
    m = write_matrix(tmp_path, "m.json", [[1.0, 0.5], [0.0, 3.0]])
    h = write_matrix(tmp_path, "h.json", [[0.2, 1.0], [-0.7, 0.4]])
    argv = ["projderiv", "--mat", m, "--dir", h, "--eigen", "2", "--order", "2", "--at", "0.1"]
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert calls == [(2, 2)]


# ----------------------------------------------------------------- errors


def test_parse_error_exit_1(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", np.eye(2))
    code, _, err = run_cli(capsys, ["eval", "--func", "x1 +* 2", "--mat", a])
    assert code == 1
    assert "field error" in err


def test_arity_mismatch_exit_1(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", np.eye(2))
    code, _, err = run_cli(capsys, ["eval", "--func", "x1*x2", "--mat", a])
    assert code == 1


def test_bad_matrix_file_exit_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, ["eval", "--func", "x1", "--mat", str(tmp_path / "none.json")]
    )
    assert code == 1
    assert "input error" in err


def test_slot_out_of_range_exit_1(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", np.eye(2))
    h = write_matrix(tmp_path, "h.json", np.eye(2))
    code, _, err = run_cli(
        capsys,
        ["derivative", "--func", "x1", "--mat", m, "--slot", "3", "--dir", h],
    )
    assert code == 1
    assert "out of range" in err


def test_numerical_failure_exit_2(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", [[0.0, 1.0], [0.0, 0.0]])
    code, _, err = run_cli(capsys, ["eval", "--func", "1/x1", "--mat", m])
    assert code == 2
    assert "numerical failure" in err


def test_curve_undefined_on_the_spectrum_exit_2(tmp_path, capsys):
    # 1/x1 at the eigenvalue 0: the chain's domain error, one line on stderr
    m = write_matrix(tmp_path, "m.json", np.diag([0.0, 1.0]))
    h = write_matrix(tmp_path, "h.json", [[0.3, -0.2], [0.1, 0.25]])
    argv = ["curve", "--func", "1/x1", "--mat", m, "--dir", h, "--order", "2"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("matfn: numerical failure: ") and err.count("\n") == 1
    assert "field is not defined on the spectral grid of the arguments" in err


def test_direction_of_another_shape_exit_1(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", [[2.0]])
    h = write_matrix(tmp_path, "h.json", np.diag([1.0, 2.0, 3.0]))
    for argv in (
        ["curve", "--func", "exp(x1)", "--mat", m, "--dir", h, "--order", "1"],
        ["projderiv", "--mat", m, "--dir", h, "--eigen", "1", "--order", "1"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 1, argv[0]
        assert out == ""
        assert err == "matfn: input error: direction must match the matrix's shape\n"


def test_linalg_failure_exit_2(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError subclasses ValueError, which would read as bad input;
    # projderiv calls np.linalg.eig for its eigenvectors
    def eig(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", eig)
    m = write_matrix(tmp_path, "m.json", [[1.0, 1.0], [0.0, 2.0]])
    argv = ["projderiv", "--mat", m, "--dir", m, "--eigen", "1", "--order", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "matfn: numerical failure: Eigenvalues did not converge\n"


def test_eigenvalue_iteration_failure_is_one_line(tmp_path, capsys, monkeypatch):
    # the error names the matrix's shape, not its entries, so it stays the last line
    def eigvals(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    m = write_matrix(tmp_path, "m.json", [[1.0, 2.0], [0.0, 3.0]])
    code, out, err = run_cli(capsys, ["eval", "--func", "exp(x1)", "--mat", m])
    assert (code, out) == (2, "")
    assert err == (
        "matfn: numerical failure: eigenvalue iteration failed for a (2, 2) matrix: "
        "Eigenvalues did not converge\n"
    )


def test_non_finite_point_on_the_line_exit_1(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", [[1.0, 2.0], [0.0, 3.0]])
    h = write_matrix(tmp_path, "h.json", np.eye(2))
    for argv in (
        ["curve", "--func", "exp(x1)", "--mat", m, "--dir", h, "--order", "1", "--at", "nan"],
        ["projderiv", "--mat", m, "--dir", h, "--eigen", "1", "--order", "1", "--at", "inf"],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, ""), argv[0]
        assert err == f"matfn: input error: the point {argv[-1]} on the line is not finite\n"


def test_eigen_out_of_range_exit_1(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", [[1.0, 2.0], [0.0, 3.0]])
    h = write_matrix(tmp_path, "h.json", np.eye(2))
    for eigen in ("0", "3"):
        argv = ["projderiv", "--mat", m, "--dir", h, "--eigen", eigen, "--order", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"matfn: input error: eigen {eigen} out of range 1..2\n"


def test_eval_needs_no_svd(tmp_path, capsys, monkeypatch):
    # the tensor extension runs no rank ladder, so a failing SVD goes unnoticed
    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", svd)
    m = write_matrix(tmp_path, "m.json", [[1.0, 1.0], [0.0, 2.0]])
    code, out, err = run_cli(capsys, ["eval", "--func", "exp(x1)", "--mat", m, "--as-matrix"])
    assert (code, err) == (0, "")
    want = [[np.e, np.e**2 - np.e], [0.0, np.e**2]]
    assert np.allclose(fileio.matrix_from_obj(json.loads(out)), want, rtol=1e-14, atol=0)


def test_non_finite_values_exit_2(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.json", [[1.0, 1.0], [0.0, 2.0]])
    code, out, err = run_cli(capsys, ["eval", "--func", "x1*1e200*1e200", "--mat", m])
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_power_overflow_exit_2(tmp_path, capsys):
    # 1000^400 overflows where the field itself is evaluated
    m = write_matrix(tmp_path, "d.json", np.diag([1000.0, 1.0]))
    code, out, err = run_cli(capsys, ["eval", "--func", "x1^400", "--mat", m])
    assert code == 2
    assert out == ""
    assert "power overflow" in err
    assert len(err.strip().splitlines()) == 1


def test_jordan11_resolvent_exit_0(tmp_path, capsys):
    # the 10th derivative of 1/(x1 + 5) at 1 is 10!/6^11: in range, from Taylor jets
    M = np.eye(11) + np.eye(11, k=1)
    m = write_matrix(tmp_path, "j11.json", M)
    code, out, err = run_cli(capsys, ["eval", "--func", "1/(x1+5)", "--mat", m, "--as-matrix"])
    assert code == 0
    assert err == ""
    want = np.linalg.inv(M + 5 * np.eye(11))
    got = fileio.matrix_from_obj(json.loads(out))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_close_eigenvalues_are_one_cluster(tmp_path, capsys):
    lams = [0.6, 0.6 + 1e-9, 2.0]
    m = write_matrix(tmp_path, "close.json", np.diag(lams))
    code, out, _ = run_cli(capsys, ["eval", "--func", "exp(x1)", "--mat", m, "--as-matrix"])
    assert code == 0
    got = fileio.matrix_from_obj(json.loads(out))
    assert np.max(np.abs(got - np.diag(np.exp(lams)))) <= 1e-8


def _j4_corner():
    M = np.eye(5, dtype=complex) + np.eye(5, k=1)
    M[3, 4] = 0.0
    M[4, 4] = 2.5
    M[3, 0] = 1e-14
    return M


def test_split_defective_eigenvalue_exit_0(tmp_path, capsys):
    # J4(1) + [2.5] with 1e-14 in the corner: rounding splits the Jordan block
    # into four eigenvalues about 3e-4 apart, which the grid takes as one block
    M = _j4_corner()
    m = write_matrix(tmp_path, "j4.json", M)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["eval", "--func", "exp(x1)", "--mat", m, "--as-matrix"])
    assert escaped == []
    assert (code, err) == (0, "")
    # X = M_block - I has X^4 = 1e-14 I, so exp(M_block) = e sum_r X^r sum_q 1e-14^q / (4q + r)!
    X = M[:4, :4] - np.eye(4)
    want = np.zeros((5, 5), dtype=complex)
    for r in range(4):
        c = sum(1e-14**q / math.factorial(4 * q + r) for q in range(3))
        want[:4, :4] += np.e * c * np.linalg.matrix_power(X, r)
    want[4, 4] = np.exp(2.5)
    got = fileio.matrix_from_obj(json.loads(out))
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def _warns_then(monkeypatch, messages, error=None):
    """Make ``eval`` issue RuntimeWarnings with ``messages``, then raise ``error``."""
    from matfn.funcalc import f_otimes

    def warning_f_otimes(f, mats, **kwargs):
        for message in messages:
            warnings.warn(message, RuntimeWarning)
        if error is not None:
            raise error
        return f_otimes(f, mats, **kwargs)

    monkeypatch.setattr(cli, "f_otimes", warning_f_otimes)


def test_warnings_are_lines_before_the_error(tmp_path, capsys, monkeypatch):
    from matfn import SpectralError

    _warns_then(monkeypatch, ["rank decision one is within 10x", "rank decision two is within 10x"],
                SpectralError("a defective eigenvalue was split"))
    m = write_matrix(tmp_path, "m.json", np.diag([1.0, 2.0]))
    # the warnings become stderr lines; none escapes
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["eval", "--func", "exp(x1)", "--mat", m])
    assert escaped == []
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "matfn: warning: rank decision one is within 10x",
        "matfn: warning: rank decision two is within 10x",
        "matfn: numerical failure: a defective eigenvalue was split",
    ]
    assert "runpy" not in err and "RuntimeWarning" not in err


def test_warning_raised_as_error_exit_2(tmp_path, capsys, monkeypatch):
    # under -W error::RuntimeWarning the first warning is an exception; it is
    # a numerical failure, not a traceback
    _warns_then(monkeypatch, ["rank decision within 10x of the threshold", "never issued"])
    m = write_matrix(tmp_path, "m.json", np.diag([1.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, ["eval", "--func", "exp(x1)", "--mat", m])
    assert code == 2
    assert out == ""
    assert err == "matfn: numerical failure: rank decision within 10x of the threshold\n"


def test_out_of_memory_exit_2(tmp_path, capsys, monkeypatch):
    # a high --order asks for a derivative grid beyond memory; the allocation
    # failure is simulated, since a real one may start on an overcommitting host
    message = "Unable to allocate 32.0 GiB for an array"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("matfn.calculus.nth_derivative_curve", refuse)
    m = write_matrix(tmp_path, "m2.json", [[1.0, 2.0], [0.0, 3.0]])
    argv = ["curve", "--func", "x1", "--mat", m, "--dir", m, "--order", "30"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"matfn: numerical failure: out of memory: {message}\n"


@pytest.mark.parametrize("k", ["0", "-2"])
def test_wedge_k_below_one_exit_1(tmp_path, capsys, k):
    m = write_matrix(tmp_path, "m.json", np.diag([1.0, 2.0]))
    code, out, err = run_cli(capsys, ["wedge", "--func", "1", "--mat", m, "--k", k])
    assert code == 1
    assert out == ""
    assert err == "matfn: input error: --k must be at least 1\n"


def test_argparse_error_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "--func", "x1"])
    assert info.value.code == 1
    assert "required" in capsys.readouterr().err


def test_unknown_suite_exit_1(capsys):
    code, _, err = run_cli(capsys, ["verify", "--suite", "bogus"])
    assert code == 1
    assert "input error" in err


# ----------------------------------------------------------------- verify


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "paths", "--seed", "3", "--trials", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("[pass]") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


@pytest.mark.parametrize("suite, trials", [("zero", "0"), ("paths", "-3")])
def test_verify_nonpositive_trials_exit_1(capsys, suite, trials):
    code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--trials", trials])
    assert code == 1
    assert out == ""
    assert "trials must be at least 1" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_reports_failures_exit_3(capsys, monkeypatch):
    def broken(seed, trials=None):
        return [verify_mod.CheckResult("paths", "forced", 1.0, 1e-8)]

    monkeypatch.setitem(verify_mod.SUITES, "paths", broken)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "paths"])
    assert code == 3
    assert "[FAIL]" in out
    assert "0/1 checks passed" in out


def test_verify_output_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, ["verify", "--suite", "contr", "--seed", "11"])
    code2, out2, _ = run_cli(capsys, ["verify", "--suite", "contr", "--seed", "11"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_installed_entry_point(tmp_path):
    m = tmp_path / "m.json"
    fileio.save_json(str(m), fileio.matrix_to_obj(np.diag([1.0, 2.0])))
    proc = subprocess.run(
        [sys.executable, "-m", "matfn.cli", "det-traces", "--mat", str(m)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert fileio.scalar_from_obj(json.loads(proc.stdout)) == pytest.approx(2.0, abs=1e-12)
