"""The residual suites themselves: structure, determinism, full pass at seed 0."""

import pytest

from matfn import verify as verify_mod
from matfn.tensor import OperatorTensor
from matfn.verify import SUITES, CheckResult, run_suites


def test_all_suites_pass_at_seed_zero():
    results = run_suites(["all"], seed=0)
    assert results, "no checks ran"
    failures = [r for r in results if not r.passed]
    assert not failures, "\n".join(r.line() for r in failures)
    names = {r.suite for r in results}
    assert names == set(SUITES)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["nonsense"], seed=0)


def test_trials_override_shrinks_work():
    few = run_suites(["product"], seed=1, trials=3)
    many = run_suites(["product"], seed=1, trials=8)
    assert 0 < len(few) < len(many)


@pytest.mark.parametrize("trials", [0, -3])
def test_nonpositive_trials_rejected(trials):
    # a run that checks nothing must not read as a pass
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_suites(["all"], seed=0, trials=trials)


def test_per_suite_seeds_are_independent():
    # The same seed must give identical residuals run to run.
    a = run_suites(["lipschitz"], seed=5)
    b = run_suites(["lipschitz"], seed=5)
    assert [r.residual for r in a] == [r.residual for r in b]
    # A different seed must actually change the draws.
    c = run_suites(["lipschitz"], seed=6)
    assert [r.residual for r in a] != [r.residual for r in c]


def test_check_result_line_format():
    ok = CheckResult("paths", "demo", 1e-12, 1e-8)
    bad = CheckResult("paths", "demo", 1.0, 1e-8)
    assert ok.passed and not bad.passed
    assert ok.line().startswith("[pass] paths/demo:")
    assert bad.line().startswith("[FAIL] paths/demo:")
    assert "vs bound" in ok.line()


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_suite_green_small(suite):
    results = run_suites([suite], seed=42, trials=4)
    assert results
    for r in results:
        assert r.passed, r.line()


_CONTOUR_CHECKS = ("frechet-contour-", "curve-contour-", "trace-contour-", "eig-d", "proj-d")


def test_contour_checks_catch_a_relative_error_of_1e_8(monkeypatch):
    # central differences, Richardson extrapolation and the trace of the curve
    # derivative let this error through all 18; three stay under 1e-10: a curve
    # derivative and a trace derivative of norm below 1, their scale's floor,
    # and the third trace derivative of x1^2, which is 0
    calc = verify_mod.calc
    curve, frechet, trace = calc.nth_derivative_curve, calc.frechet_derivative, calc.trace_derivative
    monkeypatch.setattr(calc, "nth_derivative_curve", lambda *args: (1 + 1e-8) * curve(*args))
    monkeypatch.setattr(calc, "frechet_derivative",
                        lambda *args: OperatorTensor((1 + 1e-8) * frechet(*args).data))
    monkeypatch.setattr(calc, "trace_derivative", lambda *args: (1 + 1e-8) * trace(*args))
    checks = [r for r in verify_mod.suite_diff(0) if r.name.startswith(_CONTOUR_CHECKS[:3])]
    assert len(checks) == 18
    assert sum(not r.passed for r in checks) >= 15, "\n".join(r.line() for r in checks)


def test_contour_bounds_sit_at_the_floor():
    # a circle across a pole of the field leaves the oracle's two circle sets
    # far apart, and 10x their disagreement a bound that passes anything: without
    # the radius cap, frechet-contour-3 at seed 4000 (the diff suite of
    # `verify --suite all --seed 0`) reads 1.0 against a bound of 10
    for seed in [*range(10), 4000]:
        checks = [r for r in verify_mod.suite_diff(seed) if r.name.startswith(_CONTOUR_CHECKS)]
        assert len(checks) == 48
        for r in checks:
            assert r.bound == 1e-10, (seed, r.line())
