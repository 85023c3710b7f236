"""The residual suites themselves: structure, determinism, full pass at seed 0."""

import pytest

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
