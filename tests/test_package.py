"""The package's public surface."""

import inspect

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
