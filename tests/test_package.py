"""The package's public surface."""

import matfn


def test_all_names_resolve_once():
    assert len(matfn.__all__) == len(set(matfn.__all__))
    missing = [name for name in matfn.__all__ if not hasattr(matfn, name)]
    assert missing == []
