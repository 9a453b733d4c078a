"""The public surface: every exported name resolves, and none is listed twice."""

import opframe


def test_all_names_resolve():
    missing = [name for name in opframe.__all__ if not hasattr(opframe, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(opframe.__all__) == len(set(opframe.__all__))
