"""The package's public names: everything in __all__ exists, and the list
is kept sorted and free of repeats."""

import locc_forge


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from locc_forge import *", namespace)
    missing = [name for name in locc_forge.__all__ if name not in namespace]
    assert missing == []


def test_all_is_sorted_and_unique():
    names = locc_forge.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
