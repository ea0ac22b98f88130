"""The package's public names: everything in __all__ exists, and the list
is kept sorted and free of repeats, and the README's quick tour runs."""

import re
from pathlib import Path

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


def test_readme_quick_tour_runs():
    # the README's python block, run as written, so the documented API
    # cannot drift from the package
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
