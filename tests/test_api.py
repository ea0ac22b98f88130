"""The package's public names: everything in __all__ exists, and the list
is kept sorted and free of repeats, the README's quick tour runs, and the
package needs nothing at run time beyond the standard library and numpy."""

import ast
import re
import sys
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


def test_runtime_imports_are_stdlib_or_numpy():
    # the top-level module of every absolute import in the package source
    src = Path(locc_forge.__file__).resolve().parent
    imported = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    assert "numpy" in imported
    outside = {top: where for top, where in imported.items()
               if top != "numpy" and top not in sys.stdlib_module_names}
    assert outside == {}
