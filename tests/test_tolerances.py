"""The package keeps its tolerances in one table, in majorization.py.

A float literal below 1e-5 anywhere else in src/locc_forge is a tolerance
defined outside that table, and so is a module-level name ending in _TOL
or _GAP.
"""

import ast
from pathlib import Path

from locc_forge import majorization

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "locc_forge"
TABLE = ("ZERO_TOL", "UNIT_TOL", "PLAN_TOL", "DEGENERACY_GAP")


def _definitions(path: Path):
    """(name or literal, line) of every tolerance defined in one module,
    except the table's own entries."""
    tree = ast.parse(path.read_text(), filename=str(path))
    table = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if path.name == "majorization.py" and target.id in TABLE:
                table.add(id(node.value))
            elif target.id.endswith(("_TOL", "_GAP")):
                yield target.id, node.lineno
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < node.value < 1e-5 and id(node) not in table):
            yield repr(node.value), node.lineno


def test_every_tolerance_is_in_the_table():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for what, line in _definitions(path)
    ]
    assert found == []


def test_table_values():
    assert [getattr(majorization, name) for name in TABLE] == [1e-12, 1e-9, 1e-10, 1e-8]
