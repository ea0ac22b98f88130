"""The package's public names: everything in __all__ exists, and the list
is kept sorted and free of repeats, the README's quick tour runs, the
package needs nothing at run time beyond the standard library and numpy,
JSON stays in the CLI, no module imports another's private names, and each
library refusal that no command reaches raises its message."""

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import locc_forge
from locc_forge import (
    DecompositionFailed,
    DenseState,
    GeneralizedSchmidtState,
    ProbVector,
    catalysis_search,
    extract_gsd,
    intermediate_state,
    mixture_for,
    multicopy_profile,
)
from locc_forge import majorization

SRC = Path(locc_forge.__file__).resolve().parent


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
    imported = {}
    for path in sorted(SRC.glob("*.py")):
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


def test_json_and_private_names_stay_in_their_module():
    # only cli.py imports json or defines a JSON reader or writer, and no
    # module imports a name starting with _ from another package module
    json_names = {"to_json", "from_json", "to_float", "to_int"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name != "cli.py":
                if isinstance(node, ast.Import):
                    found += [(path.name, "import", alias.name) for alias in node.names
                              if alias.name.split(".")[0] == "json"]
                elif isinstance(node, ast.ImportFrom) and node.module == "json":
                    found.append((path.name, "import", "json"))
                elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and node.name.lstrip("_") in json_names):
                    found.append((path.name, "def", node.name))
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "locc_forge"):
                found += [(path.name, "private import", alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def _stuck_walk(monkeypatch):
    # a walk whose every step places nothing leaves all the mass unplaced
    monkeypatch.setattr(majorization, "_largest_step", lambda *args: (0.0, None, None))
    mixture_for(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))


_PAIR = ProbVector([0.5, 0.5])
_SHORT = ProbVector([1.0])


@pytest.mark.parametrize("call, error, message", [
    (lambda mp: intermediate_state(_SHORT, _PAIR), ValueError, "dimension mismatch"),
    (lambda mp: multicopy_profile(_SHORT, _PAIR, 2), ValueError, "dimension mismatch"),
    (lambda mp: catalysis_search(_SHORT, _PAIR), ValueError, "dimension mismatch"),
    (lambda mp: multicopy_profile(_PAIR, _PAIR, copies=0), ValueError,
     "copies must be >= 1"),
    (lambda mp: GeneralizedSchmidtState((2,), _PAIR, [np.eye(2)]), ValueError,
     "need at least two parties"),
    (lambda mp: extract_gsd(DenseState([1.0, 0.0], (2,))), ValueError,
     "need at least two parties"),
    (lambda mp: GeneralizedSchmidtState.computational((2, 2), _PAIR)._with_coeffs(_SHORT),
     ValueError, r"rank 1 differs from the state's 2"),
    (lambda mp: setattr(DenseState([1.0, 0.0], (2,)), "dims", (1, 2)), AttributeError,
     "DenseState is immutable"),
    (lambda mp: setattr(GeneralizedSchmidtState.computational((2, 2), _PAIR), "dims", (2,)),
     AttributeError, "GeneralizedSchmidtState is immutable"),
    # dims are read by operator.index: numpy integers pass, floats do not
    (lambda mp: DenseState([1.0, 0.0], (2.0,)), TypeError, "'float' object cannot be"),
    (_stuck_walk, DecompositionFailed,
     r"mixture_for: n=2, walk stopped after 2 steps with mass 1 unplaced"),
], ids=["intermediate_state_lengths", "multicopy_lengths", "catalysis_lengths",
        "zero_copies", "one_party_gss", "one_party_extract", "other_rank_coeffs",
        "dense_immutable", "gss_immutable", "float_dims", "walk_leaves_mass"])
def test_library_refusals(monkeypatch, call, error, message):
    with pytest.raises(error, match=message):
        call(monkeypatch)
