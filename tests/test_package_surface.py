"""The package holds what its own modules and its command line use.  Test
oracles belong in ``tests/oracles.py``: every name ``zenoprop`` exports must
have a caller in ``src/zenoprop/`` or be a layer the benchmark traces
(``perfbench/spans.py``).  Every third-party module the code imports must be
declared in ``pyproject.toml``.  The slice grid is built in one place,
``recursion.RecursionConfig``.  The oracles borrow no private name of the
package."""

import ast
import importlib
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import zenoprop
from perfbench.spans import LAYERS, PACKAGE_MODULES


def exported_names() -> set[str]:
    """The package's public names and each submodule's ``__all__``, with
    every submodule imported first, so that the names do not depend on
    which tests ran before."""
    for module in PACKAGE_MODULES:
        importlib.import_module(f"zenoprop.{module}")
    names = set()
    for name, value in vars(zenoprop).items():
        if isinstance(value, ModuleType):
            names.update(getattr(value, "__all__", ()))
        elif not name.startswith("_"):
            names.add(name)
    return names


def called_names() -> set[str]:
    """Names read anywhere in the package, outside their own definition."""
    names = set()
    for path in Path(zenoprop.__file__).parent.glob("*.py"):
        for statement in ast.parse(path.read_text()).body:
            read = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            names |= read - {getattr(statement, "name", None)}
    return names


def test_every_export_has_a_use():
    layers = {fn for fns in LAYERS.values() for fn in fns}
    assert sorted(exported_names() - called_names() - layers) == []


def imported_top_level(root: Path) -> set[str]:
    """Top-level names of every absolute import in the ``.py`` files under
    ``root``."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_declared():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    repo = Path(__file__).parent.parent
    project = tomllib.loads((repo / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_")
                for req in requirements}
    local = {"zenoprop", "perfbench"} | {path.stem for path in (repo / "tests").glob("*.py")}
    imported = set().union(*(imported_top_level(repo / d) for d in ("src", "tests", "perfbench")))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert sorted(third_party - declared) == []


def grid_builders() -> list[str]:
    """``module.Class`` (or ``module``) of every ``Grid1D(...)`` call in the
    package."""
    found = []
    for path in sorted(Path(zenoprop.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            owner = path.stem
            if isinstance(statement, ast.ClassDef):
                owner += "." + statement.name
            found += [owner for node in ast.walk(statement)
                      if isinstance(node, ast.Call) and (
                          getattr(node.func, "id", None) == "Grid1D"
                          or getattr(node.func, "attr", None) == "Grid1D")]
    return found


def test_the_slice_grid_is_built_in_one_place():
    # the grid follows from the recursion's sizes alone
    assert grid_builders() == ["recursion.RecursionConfig"]


def test_oracles_import_no_private_names():
    # an oracle built from the internals it checks would agree with them by
    # construction
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zenoprop")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


UNIT_NAMES = {"m", "eps", "tau"}


def unit_parameters(module: str) -> list[str]:
    """``module.function(name)`` for every parameter named m, eps or tau of
    a public function of ``module``, and ``module.Class.name`` for every such
    field of a public dataclass."""
    found = []
    for node in ast.parse((Path(zenoprop.__file__).parent / f"{module}.py").read_text()).body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            found += [f"{module}.{node.name}({a.arg})" for a in args if a.arg in UNIT_NAMES]
        elif isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            found += [f"{module}.{node.name}.{s.target.id}" for s in node.body
                      if isinstance(s, ast.AnnAssign) and s.target.id in UNIT_NAMES]
    return found


def test_the_envelopes_take_no_units():
    # the envelopes depend on t/eps alone, so they take s = t/eps and
    # interval counts; only the command line multiplies by eps and m.  The
    # calibration is the dimensionless constant v0 eps = 4/3
    found = [name for module in ("sawtooth", "exact", "lattice")
             for name in unit_parameters(module)]
    found += [name for name in unit_parameters("wavepacket")
              if name.startswith("wavepacket.stationary_delta_g(")]
    assert found == []
