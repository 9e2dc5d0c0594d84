"""The package holds what its own modules, its command line and the science
use.  Test oracles belong in ``tests/oracles.py``: every name ``zenoprop``
exports must have a caller in ``src/zenoprop/``, be a layer the benchmark
traces (``perfbench/spans.py``), or be one of the science results below."""

import ast
from pathlib import Path
from types import ModuleType

import zenoprop
from perfbench.spans import LAYERS

# Results the acceptance criteria test as science although nothing in the
# package calls them: the numeric oscillation curve (criterion 4) and the
# crossing-time densities (criterion 8).
SCIENCE = ("numeric_oscillation_curve", "crossing_density", "normalized_crossing_density")


def exported_names() -> set[str]:
    """The package's public names and each submodule's ``__all__``."""
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
    exported = exported_names()
    assert set(SCIENCE) <= exported
    layers = {fn for fns in LAYERS.values() for fn in fns}
    assert sorted(exported - called_names() - layers - set(SCIENCE)) == []
