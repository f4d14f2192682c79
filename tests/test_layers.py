"""The package's modules import one another in one direction only, down
the pipeline: records < walks, ore, exactmath < guess, certify,
eliminate, closedform < cli.  Every import statement counts, including
one inside a function or under ``TYPE_CHECKING``."""

import ast
import os

import pytest

PACKAGE = "quarterwalks"
PACKAGE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", PACKAGE
)

LAYERS = [
    {"records"},
    {"walks", "ore", "exactmath"},
    {"guess", "certify", "eliminate", "closedform"},
    {"cli"},
]
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}
ROOT = "__init__"


def imported_modules(source: str) -> set[str]:
    """The modules of the package that ``source`` imports anywhere in its
    tree, by name; ``ROOT`` stands for the package root, and for a name
    imported from it (``from . import _EXPORTS``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names = [f"{PACKAGE}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{PACKAGE}.{node.module}"]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == PACKAGE:
                found.add(parts[1] if len(parts) > 1 and parts[1] in RANK else ROOT)
    return found


def test_every_module_has_a_layer():
    modules = {f[:-3] for f in os.listdir(PACKAGE_DIR) if f.endswith(".py")}
    assert modules - {ROOT} == set(RANK)


def test_import_scan_finds_every_form():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .records import FrozenRecord\n"
        "from . import _EXPORTS, walks\n"
        "import quarterwalks.guess\n"
        "if TYPE_CHECKING:\n"
        "    from .closedform import HypergeomTerm\n"
        "def f():\n"
        "    from .ore import OreOperator\n"
    )
    assert imported_modules(source) == {"records", ROOT, "walks", "guess", "closedform", "ore"}


@pytest.mark.parametrize("module", sorted(RANK))
def test_imports_point_down_the_layers(module):
    """A module imports only modules of lower layers, so two modules of
    one layer never import each other; only ``cli`` imports the root."""
    with open(os.path.join(PACKAGE_DIR, f"{module}.py")) as fh:
        targets = imported_modules(fh.read())
    for target in sorted(targets):
        if target == ROOT:
            assert module == "cli", f"{module} imports the package root"
        else:
            assert RANK[target] < RANK[module], f"{module} imports {target}"
