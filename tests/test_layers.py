"""The package's modules import one another in one direction only, down
the pipeline: records < walks, ore, exactmath < guess, certify,
eliminate, closedform < cli.  Every import statement counts, including
one inside a function or under ``TYPE_CHECKING``.  And one evaluator
applies operators to the counting oracle, ``ore.evaluate``, as one check
applies a recurrence to a sequence, ``UniOperator.first_failure``, one
function parses integers, ``records.json_int``, and one module reads and
writes the recurrence file, ``exactmath``."""

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


def call_sites(node: ast.AST, name: str) -> set[tuple[int, int]]:
    """(line, column) of every call of ``name`` anywhere under ``node``:
    ``name(...)`` and ``x.name(...)`` both count."""
    return {
        (call.lineno, call.col_offset)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    }


def called_names(node: ast.AST) -> set[str]:
    """The names called anywhere under ``node``: ``f(...)`` and
    ``x.f(...)`` both give f."""
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            names.add(call.func.id)
        elif isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            names.add(call.func.attr)
    return names


def package_trees():
    """(module name, parsed source) of every module of the package."""
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


def test_call_scan_finds_both_forms():
    source = "def f(op):\n    def g():\n        return ore.evaluate([op])\n    return term_rows(g())\n"
    assert called_names(ast.parse(source)) == {"evaluate", "term_rows", "g"}
    assert call_sites(ast.parse(source), "evaluate") == {(3, 15)}
    assert call_sites(ast.parse("g(x)\nx.g(y)\ng.h()\n"), "g") == {(1, 0), (2, 0)}


def test_one_evaluator():
    """Only ``ore.evaluate`` (under ``first_nonzero``) and the guessing
    system's ``assemble_system`` read rows of an operator's terms from the
    oracle (``term_rows``); ``filter_candidates`` reads its fresh points
    through ``evaluate``, not a second system; and no class gives an
    operator an evaluation of its own."""
    row_readers, methods, functions = set(), set(), {}
    for module, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                function = f"{module}.{node.name}"
                functions[function] = called_names(node)
                if "term_rows" in functions[function]:
                    row_readers.add(function)
            elif isinstance(node, ast.ClassDef):
                methods |= {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
    assert row_readers == {"ore.evaluate", "guess.assemble_system"}
    assert "evaluate" in functions["ore.first_nonzero"]
    called = functions["guess.filter_candidates"]
    assert "evaluate" in called and not called & {"assemble_system", "_annihilates"}
    assert not methods & {"apply_at", "is_zero_on"}


def test_one_sequence_check():
    """Only ``UniOperator.first_failure``, the one home of the two-window
    horizon rule, applies a recurrence to a sequence: every call of
    ``apply_to_sequence`` in the package is inside it."""
    everywhere, inside = set(), set()
    for module, tree in package_trees():
        everywhere |= {(module, *site) for site in call_sites(tree, "apply_to_sequence")}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "UniOperator":
                for method in cls.body:
                    if isinstance(method, ast.FunctionDef) and method.name == "first_failure":
                        inside |= {
                            (module, *site) for site in call_sites(method, "apply_to_sequence")
                        }
    assert inside and everywhere == inside


def test_one_integer_reader():
    """Every ``int(...)`` call in the package is inside ``records.json_int``,
    so no reader or option takes "1_0", " 5" or fullwidth digits."""
    everywhere, inside = set(), set()
    for module, tree in package_trees():
        everywhere |= {(module, *site) for site in call_sites(tree, "int")}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "json_int":
                inside |= {(module, *site) for site in call_sites(node, "int")}
    assert {module for module, _, _ in inside} == {"records"}
    assert everywhere == inside


def test_only_closedform_imports_fractions():
    importers = set()
    for module, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                importers.add(module)
    assert importers == {"closedform"}


def test_recurrence_file_reader_beside_its_writer():
    """``uni_from_json`` and ``uni_to_json`` are defined in one module."""
    homes = {
        (node.name, module)
        for module, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("uni_from_json", "uni_to_json")
    }
    assert homes == {("uni_from_json", "exactmath"), ("uni_to_json", "exactmath")}
