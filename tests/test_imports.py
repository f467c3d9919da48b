"""Every module-level import is read, and every package definition is used.

Two AST scans. Each name that a top-level ``import`` or ``from ... import``
binds, in the package or its tests, must appear as a name somewhere in the
same module; ``from __future__`` imports bind no such name and are skipped.
Each module-level ``def`` or ``class`` of the package must be named somewhere
in the package outside its own body, so that ``src/`` holds only what its
entry points run; references kept for the tests live in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/xsim/*.py"))
MODULES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])

# Checked by acceptance criterion 06, which runs the decomposed circuit of
# U(t), and not yet run by an experiment.
UNREFERENCED_ALLOWED = {
    "decompose_x_unitary",  # criterion 06: compiles an XUnitaryParams point into a circuit
    "propagator_x_params",  # criterion 06: U(t) as an XUnitaryParams point
}


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_module_level_import_is_read(path):
    assert unused_imports(path) == []


def _names(node) -> list:
    """Every identifier that ``node`` and its descendants name."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
    return out


def unreferenced_definitions(paths) -> list:
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    named = Counter(name for tree in trees for name in _names(tree))
    definitions = (node for tree in trees for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return sorted(node.name for node in definitions if named[node.name] == _names(node).count(node.name))


def test_every_package_definition_is_named_outside_itself():
    unreferenced = unreferenced_definitions(PACKAGE)
    assert [name for name in unreferenced if name not in UNREFERENCED_ALLOWED] == []
