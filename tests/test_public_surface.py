"""The package holds only what it calls: every name in ``choiforge.__all__``, and
every module-level function, class and assignment in ``src/choiforge/`` besides
``__init__.py``, is used somewhere in those modules outside its own definition.
A helper only tests call belongs in ``tests/conftest.py``."""

import ast
from pathlib import Path

import pytest

import choiforge

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "choiforge"
MODULES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(PACKAGE.glob("*.py"))
    if path.name != "__init__.py"
}


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level def, class or assignment defines; none for other statements."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _definitions(tree: ast.Module, name: str):
    """Top-level nodes that define `name`: a def, a class or an assignment."""
    return [node for node in tree.body if name in _defined_names(node)]


def _references(tree: ast.Module, name: str) -> int:
    """Uses of `name` as a bare or dotted name, outside the nodes that define it.

    Imports do not count: importing a name is not calling it.
    """
    inside = {id(n) for d in _definitions(tree, name) for n in ast.walk(d)}
    return sum(
        1
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
        )
    )


def _unused(names) -> list[str]:
    return [name for name in names if not any(_references(t, name) for t in MODULES.values())]


def test_every_exported_name_is_used_by_the_package():
    unused = _unused(choiforge.__all__)
    assert not unused, f"exported but never used inside the package: {unused}"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_module_level_name_is_used_by_the_package(module):
    names = [name for node in MODULES[module].body for name in _defined_names(node)]
    assert names
    unused = _unused(names)
    assert not unused, f"defined in {module} but never used inside the package: {unused}"
