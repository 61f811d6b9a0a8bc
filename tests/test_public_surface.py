"""The public surface is what the package calls: every name in ``choiforge.__all__``
is used somewhere in ``src/choiforge/`` besides ``__init__.py`` and its own
definition. A helper only tests call belongs in ``tests/conftest.py``."""

import ast
from pathlib import Path

import choiforge

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "choiforge"


def _definitions(tree: ast.Module, name: str):
    """Top-level nodes that define `name`: a def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            yield node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                yield node


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


def test_every_exported_name_is_used_by_the_package():
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    unused = [
        name for name in choiforge.__all__ if not any(_references(t, name) for t in trees)
    ]
    assert not unused, f"exported but never used inside the package: {unused}"
