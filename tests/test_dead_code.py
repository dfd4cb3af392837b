"""Every public top-level function and class of the package has a caller.

A name counts as used when some module of `src/tfse` other than
`__init__.py` refers to it outside its own definition; the re-exports of
`__init__.py` do not count.  Tests do not count either: code that only a
test calls is a helper nothing runs.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tfse"


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _references(tree, skip):
    """Names and attributes referred to in `tree`, outside the nodes of
    `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_names(package=PACKAGE):
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"}
    unused = []
    for module, tree in trees.items():
        for node in _public_definitions(tree):
            used = any(node.name in _references(other, {node})
                       for other in trees.values())
            if not used:
                unused.append(f"{module[:-3]}.{node.name}")
    return unused


def test_every_public_name_has_a_caller():
    assert unreferenced_names() == []


def test_finds_a_name_only_reexported_or_self_called(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import spare\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def spare(n):\n    return spare(n - 1) if n else used()\n")
    (tmp_path / "b.py").write_text("from . import a\n\nX = a.used()\n")
    assert unreferenced_names(tmp_path) == ["a.spare"]
