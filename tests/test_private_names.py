"""Every module-level private function or class of the package has a user.

A ``_name`` defined at module level and referenced nowhere in the package
(by name, attribute or import) is dead code: tests alone do not keep it.
"""

import ast
from pathlib import Path

import chansim6g

PACKAGE = Path(chansim6g.__file__).parent


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def private_definitions(trees):
    return {(module, node.name)
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def referenced_names(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_private_definition_is_referenced():
    trees = _trees()
    names = referenced_names(trees)
    unused = sorted(f"{module}:{name}"
                    for module, name in private_definitions(trees)
                    if name not in names)
    assert not unused, f"unreferenced private definitions: {unused}"


def test_guard_flags_an_unreferenced_helper():
    trees = {"m.py": ast.parse("def _used():\n    pass\n\n"
                               "def _dead():\n    pass\n\n"
                               "def __dunder__():\n    pass\n\n"
                               "x = _used()\n")}
    names = referenced_names(trees)
    dead = {n for _, n in private_definitions(trees) if n not in names}
    assert dead == {"_dead"}
