"""Every module-level definition of the package has a user.

A ``_name`` defined at module level and referenced nowhere in the package
(by name, attribute or import) is dead code: tests alone do not keep it.

A public module-level function, class or assigned name must be reached from
the package outside its own body, from a ``scripts/`` tool or from the
acceptance criteria; unit tests alone do not keep it either. ``KEEP`` names
the exceptions and why each stays.
"""

import ast
from pathlib import Path

import chansim6g

PACKAGE = Path(chansim6g.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "load_materials": "the only reader of the shipped materials.json asset",
}


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


def public_definitions(trees):
    """(module, name, top-level statement) of every public def, class and
    assigned name."""
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [(module, name, node) for name in names
                    if not name.startswith("_")]
    return out


def unreached_public(trees, outside_names):
    """Public definitions referenced neither by another top-level statement
    of the package nor in ``outside_names``."""
    statements = [(node, referenced_names({"": node}))
                  for tree in trees.values() for node in tree.body]
    return {(module, name) for module, name, own in public_definitions(trees)
            if name not in outside_names
            and not any(name in names for node, names in statements
                        if node is not own)}


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


def test_every_public_definition_is_reached():
    outside = [*sorted((ROOT / "scripts").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    names = referenced_names({p.name: ast.parse(p.read_text()) for p in outside})
    unreached = sorted(f"{module}:{name}" for module, name
                       in unreached_public(_trees(), names | set(KEEP)))
    assert not unreached, f"public definitions nothing reaches: {unreached}"


def test_public_guard_flags_an_unreferenced_def():
    trees = {"a.py": ast.parse("LIMIT = 3\n\n"
                               "def used():\n    return LIMIT\n\n"
                               "def recursive(n):\n    return recursive(n - 1)\n\n"
                               "def scripted():\n    pass\n\n"
                               "def planted():\n    pass\n"),
             "b.py": ast.parse("from .a import used\n")}
    assert unreached_public(trees, {"scripted"}) == {("a.py", "recursive"),
                                                     ("a.py", "planted")}
