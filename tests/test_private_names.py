"""Every module-level definition of the package has a user.

A ``_name`` defined at module level and referenced nowhere in the package
(by name, attribute or import) is dead code: tests alone do not keep it.

A public module-level function, class or assigned name must be reached from
the package outside its own body, from a ``scripts/`` tool or from the
acceptance criteria; unit tests alone do not keep it either. So must every
method, property and class-level (dataclass) field of a module-level class:
it must be read as an attribute outside its own definition. A constructor
keyword or an attribute store is not a read. The scan goes by name, so a
read of ``x.name`` keeps every member called ``name``. ``KEEP`` names the
exceptions (members as ``Class.member``) and why each stays.
"""

import ast
from collections import Counter
from pathlib import Path

import chansim6g

PACKAGE = Path(chansim6g.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "load_materials": "the only reader of the shipped materials.json asset",
    "FaReflection.in_band": "the fitted model's out-of-band flag, the one reader "
                            "of the fit band that materials.json records",
}


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _outside_trees():
    """The readers outside the package that keep a public name: the
    ``scripts/`` tools and the acceptance criteria."""
    return {p.name: ast.parse(p.read_text())
            for p in [*sorted((ROOT / "scripts").glob("*.py")),
                      ROOT / "tests" / "test_acceptance.py"]}


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


def defined_names(node):
    """The names a def, class or assignment statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def public_definitions(trees):
    """(module, name, top-level statement) of every public def, class and
    assigned name."""
    return [(module, name, node) for module, tree in trees.items()
            for node in tree.body for name in defined_names(node)
            if not name.startswith("_")]


def unreached_public(trees, outside_names):
    """Public definitions referenced neither by another top-level statement
    of the package nor in ``outside_names``."""
    statements = [(node, referenced_names({"": node}))
                  for tree in trees.values() for node in tree.body]
    return {(module, name) for module, name, own in public_definitions(trees)
            if name not in outside_names
            and not any(name in names for node, names in statements
                        if node is not own)}


def member_definitions(trees):
    """(module, class, name, statement) of every method, property and
    class-level field of the module-level classes, dunders aside."""
    return [(module, cls.name, name, node) for module, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body for name in defined_names(node)
            if not (name.startswith("__") and name.endswith("__"))]


def attribute_reads(node) -> Counter:
    """How often each name is read as an attribute (``x.name``, not a
    store) in the tree ``node``."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store))


def unread_members(trees, outside_names):
    """Members read as an attribute neither in the package outside their own
    definition nor in ``outside_names``."""
    reads = sum((attribute_reads(tree) for tree in trees.values()), Counter())
    return {(module, cls, name) for module, cls, name, own in member_definitions(trees)
            if name not in outside_names and reads[name] == attribute_reads(own)[name]}


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
    names = referenced_names(_outside_trees())
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


def test_every_member_is_read():
    outside = set().union(*map(attribute_reads, _outside_trees().values()))
    unread = sorted(f"{module}:{cls}.{name}" for module, cls, name
                    in unread_members(_trees(), outside)
                    if f"{cls}.{name}" not in KEEP)
    assert not unread, f"members nothing reads: {unread}"


def test_member_guard_flags_an_unread_field():
    trees = {"a.py": ast.parse("@dataclass\n"
                               "class Pair:\n"
                               "    used: int\n"
                               "    planted: float\n"
                               "    scripted: int\n"
                               "    LIMIT = 3\n\n"
                               "    @property\n"
                               "    def twice(self):\n"
                               "        return 2 * self.used\n\n"
                               "    def recursive(self):\n"
                               "        return self.recursive()\n\n"
                               "    def __post_init__(self):\n"
                               "        pass\n"),
             "b.py": ast.parse("pair = Pair(used=Pair.LIMIT, planted=2.0, scripted=1)\n"
                               "pair.planted = 5.0\n"
                               "x = pair.twice\n")}
    assert unread_members(trees, {"scripted"}) == {("a.py", "Pair", "planted"),
                                                   ("a.py", "Pair", "recursive")}
