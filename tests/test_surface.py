"""Every public name in `src/` serves the program.

A public top-level function or class of a `gridshare` module, and a
module-level ALL_CAPS constant, public or not, must be named by the
package's code (any module but `__init__.py`, which only re-exports) or by
the benchmark harness in `bench/`. A name that only tests read belongs in
the tests, next to the reference it serves (`dense_reference`).
"""

import ast
import re
from pathlib import Path

import gridshare

SRC = Path(gridshare.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def public_definitions(tree: ast.Module):
    """(line, name) of each top-level def or class whose name has no leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.lineno, node.name


def constant_definitions(tree: ast.Module):
    """(line, name) of each ALL_CAPS name a top-level assignment binds,
    unpacked names included."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for target in targets for n in ast.walk(target)):
                if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                    yield node.lineno, name.id


def _docstrings(tree: ast.Module):
    """The string nodes that are docstrings of the module, a class or a function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def referenced_names(tree: ast.Module):
    """Names the code refers to: as a name it reads, an attribute, an import
    (the imported name, before any `as`) or a whole string constant.
    Assigning a name, docstrings and comments do not count."""
    skip = set(map(id, _docstrings(tree)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            names.add(node.value)
    return names


def unreferenced(modules, readers, definitions=public_definitions):
    """`module:line: name` of each of the `definitions` in `modules` (file
    name -> tree) that no tree of `modules` or `readers` refers to."""
    seen = set().union(*map(referenced_names, [*modules.values(), *readers]))
    return [f"{name}:{line}: {defined}" for name, tree in modules.items()
            for line, defined in definitions(tree) if defined not in seen]


def src_and_bench():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    readers = [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]
    assert readers
    return modules, readers


def test_every_public_name_in_src_is_used_by_src_or_bench():
    assert unreferenced(*src_and_bench()) == []


def test_every_constant_in_src_is_read_by_src_or_bench():
    modules, readers = src_and_bench()
    assert [d for tree in modules.values() for d in constant_definitions(tree)]
    assert unreferenced(modules, readers, constant_definitions) == []


def test_reference_finder_sees_each_form():
    defining = ast.parse(
        "def by_name(): pass\ndef by_attribute(): pass\ndef by_import(): pass\n"
        "class ByString: pass\ndef in_docstring(): pass\ndef in_comment(): pass\n"
        "def _private(): pass\ndef in_a_sentence(): pass\n"
        "def by_call():\n    def nested(): pass\nclass Outer:\n    def method(self): pass\n"
        "def by_bench(): pass\n")
    reading = ast.parse(
        '"""in_docstring"""\nfrom defining import by_import as other\n'
        'def f():\n    """in_docstring, too"""\n    return by_name, defining.by_attribute\n'
        'WRAPPED = ("ByString", "in_a_sentence and more")\n# in_comment\n'
        "by_call()\nOuter()\nf()\n")
    bench = ast.parse("import defining.by_bench\n")
    found = unreferenced({"defining.py": defining, "reading.py": reading}, [bench])
    assert found == ["defining.py:5: in_docstring", "defining.py:6: in_comment",
                     "defining.py:8: in_a_sentence"]


def test_constant_finder_sees_each_form():
    defining = ast.parse(
        'READ = 1\nUNREAD = 2\n_PRIVATE_READ = 3\nA, _B = 4, 5\nTYPED: int = 6\n'
        'lower = 7\nCamel = 8\nREBOUND = 9\nREBOUND = 10\nIN_DOCSTRING = 11\n'
        'def f():\n    LOCAL = 12\n    return READ + _PRIVATE_READ + A + TYPED\n')
    reading = ast.parse('"""IN_DOCSTRING"""\nimport defining\ndefining.REBOUND\n')
    found = unreferenced({"defining.py": defining, "reading.py": reading}, [],
                         constant_definitions)
    assert found == ["defining.py:2: UNREAD", "defining.py:4: _B", "defining.py:10: IN_DOCSTRING"]


def enclosing_paths(tree: ast.Module, matches):
    """The enclosing `Class.function` path of each node of the tree that `matches`."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if matches(child):
                found.append(where)
            visit(child, where)

    visit(tree, "")
    return found


def slot_item_stores(tree: ast.Module):
    """The enclosing `Class.function` path of each store into, or delete of,
    an item or slice of a `.slots` attribute."""
    return enclosing_paths(tree, lambda node: (
        isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
        and isinstance(node.value, ast.Attribute) and node.value.attr == "slots"))


def rewrite_reads(tree: ast.Module):
    """The enclosing `Class.function` path of each read of a `.rewrite`
    attribute: a call of it, or a bound method kept to call later."""
    return enclosing_paths(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "rewrite" and isinstance(node.ctx, ast.Load)))


def test_only_lattice_rewrite_stores_a_slot():
    """Every write into a lattice is one `Lattice.rewrite`, all or nothing."""
    modules, _ = src_and_bench()
    stores = [f"{name}:{where}" for name, tree in modules.items() for where in slot_item_stores(tree)]
    assert stores == ["grid.py:Lattice.rewrite"]


def test_slot_store_finder_sees_each_form():
    tree = ast.parse(
        "x.slots[0] = 1\nclass L:\n    def w(self):\n        self.slots[1:] = ()\n"
        "        for self.slots[2] in (): pass\n"
        "def f(lat):\n    lat.slots[0] += b''\n    del lat.slots[0]\n    return lat.slots[0]\n"
        "def g(rows):\n    rows[0] = 1\n")
    assert slot_item_stores(tree) == ["", "L.w", "L.w", "f", "f"]


def test_only_place_slots_calls_lattice_rewrite():
    """Every footprint is written by `place_slots`, under its one rule: no
    other code in `src/` calls `Lattice.rewrite`."""
    modules, _ = src_and_bench()
    readers = [f"{name}:{where}" for name, tree in modules.items() for where in rewrite_reads(tree)]
    assert readers == ["grid.py:place_slots"]


def test_rewrite_finder_sees_each_form():
    tree = ast.parse(
        "x.rewrite([])\nclass M:\n    def stage(self, lat):\n        lat.rewrite([(s, f)])\n"
        "        return [lambda: lat.copy().rewrite([])]\n"
        "def f(lat):\n    write = lat.rewrite\n    write([])\n    lat.rewrite = None\n"
        "def g(lat):\n    rewrite([])\n    return lat.rewritten, 'rewrite'\n")
    assert rewrite_reads(tree) == ["", "M.stage", "M.stage", "f"]
