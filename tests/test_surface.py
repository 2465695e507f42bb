"""Every public name in `src/` serves the program.

A public top-level function or class of a `gridshare` module must be named
by the package's code (any module but `__init__.py`, which only re-exports)
or by the benchmark harness in `bench/`. A name that only tests read belongs
in the tests, next to the reference it serves (`dense_reference`).
"""

import ast
from pathlib import Path

import gridshare

SRC = Path(gridshare.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"


def public_definitions(tree: ast.Module):
    """(line, name) of each top-level def or class whose name has no leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.lineno, node.name


def _docstrings(tree: ast.Module):
    """The string nodes that are docstrings of the module, a class or a function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def referenced_names(tree: ast.Module):
    """Names the code refers to: as a name, an attribute, an import (the
    imported name, before any `as`) or a whole string constant. Docstrings
    do not count, and comments are not in the tree."""
    skip = set(map(id, _docstrings(tree)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            names.add(node.value)
    return names


def unreferenced(modules, readers):
    """`module:line: name` of each public definition in `modules` (file name
    -> tree) that no tree of `modules` or `readers` refers to."""
    seen = set().union(*map(referenced_names, [*modules.values(), *readers]))
    return [f"{name}:{line}: {defined}" for name, tree in modules.items()
            for line, defined in public_definitions(tree) if defined not in seen]


def test_every_public_name_in_src_is_used_by_src_or_bench():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    readers = [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]
    assert readers
    assert unreferenced(modules, readers) == []


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
