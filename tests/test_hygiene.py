"""Source hygiene of the package, checked on its syntax trees.

- No module-level import goes unused; a name listed in `__all__` counts
  as used.
- No `assert` statement does the package's own checking, since
  `python -O` strips them.
- Every exception class but `LckError` is caught somewhere in the
  package; a failure that no caller tells apart is an `LckError` whose
  message names it.
- No module imports an underscore name of another package module, at
  module level or inside a function.
- Only `scalars.py` names the node tags of the expression grammar's
  syntax tree.
- Only `scalars.py` builds a `Scalar` or passes `_normalized`: its
  arithmetic cancels gcds of the operands' factors, which is exact only
  when every operand is reduced.
- Every function the benchmark's tracer wraps still exists.
- Every module-level function and class, and every method but a
  dunder, is named somewhere else: in a package module other than
  `__init__.py`, outside its own definition, or in the benchmark's
  scripts.  A public name that only `__all__` or a test reads is dead
  API.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "lckverify").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(tree):
    """Names bound by module-level imports and never read."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom fractions import Fraction\n"
                     "__all__ = ['Fraction']\n")
    assert unused_imports(tree) == ["os (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_level_import(path):
    assert unused_imports(_tree(path)) == []


def private_imports(tree):
    """Underscore names that imports anywhere in `tree` take from the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "lckverify"
                                                 or node.module.startswith("lckverify.")):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_the_check_sees_a_private_import():
    tree = ast.parse("from . import __version__\nfrom .a import b, _c\n"
                     "def f():\n    from lckverify.d import _e\n    from os import _exit\n")
    assert private_imports(tree) == ["_c (line 2)", "_e (line 4)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_import_of_a_private_name(path):
    assert private_imports(_tree(path)) == []


def test_only_scalars_names_an_expression_node():
    tags = {"add", "sub", "mul", "div", "neg", "pow"}
    named = {p.name: sorted({n.value for n in ast.walk(_tree(p))
                             if isinstance(n, ast.Constant) and n.value in tags})
             for p in SOURCES if p.name != "scalars.py"}
    assert {name: found for name, found in named.items() if found} == {}


def scalar_builds(tree):
    """Lines of calls that build a `Scalar` or pass `_normalized`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "Scalar" or any(k.arg == "_normalized" for k in node.keywords):
                lines.append(node.lineno)
    return lines


def test_the_check_sees_a_scalar_build():
    tree = ast.parse("x = Scalar(f, n, d)\ny = scalars.Scalar(f, n, d)\n"
                     "z = make(f, n, _normalized=True)\nisinstance(x, Scalar)\n"
                     "f.scalar(3)\n")
    assert scalar_builds(tree) == [1, 2, 3]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "scalars.py"],
                         ids=[p.name for p in SOURCES if p.name != "scalars.py"])
def test_only_scalars_builds_a_scalar(path):
    assert scalar_builds(_tree(path)) == []


def caught_names(tree):
    """Names of the classes listed in the package's `except` clauses."""
    names = set()
    for handler in ast.walk(tree):
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
            names |= {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
    return names


def test_the_check_sees_a_caught_class():
    tree = ast.parse("try:\n    pass\nexcept (KeyError, ValueError) as e:\n    pass\n"
                     "except OSError:\n    raise\nfinally:\n    pass\n")
    assert caught_names(tree) == {"KeyError", "ValueError", "OSError"}


def test_every_exception_class_but_the_base_is_caught():
    errors = next(p for p in SOURCES if p.name == "errors.py")
    classes = {n.name for n in _tree(errors).body if isinstance(n, ast.ClassDef)}
    caught = set().union(*(caught_names(_tree(p)) for p in SOURCES))
    assert "LckError" in classes
    assert sorted(classes - caught - {"LckError"}) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statement(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"


def test_every_traced_function_exists(monkeypatch):
    """bench/tracing.py, loaded read-only, resolves each of its SPANS to an
    attribute defined on its module or class, as `Tracer.start` needs."""
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays untouched
    spec.loader.exec_module(tracing)
    missing = []
    for name, (module, path) in tracing.SPANS.items():
        owner, attr = tracing._resolve(importlib.import_module(f"lckverify.{module}"), path)
        if attr not in vars(owner):
            missing.append(name)
    assert missing == []


def _names(node):
    """Every name that `node` reads, imports or takes as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def unreferenced_definitions(sources, bench_text):
    """`file: name` of each module-level function or class, and `file:
    Class.name` of each method but a dunder, in `sources` ({file name:
    text}) that nothing else in the package names, `__init__.py` aside:
    no other top-level statement, and for a method no other statement of
    its class.  A name that `bench_text` names counts as named."""
    statements = [(fname, node, _names(node))
                  for fname, text in sources.items() if fname != "__init__.py"
                  for node in ast.parse(text).body]
    found = []
    for fname, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        elsewhere = set().union(*(names for _, other, names in statements if other is not node))
        definitions = [(node.name, node.name, elsewhere)]
        if isinstance(node, ast.ClassDef):
            definitions += [(f"{node.name}.{m.name}", m.name,
                             elsewhere.union(*(_names(o) for o in node.body if o is not m)))
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__"))]
        found += [f"{fname}: {label}" for label, name, names in definitions
                  if name not in names and not re.search(rf"\b{name}\b", bench_text)]
    return found


def test_the_check_sees_an_unreferenced_definition():
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
                "def again():\n    return again()\n\n\nclass Traced:\n    pass\n\n\n"
                "def local():\n    pass\n\n\nX = local\n",
        "b.py": "from .a import used\nfrom .c import A\n\n\nclass B:\n"
                "    def dead(self):\n        pass\n\n\ndef make():\n"
                "    return A.build()\n\n\nmake()\n",
        "c.py": "class A:\n"
                "    def __init__(self):\n        self.helper()\n\n"
                "    def helper(self):\n        pass\n\n"
                "    def recurse(self):\n        return self.recurse()\n\n"
                "    @staticmethod\n    def build():\n        return A()\n\n"
                "    def traced(self):\n        pass\n\n"
                "    def __len__(self):\n        return 0\n\n"
                "    def gone(self):\n        pass\n",
        "__init__.py": "from .a import dead\nfrom .c import A\n__all__ = ['dead', 'B']\nA.gone\n",
    }
    bench = "SPANS = {'a.Traced': ('a', 'Traced'), 'c.traced': ('c', 'A.traced')}"
    assert unreferenced_definitions(sources, bench) == [
        "a.py: dead", "a.py: again", "b.py: B", "b.py: B.dead", "c.py: A.recurse",
        "c.py: A.gone"]


def test_no_unreferenced_definition():
    sources = {p.name: p.read_text() for p in SOURCES}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    assert unreferenced_definitions(sources, bench) == []
