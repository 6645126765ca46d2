"""Every module of the package uses each name it imports, and every
module-level function and class of the package is used by some module of
it."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "modinvar"

# __init__.py imports names to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """The names that source imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_name():
    assert "groebner.py" in MODULES
    assert unused_imports("from operator import add, mul\n"
                          "import numpy as np\n"
                          "def f(a):\n"
                          "    from . import linalg\n"
                          "    return mul(a, linalg.x)\n") == ["add", "np"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\n"
                          "os.path.join('a')\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


# definitions no module of the package refers to, each with its reason
UNREFERENCED = {
    "_full_group_dimension": "the exhaustive oracle that tests compare "
                             "invariant_dimension with",
    "generating_set_gl2": "kept for the invariance check against a "
                          "generating set (ROADMAP item 5); tested "
                          "to generate GL2",
    "cofactors_on_inputs": "wrapped by verdictbench/child.py",
    "solve_modp": "wrapped by verdictbench/child.py",
    "_fit_in_module": "wrapped by verdictbench/child.py",
}


def _referenced(node):
    """Every name that node reads, imports or takes as an attribute."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def unreferenced_definitions(sources):
    """The module-level functions and classes of the sources that no
    source refers to, apart from their own bodies.  A reference is any
    name, attribute or import of the same name, so a definition that
    shares its name with a method or attribute in use is not seen."""
    trees = [ast.parse(source) for source in sources]
    refs = Counter()
    for tree in trees:
        refs.update(_referenced(tree))
    return [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and refs[node.name] == _referenced(node)[node.name]]


def test_the_check_sees_a_dead_definition():
    assert unreferenced_definitions([
        "def used(a):\n"
        "    return _helper(a) + m.method()\n"
        "def _helper(a):\n"
        "    return _helper(a - 1) if a else 0\n"
        "def _dead(a):\n"
        "    return _dead(a)\n"
        "class Dead:\n"
        "    pass\n",
        "from .x import used\n"
        "def method():\n"
        "    pass\n"]) == ["_dead", "Dead"]


def test_every_definition_is_referenced():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert sorted(unreferenced_definitions(sources)) == sorted(UNREFERENCED)
